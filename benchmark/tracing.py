"""In-memory spans around ttsynth's layer boundaries, and the per-layer
metrics derived from them.

`Tracer.install` replaces each function in `WRAPPED` at the module
attribute its caller looks up (for example `ttsynth.cli.synthesize`, which
the CLI imported by name, and `ttsynth.ilp.solve`, which `regions` and
`semantics` reach through the module), so the program itself is unchanged.
A span is (name, start, end, parent index, operation id, note); the note
holds a count read from the call's argument or result.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, Optional


def _model_size(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    return {"vars": len(model.variables), "rows": len(model.constraints)}


def _regions_found(args, kwargs, result) -> dict:
    return {"found": len(result.regions)}


def _places_kept(args, kwargs, result) -> dict:
    return {"kept": len(result.places)}


def _net_places(args, kwargs, result) -> dict:
    return {"places": len(result.net.places)}


#: (module looked up by the caller, attribute, span name, note)
WRAPPED = [
    ("ttsynth.io", "parse_traces", "io.parse_traces", None),
    ("ttsynth.io", "parse_state_graph", "io.parse_state_graph", None),
    ("ttsynth.io", "parse_pnml", "io.parse_pnml", None),
    ("ttsynth.io", "write_pnml", "io.write_pnml", None),
    ("ttsynth.io", "export_dot", "io.export_dot", None),
    ("ttsynth.cli", "trace_to_labelled_net", "convert.trace_to_labelled_net", _net_places),
    ("ttsynth.cli", "state_graph_to_labelled_net", "convert.state_graph_to_labelled_net", _net_places),
    ("ttsynth.cli", "build_specification", "core.build_specification", None),
    ("ttsynth.cli", "synthesize", "synthesis.synthesize", _places_kept),
    ("ttsynth.cli", "is_enabled", "semantics.is_enabled", None),
    ("ttsynth.synthesis", "enumerate_minimal_regions", "regions.enumerate_minimal_regions", _regions_found),
    ("ttsynth.synthesis", "place_from_region", "synthesis.place_from_region", None),
    ("ttsynth.synthesis", "verify_region", "regions.verify_region", None),
    ("ttsynth.semantics", "find_token_trail", "semantics.find_token_trail", None),
    ("ttsynth.ilp", "solve", "ilp.solve", _model_size),
]


class Tracer:
    """Collects spans of one thread; `op` tags them with the operation."""

    def __init__(self):
        self.spans: list = []
        self.op: Optional[int] = None
        self._open: list = []
        self._originals: list = []

    def span(self, name: str, fn: Callable, note=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op, None]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, note in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.span(name, original, note))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def _op_values(spans: list, root: int, ops: list) -> dict:
    """Per-layer seconds and counts of one operation: `ops` are its spans and
    `root` is the index of its root span in `spans`."""
    root_name = spans[root][0]
    dur = lambda s: s[2] - s[1]

    def total(name):
        return sum(dur(s) for s in ops if s[0] == name)

    def total_prefix(prefix):
        return sum(dur(s) for s in ops if s[0].startswith(prefix))

    def noted(prefix, key):
        """Sum of a note over the spans whose call returned."""
        return sum(s[5][key] for s in ops if s[0].startswith(prefix) and s[5])

    solves = [s for s in ops if s[0] == "ilp.solve"]
    solve_s = sum(dur(s) for s in solves)
    root_children = sum(dur(s) for s in ops if s[3] == root)
    if root_name == "cli.synth":
        last = (solves[-1][5] if solves else None) or {"vars": 0, "rows": 0}
        enumerate_s = total("regions.enumerate_minimal_regions")
        place_s = total("synthesis.place_from_region")
        return {
            "ilp.solve_s": solve_s,
            "ilp.solve_max_s": max((dur(s) for s in solves), default=0.0),
            "ilp.solve_calls": len(solves),
            "ilp.vars": last["vars"],
            "ilp.rows": last["rows"],
            "regions.enumerate_s": enumerate_s,
            "regions.self_s": enumerate_s - solve_s,
            "regions.rounds": len(solves),
            "regions.found": noted("regions.enumerate_minimal_regions", "found"),
            "synthesis.place_from_region_s": place_s,
            "synthesis.verify_region_s": total("regions.verify_region"),
            "synthesis.self_s": total("synthesis.synthesize") - enumerate_s - place_s,
            "synthesis.places_kept": noted("synthesis.synthesize", "kept"),
            "io.parse_s": total_prefix("io.parse_"),
            "io.write_s": total("io.write_pnml") + total("io.export_dot"),
            "convert.s": total_prefix("convert."),
            "convert.places": noted("convert.", "places"),
            "core.build_specification_s": total("core.build_specification"),
            "cli.synth_self_s": dur(spans[root]) - root_children,
        }
    return {
        "ilp.check_solve_s": solve_s,
        "ilp.check_solve_calls": len(solves),
        "semantics.is_enabled_s": total("semantics.is_enabled"),
        "semantics.self_s": total("semantics.is_enabled") - solve_s,
        "semantics.find_token_trail_calls": sum(1 for s in ops if s[0] == "semantics.find_token_trail"),
        "io.check_parse_s": total_prefix("io.parse_"),
        "convert.check_s": total_prefix("convert."),
        "cli.check_self_s": dur(spans[root]) - root_children,
    }


#: Per-layer self times whose sum is the whole operation, by root span.
SELF_PARTS = {
    "cli.synth": [
        "cli.synth_self_s", "io.parse_s", "convert.s", "core.build_specification_s",
        "regions.self_s", "ilp.solve_s", "synthesis.place_from_region_s",
        "synthesis.self_s", "io.write_s",
    ],
    "cli.check": [
        "cli.check_self_s", "io.check_parse_s", "convert.check_s", "semantics.self_s",
        "ilp.check_solve_s",
    ],
}


def layer_metrics(spans: list) -> dict:
    """Median over operations of each per-layer value, plus the medians of
    the traced operations and how well the layer self times add up to them."""
    by_op: dict = {}
    for s in spans:
        by_op.setdefault(s[4], []).append(s)
    per_op: dict = {}
    roots: dict = {}
    for i, s in enumerate(spans):
        if s[3] is None and s[0] in SELF_PARTS:
            roots.setdefault(s[0], []).append(s[2] - s[1])
            for key, value in _op_values(spans, i, by_op[s[4]]).items():
                per_op.setdefault(key, []).append(value)
    metrics = {key: statistics.median(values) for key, values in per_op.items()}
    for root, parts in SELF_PARTS.items():
        op_median = statistics.median(roots[root])
        short = root.split(".")[1]
        metrics[f"trace.{short}_s"] = op_median
        metrics[f"trace.{short}_layer_sum_ratio"] = sum(metrics[p] for p in parts) / op_median
    return metrics
