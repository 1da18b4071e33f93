"""Command-line surface: synth, regions, check, convert.

Inputs are dispatched by extension (.pnml, .traces, .sg, .run); diagnostics
go to stderr, artifacts to files, tables and verdicts to stdout. Exit codes:
0 success, 1 check found a place without a witness, 2 parse or validation
error, 3 the region cap truncated the result (which is still written).
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import io as net_io
from .convert import run_to_labelled_net, state_graph_to_labelled_net, trace_to_labelled_net
from .core import LabelledNet, build_specification
from .regions import MODES, RegionProblem, enumerate_minimal_regions
from .semantics import is_enabled
from .synthesis import synthesize

EXIT_OK = 0
EXIT_NOT_SHOWN = 1
EXIT_ERROR = 2
EXIT_TRUNCATED = 3


def _load_nets(path: Path) -> list[LabelledNet]:
    data = path.read_bytes()
    suffix = path.suffix.lower()
    if suffix == ".pnml":
        return [net_io.parse_pnml(data)]
    if suffix == ".traces":
        return [trace_to_labelled_net(t) for t in net_io.parse_traces(data)]
    if suffix == ".sg":
        return [state_graph_to_labelled_net(net_io.parse_state_graph(data))]
    if suffix == ".run":
        return [run_to_labelled_net(net_io.parse_run(data))]
    raise ValueError(f"unrecognized input extension: {path.name!r} (use .pnml, .traces, .sg or .run)")


def _build_problem(args) -> RegionProblem:
    nets = []
    for name in args.inputs:
        nets.extend(_load_nets(Path(name)))
    if not nets:
        raise ValueError("empty specification: inputs contain no nets")
    spec = build_specification(nets)
    return RegionProblem(spec, args.k, args.mode, args.max_regions)


def _write_all(documents: Sequence[tuple[Path, bytes]]) -> None:
    """Write every document, and none when one of them cannot be staged.

    A target is written through its symlinks: the link stays, and the file
    it points to gets the bytes. A regular or missing file is staged in a
    new temporary file next to it, with the mode of the file it replaces,
    and renamed into place at the end. Any other target (a FIFO, a device)
    cannot be replaced by a rename; it is opened and written directly once
    every document is staged, before the renames. Two documents whose
    targets resolve to one file are an error, raised before anything is
    staged.
    """
    paths = [Path(os.path.realpath(target)) for target, _ in documents]
    first_of: dict[Path, Path] = {}
    for (target, _), path in zip(documents, paths):
        if path in first_of:
            raise ValueError(f"outputs {str(first_of[path])!r} and {str(target)!r} are one file: {str(path)!r}")
        first_of[path] = target
    staged: list[tuple[Path, Path]] = []
    direct: list[tuple[Path, bytes]] = []
    try:
        for (target, payload), path in zip(documents, paths):
            try:
                mode = path.stat().st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and stat.S_ISDIR(mode):
                raise IsADirectoryError(f"output is a directory: {str(target)!r}")
            if mode is not None and not stat.S_ISREG(mode):
                direct.append((path, payload))
                continue
            tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
            with open(tmp, "xb") as fh:
                staged.append((tmp, path))
                fh.write(payload)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
        for path, payload in direct:
            with open(path, "wb") as fh:
                fh.write(payload)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _cmd_synth(args) -> int:
    problem = _build_problem(args)
    result = synthesize(problem)
    documents = [(Path(args.out), net_io.write_pnml(result))]
    if args.dot:
        documents.append((Path(args.dot), net_io.export_dot(result).encode("utf-8")))
    _write_all(documents)
    print(f"regions: {len(result.regions)}", file=sys.stderr)
    print(f"places: {len(result.places)}", file=sys.stderr)
    if result.truncated:
        print("warning: region enumeration truncated by --max-regions", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def _cmd_regions(args) -> int:
    problem = _build_problem(args)
    enumeration = enumerate_minimal_regions(problem)
    table = net_io.format_region_table(problem.spec.all_places(), enumeration.regions, args.format)
    sys.stdout.write(table)
    print(f"regions: {len(enumeration.regions)}", file=sys.stderr)
    return EXIT_OK


def _cmd_check(args) -> int:
    model = net_io.parse_pnml(Path(args.model).read_bytes())
    spec_nets = []
    for name in args.specs:
        spec_nets.extend(_load_nets(Path(name)))
    if not spec_nets:
        raise ValueError("empty specification: inputs contain no nets")
    # Every verdict first, so that an error prints no verdict line.
    verdicts = [is_enabled(model, spec_net, args.bound) for spec_net in spec_nets]
    for i, verdict in enumerate(verdicts, start=1):
        for place in model.net.places:
            if place in verdict.witnesses:
                print(f"net {i}: place {place}: enabled")
            else:
                print(f"net {i}: place {place}: not shown within bound")
    return EXIT_OK if all(verdicts) else EXIT_NOT_SHOWN


def _cmd_convert(args) -> int:
    path = Path(args.input)
    nets = _load_nets(path)
    if not nets:
        raise ValueError("empty specification: input contains no nets")
    out = Path(args.out)
    if len(nets) == 1:
        documents = [(out, net_io.write_pnml(nets[0]))]
    else:
        documents = [
            (out.with_name(f"{out.stem}-{i}{out.suffix}"), net_io.write_pnml(ln))
            for i, ln in enumerate(nets, start=1)
        ]
    _write_all(documents)
    for target, _ in documents:
        print(f"wrote {target}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttsynth",
        description="Synthesize a Petri net that simulates every net of a labelled-net specification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("inputs", nargs="+", metavar="INPUT")
    problem.add_argument("-k", type=int, default=1, help="region bound (default 1)")
    problem.add_argument("--mode", choices=MODES, default="synthesis")

    synth = sub.add_parser("synth", parents=[problem], help="enumerate minimal regions and write the synthesized net")
    synth.add_argument("--max-regions", type=int, default=None, dest="max_regions")
    synth.add_argument("-o", "--out", required=True, help="output PNML file")
    synth.add_argument("--dot", default=None, help="also write a DOT rendering")
    synth.set_defaults(func=_cmd_synth)

    regions = sub.add_parser("regions", parents=[problem], help="print the minimal-region table")
    regions.add_argument("--format", choices=["table", "json"], default="table")
    regions.set_defaults(func=_cmd_regions, max_regions=None)

    check = sub.add_parser("check", help="check that a model can simulate each specification net")
    check.add_argument("specs", nargs="+", metavar="SPEC")
    check.add_argument("--model", required=True, help="model PNML file")
    check.add_argument("--bound", type=int, default=None, help="token trail search bound")
    check.set_defaults(func=_cmd_check)

    convert = sub.add_parser("convert", help="convert a trace/state-graph/run file to PNML")
    convert.add_argument("input", metavar="INPUT")
    convert.add_argument("-o", "--out", required=True, help="output PNML file")
    convert.set_defaults(func=_cmd_convert)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our error code
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
