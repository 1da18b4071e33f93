"""File formats: PNML labelled nets, trace files, state-graph and run files
(JSON), DOT export, and the region table.

The PNML subset is the place/transition dialect: place initialMarking,
transition name (used as the label), arc inscription (weight, default 1).
Graphics are skipped, tool-specific extensions are skipped with a warning,
and structural elements outside the subset are hard errors. Identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import re
import warnings
import xml.etree.ElementTree as ET
from typing import Iterable, Sequence, Union

from .core import LabelledNet, Multiset, PetriNet, StateGraph
from .regions import Region
from .semantics import Run
from .synthesis import SynthesisResult

PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
PTNET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"
TOOL_NAME = "ttsynth"


class ParseError(ValueError):
    """Malformed input file."""


#: A character outside XML 1.0's Char production: no PNML can hold it.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _check_xml_chars(text: str, context: str) -> None:
    found = _NOT_XML_CHAR.search(text)
    if found:
        raise ParseError(f"{context}: character {found.group()!r} cannot be written to XML")


def _check_label(label: str, context: str) -> None:
    """A label must not begin or end with whitespace: PNML readers strip it."""
    if label != label.strip():
        raise ParseError(f"{context}: label {label!r} begins or ends with whitespace")


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _text_of(elem: ET.Element, child: str) -> str | None:
    for node in elem:
        if _local(node.tag) == child:
            for sub in node:
                if _local(sub.tag) == "text":
                    return (sub.text or "").strip()
            return (node.text or "").strip()
    return None


def _int_text(elem: ET.Element, child: str, context: str) -> int | None:
    raw = _text_of(elem, child)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"{context}: {child} is not an integer: {raw!r}") from None
    return value


_SKIP_SILENT = {"name", "graphics"}


def _check_children(elem: ET.Element, known: set[str], context: str) -> None:
    for node in elem:
        tag = _local(node.tag)
        if tag in known or tag in _SKIP_SILENT:
            continue
        if tag == "toolspecific":
            if node.get("tool") != TOOL_NAME:
                warnings.warn(f"ignoring tool-specific element in {context} (tool={node.get('tool')!r})")
            continue
        raise ParseError(f"{context}: cannot map element <{tag}>")


def parse_pnml(data: bytes) -> LabelledNet:
    """Read one place/transition net; the transition label is its name text
    when present, else its id, so equally named transitions share a label.
    An id read as a label must not begin or end with whitespace."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    if _local(root.tag) != "pnml":
        raise ParseError(f"expected <pnml> root, got <{_local(root.tag)}>")
    nets = [node for node in root if _local(node.tag) == "net"]
    if not nets:
        raise ParseError("no <net> element")
    if len(nets) > 1:
        raise ParseError("multiple <net> elements; one net per file")
    net_elem = nets[0]

    places: list[str] = []
    transitions: list[str] = []
    labels: dict[str, str] = {}
    marking: dict[str, int] = {}
    arcs: list[tuple[str, str, int, str]] = []

    # Pages nest to any depth, so they are walked with a stack of child
    # iterators instead of by recursion; a page is walked where it stands.
    contents = {"page", "place", "transition", "arc"}
    _check_children(net_elem, contents, f"net {net_elem.get('id')!r}")
    stack = [iter(net_elem)]
    while stack:
        for node in stack[-1]:
            tag = _local(node.tag)
            if tag == "page":
                _check_children(node, contents, f"page {node.get('id')!r}")
                stack.append(iter(node))
                break
            elif tag == "place":
                pid = node.get("id")
                if not pid:
                    raise ParseError("place without id")
                _check_children(node, {"initialMarking"}, f"place {pid!r}")
                places.append(pid)
                tokens = _int_text(node, "initialMarking", f"place {pid!r}")
                if tokens is not None:
                    if tokens < 0:
                        raise ParseError(f"place {pid!r}: negative initial marking")
                    if tokens:
                        marking[pid] = tokens
            elif tag == "transition":
                tid = node.get("id")
                if not tid:
                    raise ParseError("transition without id")
                _check_children(node, set(), f"transition {tid!r}")
                transitions.append(tid)
                labels[tid] = _text_of(node, "name") or tid
                _check_label(labels[tid], f"transition {tid!r}")
            elif tag == "arc":
                aid = node.get("id") or f"arc#{len(arcs)}"
                src, tgt = node.get("source"), node.get("target")
                if not src or not tgt:
                    raise ParseError(f"arc {aid!r}: missing source/target")
                _check_children(node, {"inscription"}, f"arc {aid!r}")
                weight = _int_text(node, "inscription", f"arc {aid!r}")
                if weight is None:
                    weight = 1
                if weight < 1:
                    raise ParseError(f"arc {aid!r}: weight must be >= 1")
                arcs.append((src, tgt, weight, aid))
        else:
            stack.pop()

    known = set(places) | set(transitions)
    arc_weights: dict[tuple[str, str], int] = {}
    for src, tgt, weight, aid in arcs:
        if src not in known or tgt not in known:
            missing = src if src not in known else tgt
            raise ParseError(f"arc {aid!r}: dangling reference {missing!r}")
        arc_weights[(src, tgt)] = arc_weights.get((src, tgt), 0) + weight
    try:
        net = PetriNet(tuple(places), tuple(transitions), Multiset(arc_weights))
        return LabelledNet(net, Multiset(marking), labels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _as_labelled(obj: Union[LabelledNet, SynthesisResult]) -> LabelledNet:
    if isinstance(obj, SynthesisResult):
        return obj.net
    if isinstance(obj, LabelledNet):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_pnml(obj: Union[LabelledNet, SynthesisResult]) -> bytes:
    """Emit the PNML subset; parsing the output reproduces the input net.

    Synthesis results carry one tool-specific annotation per place naming
    its source region; other tools can ignore it. The text is written
    directly, laid out and escaped as ElementTree writes it after
    ET.indent, except that a carriage return in text content is written
    as &#13;, so that it reads back as itself.
    """
    source_regions: dict[str, Region] = {}
    if isinstance(obj, SynthesisResult):
        for pid, place in zip(obj.net.net.places, obj.places):
            if place.source_region is not None:
                source_regions[pid] = place.source_region
    ln = _as_labelled(obj)

    lines = []
    for pid in ln.net.places:
        inner = []
        if ln.initial[pid]:
            inner += ["        <initialMarking>", f"          <text>{ln.initial[pid]}</text>", "        </initialMarking>"]
        if pid in source_regions:
            marking = source_regions[pid].marking
            text = " ".join(f"{p}={marking[p]}" for p in marking)
            inner.append(_leaf("        ", "toolspecific", f' tool="{TOOL_NAME}" version="1"', text))
        lines += _element("      ", "place", f' id="{_escape_attr(pid)}"', inner)
    for tid in ln.net.transitions:
        name = ["        <name>", _leaf("          ", "text", "", ln.labels[tid]), "        </name>"]
        lines += _element("      ", "transition", f' id="{_escape_attr(tid)}"', name)
    for idx, ((src, tgt), weight) in enumerate(sorted(ln.net.arcs.items()), start=1):
        inscription = []
        if weight > 1:
            inscription = ["        <inscription>", f"          <text>{weight}</text>", "        </inscription>"]
        ends = f' id="a{idx}" source="{_escape_attr(src)}" target="{_escape_attr(tgt)}"'
        lines += _element("      ", "arc", ends, inscription)
    head = ["<?xml version='1.0' encoding='utf-8'?>", f'<pnml xmlns="{PNML_NS}">', f'  <net id="net1" type="{PTNET_TYPE}">']
    lines = head + _element("    ", "page", ' id="page1"', lines) + ["  </net>", "</pnml>", ""]
    return "\n".join(lines).encode("utf-8", "xmlcharrefreplace")


def _escape_text(s: str) -> str:
    # A raw carriage return would be read back as a line feed.
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


def _escape_attr(s: str) -> str:
    return _escape_text(s).replace('"', "&quot;").replace("\n", "&#10;").replace("\t", "&#09;")


def _leaf(indent: str, tag: str, attrs: str, text: str) -> str:
    """One element line holding escaped `text`, or empty when it is."""
    return f"{indent}<{tag}{attrs}>{_escape_text(text)}</{tag}>" if text else f"{indent}<{tag}{attrs} />"


def _element(indent: str, tag: str, attrs: str, inner: list) -> list:
    """The lines of an element around the already indented `inner` lines."""
    if not inner:
        return [f"{indent}<{tag}{attrs} />"]
    return [f"{indent}<{tag}{attrs}>", *inner, f"{indent}</{tag}>"]


def parse_traces(data: bytes) -> list[tuple[str, ...]]:
    """One whitespace-separated trace per line; '#' lines and blanks ignored.
    The text must hold only characters that XML 1.0 allows."""
    text = data.decode("utf-8")
    _check_xml_chars(text, "trace file")
    traces = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        traces.append(tuple(line.split()))
    return traces


def parse_state_graph(data: bytes) -> StateGraph:
    """JSON document {"initial": id, "arcs": [{"from","label","to"}, ...]};
    states are inferred and must all be reachable from the initial one.
    State ids and labels must not be empty or hold a character that XML
    1.0 does not allow, and a label must not begin or end with whitespace,
    which PNML readers strip from it."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed state graph: {exc}") from None
    if not isinstance(doc, dict) or "initial" not in doc:
        raise ParseError("state graph needs an 'initial' field")
    initial = doc["initial"]
    if not isinstance(initial, str) or not initial:
        raise ParseError("'initial' must be a state identifier")
    _check_xml_chars(initial, "'initial'")
    raw_arcs = doc.get("arcs", [])
    if not isinstance(raw_arcs, list):
        raise ParseError("'arcs' must be a list")
    states: dict[str, None] = {initial: None}
    arcs = []
    for i, entry in enumerate(raw_arcs):
        if not isinstance(entry, dict) or not {"from", "label", "to"} <= set(entry):
            raise ParseError(f"arc {i}: needs 'from', 'label' and 'to'")
        src, label, tgt = entry["from"], entry["label"], entry["to"]
        if not all(isinstance(x, str) for x in (src, label, tgt)):
            raise ParseError(f"arc {i}: fields must be strings")
        if not (src and label and tgt):
            raise ParseError(f"arc {i}: empty state id or label")
        for x in (src, label, tgt):
            _check_xml_chars(x, f"arc {i}")
        _check_label(label, f"arc {i}")
        states.setdefault(src, None)
        states.setdefault(tgt, None)
        arcs.append((src, label, tgt))
    try:
        sg = StateGraph(tuple(states), initial, tuple(arcs))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return sg


def parse_run(data: bytes) -> Run:
    """JSON document {"events": {id: label, ...}, "order": [[a, b], ...]};
    event ids and labels follow the rules of state ids and labels."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed run: {exc}") from None
    if not isinstance(doc, dict) or "events" not in doc:
        raise ParseError("run needs an 'events' field")
    events = doc["events"]
    if not isinstance(events, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in events.items()
    ):
        raise ParseError("'events' must map event ids to labels")
    if "" in events or "" in events.values():
        raise ParseError("empty event id or label")
    for event, label in events.items():
        for x in (event, label):
            _check_xml_chars(x, f"event {event!r}")
        _check_label(label, f"event {event!r}")
    raw_order = doc.get("order", [])
    if not isinstance(raw_order, list):
        raise ParseError("'order' must be a list of pairs")
    order = []
    for i, pair in enumerate(raw_order):
        if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
            raise ParseError(f"order entry {i}: expected a pair of event ids")
        order.append((pair[0], pair[1]))
    try:
        return Run(tuple(events), tuple(order), events)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_quote(s: str) -> str:
    return '"' + _dot_escape(s) + '"'


def export_dot(obj: Union[LabelledNet, SynthesisResult]) -> str:
    """Graphviz text: boxes for transitions (showing the label), circles for
    places (showing tokens), arc weights annotated when above 1."""
    ln = _as_labelled(obj)
    lines = ["digraph net {", "  rankdir=LR;"]
    for pid in ln.net.places:
        tokens = ln.initial[pid]
        label = f'"{_dot_escape(pid)}\\n{tokens}"' if tokens else _dot_quote(pid)
        lines.append(f"  {_dot_quote(pid)} [shape=circle, label={label}];")
    for tid in ln.net.transitions:
        lines.append(f"  {_dot_quote(tid)} [shape=box, label={_dot_quote(ln.labels[tid])}];")
    for (src, tgt), weight in sorted(ln.net.arcs.items()):
        note = f" [label={_dot_quote(str(weight))}]" if weight > 1 else ""
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(tgt)}{note};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_region_table(place_ids: Sequence[str], regions: Iterable[Region], fmt: str = "table") -> str:
    """Render regions as rows over the place columns (ingestion order)."""
    regions = list(regions)
    if fmt == "json":
        rows = [{p: r.marking[p] for p in place_ids} for r in regions]
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown format: {fmt!r}")
    widths = [max(len(p), max((len(str(r.marking[p])) for r in regions), default=1)) for p in place_ids]
    header = "  ".join(p.rjust(w) for p, w in zip(place_ids, widths))
    lines = [header]
    for r in regions:
        lines.append("  ".join(str(r.marking[p]).rjust(w) for p, w in zip(place_ids, widths)))
    return "\n".join(lines) + "\n"
