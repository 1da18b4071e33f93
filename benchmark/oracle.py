"""Correctness checks on the CLI's artifacts, independent of ttsynth.

The PNML and DOT files are read here with the standard library only, never
with `ttsynth.io`, and compared against the generating net's places that
`workloads` knows. Each function returns a list of problems; empty means
the operation is correct.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter

from workloads import Workload, signature


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _text(elem: ET.Element, child: str):
    for node in elem:
        if _local(node.tag) == child:
            for sub in node:
                if _local(sub.tag) == "text":
                    return (sub.text or "").strip()
    return None


def read_pnml(data: bytes):
    """Places, transition labels and arcs of the one net in a PNML document.

    Returns (initial marking by place, label by transition, {(src, tgt): weight}).
    """
    root = ET.fromstring(data)
    initial: dict = {}
    labels: dict = {}
    arcs: dict = {}
    for node in root.iter():
        tag = _local(node.tag)
        if tag == "place":
            initial[node.get("id")] = int(_text(node, "initialMarking") or 0)
        elif tag == "transition":
            labels[node.get("id")] = _text(node, "name") or node.get("id")
        elif tag == "arc":
            key = (node.get("source"), node.get("target"))
            arcs[key] = arcs.get(key, 0) + int(_text(node, "inscription") or 1)
    return initial, labels, arcs


def model_places(pnml: bytes) -> list:
    """Place ids of a PNML document; empty when it cannot be read."""
    try:
        return list(read_pnml(pnml)[0])
    except (ET.ParseError, ValueError):
        return []


def place_signatures(initial: dict, labels: dict, arcs: dict) -> list:
    """One (consume, produce, initial) signature over labels per place."""
    consume = {p: {} for p in initial}
    produce = {p: {} for p in initial}
    for (src, tgt), w in arcs.items():
        if src in initial:
            consume[src][labels[tgt]] = w
        else:
            produce[tgt][labels[src]] = w
    return [signature(consume[p], produce[p], initial[p]) for p in initial]


_DOT_ARC = re.compile(r'^\s*"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)"(?: \[label="(\d+)"\])?;$')


def dot_arcs(text: str) -> dict:
    arcs = {}
    for line in text.splitlines():
        m = _DOT_ARC.match(line)
        if m:
            arcs[(m.group(1), m.group(2))] = int(m.group(3) or 1)
    return arcs


def check_synth(workload: Workload, code: int, pnml: bytes, dot: str) -> list:
    """`synth` exited 0 and wrote exactly the generating net's places, once
    each, and a DOT file with the same arcs."""
    if code != 0:
        return [f"synth exited {code}"]
    try:
        initial, labels, arcs = read_pnml(pnml)
        signatures = place_signatures(initial, labels, arcs)
    except (ET.ParseError, ValueError, KeyError) as exc:
        return [f"unreadable PNML: {exc!r}"]
    problems = []
    got, want = Counter(signatures), Counter(workload.expected)
    if got != want:
        problems.append(
            f"places differ from the generating net: {sum((got - want).values())} extra, "
            f"{sum((want - got).values())} missing"
        )
    if dot_arcs(dot) != arcs:
        problems.append("DOT arcs differ from PNML arcs")
    return problems


_VERDICT = re.compile(r"^net (\d+): place (\S+): (enabled|not shown within bound)$")


def check_check(workload: Workload, code: int, stdout: str, places: list) -> list:
    """`check` exited 0 and reported every model place enabled in every net."""
    problems = [] if code == 0 else [f"check exited {code}"]
    seen = set()
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if not m or m.group(3) != "enabled":
            problems.append(f"unexpected verdict line: {line!r}")
            continue
        seen.add((int(m.group(1)), m.group(2)))
    want = {(i, p) for i in range(1, workload.nets + 1) for p in places}
    if seen != want:
        problems.append(f"verdicts cover {len(seen)} of {len(want)} (net, place) pairs")
    return problems
