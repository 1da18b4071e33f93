"""Translate state graphs, partially ordered runs, and traces into labelled
nets, so one synthesis pipeline serves every input style."""

from __future__ import annotations

import graphlib
from collections import Counter
from typing import Collection, Sequence, Tuple

from .core import LabelledNet, Multiset, PetriNet, StateGraph
from .semantics import SINK, SOURCE, Run, flow_domain

#: A trace is a non-empty sequence of activity labels.
Trace = Tuple[str, ...]


def _tuple_ids(tuples: Sequence[tuple[str, ...]], taken: Collection[str]) -> list[str]:
    """One id per distinct tuple: "(a,b,...)", or, where that would equal
    an id in `taken` or another tuple's id, the parts with backslashes and
    commas escaped, behind underscores, one more while any such id is taken
    ("_(a\\,b,c)"). So no two ids are equal or taken, and ids that would
    collide with nothing keep their plain spelling."""
    plain = [f"({','.join(parts)})" for parts in tuples]
    counts = Counter(plain)
    clashing = [counts[i] > 1 or i in taken for i in plain]
    escaped = ["(" + ",".join(p.replace("\\", "\\\\").replace(",", "\\,") for p in parts) + ")" for parts in tuples]
    stem = "_"
    while any(c and stem + e in taken for c, e in zip(clashing, escaped)):
        stem = "_" + stem
    return [stem + e if c else i for i, e, c in zip(plain, escaped, clashing)]


def state_graph_to_labelled_net(sg: StateGraph) -> LabelledNet:
    """States become places, arcs become transitions labelled by their label,
    and the initial state's place carries one token. Transitions are named
    "(source,label,target)" (see _tuple_ids)."""
    for s in sg.states:
        if not isinstance(s, str):
            raise ValueError("state graph states must be identifiers to convert")
    transitions = _tuple_ids(sg.arcs, set(sg.states))
    arcs = {a: 1 for (src, _, tgt), e in zip(sg.arcs, transitions) for a in ((src, e), (e, tgt))}
    labels = {e: label for (_, label, _), e in zip(sg.arcs, transitions)}
    net = PetriNet(tuple(sg.states), tuple(transitions), Multiset(arcs))
    return LabelledNet(net, Multiset({sg.initial: 1}), labels)


def check_run_wellformed(run: Run) -> bool:
    """True when the transitive closure of the order is irreflexive, i.e.
    the order relation has no cycle."""
    sorter = graphlib.TopologicalSorter()
    for u, v in run.order:
        sorter.add(v, u)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


def slot_place_ids(run: Run) -> dict[tuple[str, str], str]:
    """Place id of every run slot, "(u,v)" (see _tuple_ids), in flow_domain
    order: the map between compact token flows and token trails on the
    converted net."""
    slots = flow_domain(run)
    return dict(zip(slots, _tuple_ids(slots, set(run.events))))


def run_to_labelled_net(run: Run) -> LabelledNet:
    """One place per run slot, one transition per event.

    Every event consumes its source slot and all incoming order slots, and
    produces all outgoing order slots and its sink slot; the source slots
    make up the initial marking. Token distributions on the slots and
    markings of this net coincide one to one.
    """
    if not check_run_wellformed(run):
        raise ValueError("not a partial order")
    place_of = slot_place_ids(run)
    arcs: dict[tuple[str, str], int] = {}
    for v in run.events:
        arcs[(place_of[(SOURCE, v)], v)] = 1
        arcs[(v, place_of[(v, SINK)])] = 1
    for u, v in run.order:
        pid = place_of[(u, v)]
        arcs[(u, pid)] = 1
        arcs[(pid, v)] = 1
    net = PetriNet(tuple(place_of.values()), tuple(run.events), Multiset(arcs))
    initial = Multiset({place_of[(SOURCE, v)]: 1 for v in run.events})
    return LabelledNet(net, initial, dict(run.labels))


def trace_to_labelled_net(trace: Sequence[str]) -> LabelledNet:
    """Sequential chain c0 -> e1 -> c1 -> ... -> en -> cn with one initial
    token on c0; cn is the unique final place.

    The chain is valid by construction, so it is built as it is
    (LabelledNet._of), with the walk that core.state_machine_walk would
    find: every transition is a tree step, place i from place i - 1 at
    label i."""
    labels = tuple(trace)
    if not labels:
        raise ValueError("trace must not be empty")
    places = tuple(f"c{i}" for i in range(len(labels) + 1))
    transitions = tuple(f"e{i}" for i in range(1, len(labels) + 1))
    arcs: dict[tuple[str, str], int] = {}
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}
    for i, e in enumerate(transitions):
        arcs[(places[i], e)] = 1
        arcs[(e, places[i + 1])] = 1
        pre[e] = {places[i]: 1}
        post[e] = {places[i + 1]: 1}
    steps = tuple((i, i - 1, label, 1) for i, label in enumerate(labels, start=1))
    return LabelledNet._of(
        places, transitions, Multiset._of(arcs), pre, post,
        Multiset._of({places[0]: 1}), dict(zip(transitions, labels)), (0, steps, ()),
    )
