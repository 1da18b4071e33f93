"""Translate state graphs, partially ordered runs, and traces into labelled
nets, so one synthesis pipeline serves every input style."""

from __future__ import annotations

import graphlib
from typing import Sequence, Tuple

from .core import LabelledNet, Multiset, PetriNet, StateGraph, state_graph_reachable
from .semantics import SINK, SOURCE, Run

#: A trace is a non-empty sequence of activity labels.
Trace = Tuple[str, ...]


def state_graph_to_labelled_net(sg: StateGraph) -> LabelledNet:
    """States become places, arcs become transitions labelled by their label,
    and the initial state's place carries one token."""
    for s in sg.states:
        if not isinstance(s, str):
            raise ValueError("state graph states must be identifiers to convert")
    reachable = state_graph_reachable(sg)
    unreachable = [s for s in sg.states if s not in reachable]
    if unreachable:
        raise ValueError(f"unreachable state: {unreachable[0]!r}")
    arcs: dict[tuple[str, str], int] = {}
    transitions = []
    labels = {}
    for src, label, tgt in sg.arcs:
        e = f"({src},{label},{tgt})"
        transitions.append(e)
        labels[e] = label
        arcs[(src, e)] = arcs.get((src, e), 0) + 1
        arcs[(e, tgt)] = arcs.get((e, tgt), 0) + 1
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


def slot_place_id(slot: tuple[str, str]) -> str:
    """Place identifier for a run slot; the identity map between compact
    token flows and token trails on the converted net."""
    return f"({slot[0]},{slot[1]})"


def run_to_labelled_net(run: Run) -> LabelledNet:
    """One place per run slot, one transition per event.

    Every event consumes its source slot and all incoming order slots, and
    produces all outgoing order slots and its sink slot; the source slots
    make up the initial marking. Token distributions on the slots and
    markings of this net coincide one to one.
    """
    if not check_run_wellformed(run):
        raise ValueError("not a partial order")
    slots = (
        [(SOURCE, v) for v in run.events]
        + list(run.order)
        + [(v, SINK) for v in run.events]
    )
    places = tuple(slot_place_id(s) for s in slots)
    arcs: dict[tuple[str, str], int] = {}
    for v in run.events:
        arcs[(slot_place_id((SOURCE, v)), v)] = 1
        arcs[(v, slot_place_id((v, SINK)))] = 1
    for u, v in run.order:
        pid = slot_place_id((u, v))
        arcs[(u, pid)] = 1
        arcs[(pid, v)] = 1
    net = PetriNet(places, tuple(run.events), Multiset(arcs))
    initial = Multiset({slot_place_id((SOURCE, v)): 1 for v in run.events})
    return LabelledNet(net, initial, dict(run.labels))


def trace_to_labelled_net(trace: Sequence[str]) -> LabelledNet:
    """Sequential chain c0 -> e1 -> c1 -> ... -> en -> cn with one initial
    token on c0; cn is the unique final place."""
    labels = tuple(trace)
    if not labels:
        raise ValueError("trace must not be empty")
    places = tuple(f"c{i}" for i in range(len(labels) + 1))
    transitions = tuple(f"e{i}" for i in range(1, len(labels) + 1))
    arcs: dict[tuple[str, str], int] = {}
    for i, e in enumerate(transitions):
        arcs[(places[i], e)] = 1
        arcs[(e, places[i + 1])] = 1
    net = PetriNet(places, transitions, Multiset(arcs))
    return LabelledNet(net, Multiset({places[0]: 1}), dict(zip(transitions, labels)))
