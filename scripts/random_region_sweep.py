#!/usr/bin/env python3
"""Cross-check region enumeration against exhaustive search on random specs.

Generates seeded random specifications, enumerates minimal regions through
the ILP path, recomputes the set by sweeping every marking up to k, and
reports any mismatch. Useful as a quick confidence run after solver changes.
After the random nets come a quarter as many trace logs and a quarter as
many sets of converted random state graphs, each drawn from a separate
stream (so the random nets of a seed stay the same). Their places share
Parikh classes, within a net and across nets.

With `--mode discovery` both sides also keep every net's final place
unmarked. A net without a unique final place (no outgoing arcs) has its
last place pinned as final, on both sides; such nets are counted.

    python3 scripts/random_region_sweep.py --specs 200 --seed 7
    python3 scripts/random_region_sweep.py --mode discovery --specs 200 --seed 7
"""

import argparse
import itertools
import random
import time

from ttsynth.convert import state_graph_to_labelled_net, trace_to_labelled_net
from ttsynth.core import LabelledNet, Multiset, PetriNet, Specification, StateGraph, build_specification
from ttsynth.regions import MODES, Region, RegionProblem, discovery_final_places, enumerate_minimal_regions, verify_region


def random_net(rng: random.Random, prefix: str, n_places: int, n_transitions: int, labels: str) -> LabelledNet:
    places = tuple(f"{prefix}p{i}" for i in range(n_places))
    transitions = tuple(f"{prefix}t{i}" for i in range(n_transitions))
    arcs = {}
    for t in transitions:
        for p in places:
            if rng.random() < 0.35:
                arcs[(p, t)] = rng.randint(1, 2)
            if rng.random() < 0.35:
                arcs[(t, p)] = rng.randint(1, 2)
    initial = {p: rng.randint(1, 2) for p in places if rng.random() < 0.4}
    labelling = {t: rng.choice(labels) for t in transitions}
    return LabelledNet(PetriNet(places, transitions, Multiset(arcs)), Multiset(initial), labelling)


def random_log(rng: random.Random, max_places: int) -> list[LabelledNet]:
    """Two to four traces of up to three labels over at most `max_places`
    places in all; a trace that would exceed it ends the log."""
    labels = "abc"[: rng.randint(1, 3)]
    nets = []
    places = 0
    for _ in range(rng.randint(2, 4)):
        trace = [rng.choice(labels) for _ in range(rng.randint(1, 3))]
        if nets and places + len(trace) + 1 > max_places:
            break
        nets.append(trace_to_labelled_net(trace))
        places += len(trace) + 1
    return nets


def random_state_graphs(rng: random.Random, max_places: int) -> list[LabelledNet]:
    """One to three converted state graphs of up to four states over at
    most `max_places` states in all; a graph that would exceed it ends the
    list. Every state is reachable along spanning arcs; extra arcs add
    branches, cycles and self-loops."""
    labels = "abc"[: rng.randint(1, 3)]
    nets = []
    places = 0
    for _ in range(rng.randint(1, 3)):
        states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
        if nets and places + len(states) > max_places:
            break
        arcs = {(states[rng.randrange(i)], rng.choice(labels), states[i]) for i in range(1, len(states))}
        for _ in range(rng.randint(0, 3)):
            arcs.add((rng.choice(states), rng.choice(labels), rng.choice(states)))
        nets.append(state_graph_to_labelled_net(StateGraph(states, states[0], tuple(sorted(arcs)))))
        places += len(states)
    return nets


def final_place_overrides(spec: Specification) -> dict[int, str]:
    """Each net's last place, for the nets without a unique final place."""
    overrides = {}
    for idx, ln in enumerate(spec.nets):
        try:
            discovery_final_places(Specification((ln,)))
        except ValueError:
            overrides[idx] = ln.net.places[-1]
    return overrides


def sweep_minimal(spec, k, unmarked=()):
    """The minimal nonzero regions up to k that leave `unmarked` places at 0."""
    places = spec.all_places()
    feasible = []
    for point in itertools.product(range(k + 1), repeat=len(places)):
        if not any(point):
            continue
        marking = Multiset({p: v for p, v in zip(places, point) if v})
        if any(p in marking for p in unmarked):
            continue
        if verify_region(spec, Region(marking, k)):
            feasible.append(marking)
    return {m for m in feasible if not any(o != m and o <= m for o in feasible)}


def cases(args, n_logs: int):
    """(nets, k) for `args.specs` random specs, then `n_logs` trace logs,
    then `n_logs` sets of state graphs."""
    rng = random.Random(args.seed)
    for _ in range(args.specs):
        n_nets = rng.randint(1, 3)
        labels = "abc"[: rng.randint(1, 3)]
        nets = []
        places_left = rng.randint(n_nets, args.max_places)
        for i in range(n_nets):
            remaining = n_nets - i - 1
            n_p = places_left - remaining if remaining == 0 else rng.randint(1, places_left - remaining)
            nets.append(random_net(rng, f"n{i}", n_p, rng.randint(0, 3), labels))
            places_left -= n_p
        yield nets, rng.randint(1, args.max_k)
    log_rng = random.Random(f"logs-{args.seed}")
    for _ in range(n_logs):
        k = log_rng.randint(1, args.max_k)
        # the sweep visits (k + 1) ** places markings
        yield random_log(log_rng, 10 if k == 1 else 7), k
    graph_rng = random.Random(f"graphs-{args.seed}")
    for _ in range(n_logs):
        k = graph_rng.randint(1, args.max_k)
        yield random_state_graphs(graph_rng, 10 if k == 1 else 7), k


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--specs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-places", type=int, default=6)
    parser.add_argument("--max-k", type=int, default=2)
    parser.add_argument("--mode", choices=MODES, default="synthesis")
    args = parser.parse_args()

    n_logs = args.specs // 4
    mismatches = 0
    pinned = 0
    regions_total = 0
    started = time.perf_counter()
    for trial, (nets, k) in enumerate(cases(args, n_logs)):
        spec = build_specification(nets)
        unmarked = ()
        overrides = None
        if args.mode == "discovery":
            overrides = final_place_overrides(spec)
            pinned += len(overrides)
            unmarked = tuple(discovery_final_places(spec, overrides).values())
        problem = RegionProblem(spec, k, args.mode, final_places=overrides)
        got = {r.marking for r in enumerate_minimal_regions(problem).regions}
        want = sweep_minimal(spec, k, unmarked)
        regions_total += len(got)
        if got != want:
            mismatches += 1
            print(f"MISMATCH at trial {trial}: ilp={sorted(map(repr, got))} sweep={sorted(map(repr, want))}")
    elapsed = time.perf_counter() - started
    print(
        f"{args.mode}: {args.specs} specs, {n_logs} trace logs and {n_logs} state-graph sets, "
        f"{pinned} nets pinned to their last place, {regions_total} regions, {mismatches} mismatches, {elapsed:.2f}s"
    )
    raise SystemExit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
