"""Seeded input generators, each with the net that generated its behaviour.

Every workload is a labelled-net specification whose expected synthesis
result is known without running ttsynth: the minimal regions of these
inputs induce exactly the places of the net that produced the behaviour.
So each generator returns the input file and that net's places, written as
(consume, produce, initial) signatures over labels.

The seed only renames: it permutes label names and state ids. The problem
structure, including the order of traces and arcs, is fixed, because the
branch-and-bound work depends on that order: with the traces of
`interleave` shuffled per seed, the number of `ilp._propagate` calls per
`synth` ranged from 431 to 569 over seeds 1-5, a spread wider than any
regression the benchmark should see. Two seeds therefore give problems of
identical size and identical solver work, differing only in identifiers.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

#: (consume, produce, initial); consume and produce are sorted (label, weight) pairs.
Signature = tuple


def signature(consume: dict, produce: dict, initial: int) -> Signature:
    return (tuple(sorted(consume.items())), tuple(sorted(produce.items())), initial)


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    filename: str
    text: str
    #: Signatures of the generating net's places, sorted.
    expected: tuple
    #: Number of labelled nets the input converts to; `check` reports on each.
    nets: int
    params: dict


def _sequence_places(labels: list) -> list:
    """Places of a sequential net firing `labels` once each, in order."""
    return [
        signature(
            {labels[i]: 1} if i < len(labels) else {},
            {labels[i - 1]: 1} if i > 0 else {},
            1 if i == 0 else 0,
        )
        for i in range(len(labels) + 1)
    ]


def chain(seed: int, length: int = 60, k: int = 2) -> Workload:
    """One trace of `length` distinct labels; the seed permutes their names."""
    labels = [f"t{i:02d}" for i in range(length)]
    random.Random(seed).shuffle(labels)
    return Workload(
        name="chain",
        k=k,
        filename="chain.traces",
        text=" ".join(labels) + "\n",
        expected=tuple(sorted(_sequence_places(labels))),
        nets=1,
        params={"traces": 1, "labels": length, "spec_places": length + 1, "k": k},
    )


def interleave(seed: int, length: int = 4, k: int = 1) -> Workload:
    """Every interleaving of two concurrent chains of `length` labels each,
    one trace per line in lexicographic order of the first chain's positions;
    the seed permutes the label names."""
    names = [f"l{i}" for i in range(2 * length)]
    random.Random(seed).shuffle(names)
    left, right = names[:length], names[length:]
    traces = []
    for slots in itertools.combinations(range(2 * length), length):
        a, b = iter(left), iter(right)
        traces.append([next(a) if i in slots else next(b) for i in range(2 * length)])
    return Workload(
        name="interleave",
        k=k,
        filename="interleave.traces",
        text="".join(" ".join(t) + "\n" for t in traces),
        expected=tuple(sorted(_sequence_places(left) + _sequence_places(right))),
        nets=len(traces),
        params={
            "traces": len(traces),
            "labels": 2 * length,
            "spec_places": len(traces) * (2 * length + 1),
            "k": k,
        },
    )


def statespace(seed: int, cycles: int = 6, k: int = 1) -> Workload:
    """Reachability graph of `cycles` independent two-state cycles.

    State v is a bit vector; bit i off enables label up_i, on enables
    down_i. Arcs are listed by state, then by cycle; the seed permutes the
    state ids and the label names.
    """
    rng = random.Random(seed)
    states = [f"s{i:02d}" for i in range(2**cycles)]
    rng.shuffle(states)
    labels = [f"x{i:02d}" for i in range(2 * cycles)]
    rng.shuffle(labels)
    up, down = labels[:cycles], labels[cycles:]
    arcs = []
    for v in range(2**cycles):
        for i in range(cycles):
            on = (v >> i) & 1
            arcs.append({"from": states[v], "label": down[i] if on else up[i], "to": states[v ^ (1 << i)]})
    expected = []
    for i in range(cycles):
        expected.append(signature({up[i]: 1}, {down[i]: 1}, 1))  # cycle i is off
        expected.append(signature({down[i]: 1}, {up[i]: 1}, 0))  # cycle i is on
    return Workload(
        name="statespace",
        k=k,
        filename="statespace.sg",
        text=json.dumps({"initial": states[0], "arcs": arcs}) + "\n",
        expected=tuple(sorted(expected)),
        nets=1,
        params={"states": 2**cycles, "arcs": len(arcs), "labels": 2 * cycles, "k": k},
    )


GENERATORS = {"chain": chain, "interleave": interleave, "statespace": statespace}
