"""Region enumeration: encode the region conditions as an ILP and list all
minimal nonzero regions up to a bound k, found in one search of its
minimal points (ilp.minimal_points) and put in discovery order.

A region is one token distribution over all places of the specification such
that equally labelled transitions have the same rise and all nets carry the
same initial token sum. Discovery mode additionally forces the final place
of every net to stay unmarked.

Places that carry the same value in every region share one variable. In a
connected state machine (core.state_machine_walk; traces and state graphs
convert to such nets) the value at a place is the initial sum plus the
label rises, counted with their sign, along the walk from the marked
place, and both are shared by all nets. So places with the same signed
label counts form one class (parikh_classes); on a trace these counts are
the Parikh vector of the prefix. Every other place is a class of its own.
build_base_model writes the model over these classes in one pass, and
discovery order weighs each class by its places (see _discovery_order),
so the regions and their order do not depend on the classes.

A class that no row but the seek row names (free: no rise, initial-sum or
final-place equality holds it) can take any value, so its unit point is a
region and the only minimal one that marks it; the search runs over the
other classes alone. Every class of a single trace with distinct labels is
free, so such a trace is not searched at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Mapping, Optional, Tuple

from . import ilp
from .core import Multiset, Specification, state_machine_walk
from .semantics import ConditionCheck, PlaceBehavior

MODES = ("synthesis", "discovery")


@dataclass(frozen=True)
class Region:
    """Token distribution over the union of all specification places,
    computed under (and bounded by) k."""

    marking: Multiset
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class RegionProblem:
    spec: Specification
    k: int
    mode: str = "synthesis"
    max_regions: Optional[int] = None
    final_places: Optional[Mapping[int, str]] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.max_regions is not None and self.max_regions < 1:
            raise ValueError("max_regions must be >= 1")
        if self.final_places is not None:
            object.__setattr__(self, "final_places", dict(self.final_places))


@dataclass(frozen=True)
class RegionEnumeration:
    regions: Tuple[Region, ...]
    truncated: bool = False


def discovery_final_places(spec: Specification, overrides: Optional[Mapping[int, str]] = None) -> dict[int, str]:
    """Per net (by position) the unique place with no outgoing arcs.

    An override pins the final place of a net explicitly; without one the
    structural criterion must single out exactly one place.
    """
    result: dict[int, str] = {}
    for idx, ln in enumerate(spec.nets):
        if overrides and idx in overrides:
            place = overrides[idx]
            if place not in ln.net.places:
                raise ValueError(f"final place override {place!r} is not a place of net {idx + 1}")
            result[idx] = place
            continue
        consumed = {p for ws in ln.net.pre.values() for p in ws}
        sinks = [p for p in ln.net.places if p not in consumed]
        if len(sinks) != 1:
            raise ValueError(f"no unique final place in net {idx + 1}: found {len(sinks)}")
        result[idx] = sinks[0]
    return result


def parikh_classes(spec: Specification) -> dict[str, str]:
    """Map every place, in place order, to the id of its class: the last
    member of the class in place order.

    Places of connected state machines (core.state_machine_walk) with the
    same signed label counts along the walk (each step adds its sign at its
    label; on a trace, the Parikh vector of the prefix) form one class,
    across all such nets; every other place is a class of its own. All
    members of a class carry the same value in every region: the walk
    starts at the net's initial sum, which the initial-sum equalities
    share between the nets, and each step adds its label's rise times its
    sign, and the rise equalities share the rises. The walk names places
    by position, so the counts are kept in a list in place order.
    """
    position = {label: i for i, label in enumerate(spec.alphabet())}
    key_of: dict[str, object] = {}
    for ln in spec.nets:
        walk = state_machine_walk(ln)
        if walk is None:
            key_of.update((p, p) for p in ln.net.places)
            continue
        root, steps, _ = walk
        counts: list = [None] * len(ln.net.places)
        counts[root] = (0,) * len(position)
        for place, parent, label, sign in steps:
            vector = list(counts[parent])
            vector[position[label]] += sign
            counts[place] = tuple(vector)
        key_of.update(zip(ln.net.places, counts))
    last = {key: p for p, key in key_of.items()}
    return {p: last[key] for p, key in key_of.items()}


def build_base_model(problem: RegionProblem, classes: Mapping[str, str]) -> ilp.IlpModel:
    """The region model that enumeration solves, built over `classes` (see
    parikh_classes) in one pass.

    One [0, k] variable per class, named after its last member and declared
    in place order. Then the rows, each summed per class as it is built:
    rise equalities between the first transition of each label and every
    other one carrying it; initial-sum equalities between net 1 and every
    later net; in discovery mode a zero equality per final place. A row
    left without terms (0 == 0) or repeating an earlier row is skipped.
    Each transition's rise is summed per class once (a class is its own
    class, so a row sums two of these again). A transition that is not its
    label's first is skipped before its row is built when an earlier such
    transition of the label had the same rise per class, zero entries
    included: its row would repeat.
    Last comes the seek row sum(size * class) >= 1, size being the places
    in the class, which keeps the zero region out. It is kept even without
    terms, so a specification without places has no region.

    Per place, the seek row's sum is the token count, as with one variable
    per place. Naming each class after its last member keeps the order of
    the classes: compared from the last variable back, the first
    difference between two class-constant points over one variable per
    place is at some class's last member, which is where it is met here
    too.
    """
    spec, k = problem.spec, problem.k
    constraints: list[ilp.LinearConstraint] = []
    seen: set[frozenset] = set()

    def per_class(plus: Mapping[str, int], minus: Mapping[str, int]) -> dict[str, int]:
        terms: dict[str, int] = {}
        for p, c in plus.items():
            terms[classes[p]] = terms.get(classes[p], 0) + c
        for p, c in minus.items():
            terms[classes[p]] = terms.get(classes[p], 0) - c
        return terms

    def add_zero_row(terms: dict[str, int]) -> None:
        row = ilp.LinearConstraint(terms, ilp.EQ, 0)
        key = frozenset(row.terms.items())
        if key and key not in seen:
            seen.add(key)
            constraints.append(row)

    def rise_per_class(post: Mapping[str, int], pre: Mapping[str, int]) -> dict[str, int]:
        # per_class(core.effect(...), {}), term order included, without
        # building the effect: places whose arcs cancel are left out.
        terms: dict[str, int] = {}
        for p, c in post.items():
            c -= pre.get(p, 0)
            if c:
                terms[classes[p]] = terms.get(classes[p], 0) + c
        for p, c in pre.items():
            if p not in post:
                terms[classes[p]] = terms.get(classes[p], 0) - c
        return terms

    first_of_label: dict[str, dict[str, int]] = {}
    carried: set[tuple] = set()
    for ln in spec.nets:
        pre, post = ln.net.pre, ln.net.post
        for e in ln.net.transitions:
            label = ln.labels[e]
            rise = rise_per_class(post[e], pre[e])
            if label not in first_of_label:
                first_of_label[label] = rise
                continue
            key = (label, frozenset(rise.items()))
            if key not in carried:
                carried.add(key)
                add_zero_row(per_class(first_of_label[label], rise))

    for ln in spec.nets[1:]:
        add_zero_row(per_class(spec.nets[0].initial, ln.initial))

    if problem.mode == "discovery":
        finals = discovery_final_places(spec, problem.final_places)
        for idx in sorted(finals):
            add_zero_row(per_class({finals[idx]: 1}, {}))

    sizes = per_class(dict.fromkeys(spec.all_places(), 1), {})
    constraints.append(ilp.LinearConstraint(sizes, ilp.GE, 1))
    variables = [ilp.Variable(p, 0, k) for p in spec.all_places() if classes[p] == p]
    return ilp.IlpModel(tuple(variables), tuple(constraints))


def enumerate_minimal_regions(problem: RegionProblem) -> RegionEnumeration:
    """Every minimal nonzero region up to k, in discovery order; with
    max_regions set, the first max_regions of them, flagged when more
    exist.

    The model over the Parikh classes (build_base_model) is split first.
    A free class, one that no row except the seek row names, gives one
    region: value 1 on it, 0 elsewhere. The rows are homogeneous
    equalities and every class lies in [0, k] with k >= 1 and holds at
    least one place, so that unit point passes every row; any region
    marking the class lies above it; and every other minimal region marks
    no free class. So the rest are the minimal points (ilp.minimal_points)
    of the model without the free classes, its seek row restricted to the
    classes kept, which is not searched when no class is kept; the seek
    row keeps the zero point out. Each class value is mapped back to the
    class's places. Discovery order
    is that of minimizing the seek row's sum (each class weighed by its
    places), recording the optimum and excluding it and everything above
    it, round by round (_discovery_order). The whole set is found either
    way, so max_regions cuts the output, not the work.
    """
    classes = parikh_classes(problem.spec)
    base = build_base_model(problem, classes)
    *rows, seek = base.constraints
    named = {c for row in rows for c in row.terms}
    variables = base.variables
    n = len(variables)
    points, kept = [], []
    for i, v in enumerate(variables):
        if v.id in named:
            kept.append(i)
        else:
            point = [0] * n
            point[i] = 1
            points.append(tuple(point))
    if kept:
        reduced = ilp.IlpModel(
            tuple(variables[i] for i in kept),
            (*rows, ilp.LinearConstraint({c: s for c, s in seek.terms.items() if c in named}, ilp.GE, 1)),
        )
        for x in ilp.minimal_points(reduced):
            point = [0] * n
            for i, s in zip(kept, x):
                point[i] = s
            points.append(tuple(point))
    index = {v.id: i for i, v in enumerate(variables)}
    position = {p: index[c] for p, c in classes.items()}
    order = _discovery_order(points, [seek.terms[v.id] for v in variables])
    truncated = problem.max_regions is not None and len(order) > problem.max_regions
    if truncated:
        order = order[: problem.max_regions]
    regions = (Region(Multiset({p: x[i] for p, i in position.items() if x[i]}), problem.k) for x in order)
    return RegionEnumeration(tuple(regions), truncated)


def _discovery_order(points: list, objective: list) -> list:
    """The minimal points `points` of the class model, each a tuple of
    class values by position, in the order in which rounds of a branch and
    bound find them when each round minimizes `objective` (a coefficient
    per class), ties going to the point least when compared from the last
    variable back, and then adds the found point's blocking rows to the
    model: a binary per class of the point's support, declared after the
    classes and the earlier binaries, that is 1 exactly when the class
    lies below the point's value.

    Round n's optimum is the unfound minimal point with the least key: a
    point above a minimal one has a larger objective, so no such point is
    optimal, and the binaries are functions of the point. The key ranks
    the objective first, then compares variables from the last declared
    back: the newest block's binaries from its last support class
    back, then the older blocks', then the class values from the last
    back. So the points are sorted by (objective, class values from the
    last back), and after each pick the rest are stable-sorted by
    (objective, the pick's binaries from its last support class back),
    which puts the pick's binaries above all that earlier sorts ranked.

    The objective comes first, so every pick is taken from the group with
    the least objective, and a sort moves points only within their group.
    A group is therefore ordered when it becomes the least: by its class
    values, then by the binaries of each earlier pick in turn. A sort is
    skipped where no point of the group reaches any of the pick's support
    values; every binary is then 1, and the stable sort would keep the
    order. Each group is sorted in full, so the order does not depend on
    the order of `points`, which enumeration puts together from the free
    classes and the search.
    """
    groups: dict[int, list] = {}
    for x in points:
        groups.setdefault(sum(map(mul, objective, x)), []).append(x)
    order: list = []
    supports: list = []
    for _, group in sorted(groups.items()):
        group.sort(key=lambda x: x[::-1])
        for support in supports:
            _rerank(group, support)
        while group:
            pick = group.pop(0)
            order.append(pick)
            supports.append(list(compress(enumerate(pick), pick))[::-1])
            _rerank(group, supports[-1])
    return order


def _rerank(group: list, support: list) -> None:
    """Stable-sort `group` by the binaries of a pick with `support`
    ((class, value) from its last support class back), unless every
    binary is 1."""
    if any(x[i] >= s for x in group for i, s in support):
        group.sort(key=lambda x: [x[i] < s for i, s in support])


def _arc_index(spec: Specification) -> tuple:
    """The arcs of `spec` by place and by label, worked out on first use and
    kept on the specification as `region_index` (outside equality and
    repr, like core.state_machine_walk's `trail_walk`).

    It is (labels_of, carriers, marked): `labels_of` maps every place to
    the positions, in spec.alphabet(), of the labels of the transitions
    next to it (on an input or an output arc); `carriers[i]` is alphabet
    label i with its transitions (position, id, pre, post), position and
    order being those of every net's transitions one net after another;
    `marked` maps each initially marked place to (net position, tokens).
    """
    index = getattr(spec, "region_index", None)
    if index is None:
        position: dict[str, int] = {}
        carriers: list = []
        labels_of: dict[str, set] = {p: set() for p in spec.all_places()}
        marked: dict[str, tuple[int, int]] = {}
        n = 0
        for idx, ln in enumerate(spec.nets):
            pre, post = ln.net.pre, ln.net.post
            for e in ln.net.transitions:
                label = ln.labels[e]
                if label not in position:
                    position[label] = len(carriers)
                    carriers.append((label, []))
                i = position[label]
                carriers[i][1].append((n, e, pre[e], post[e]))
                n += 1
                for p in (*pre[e], *post[e]):
                    labels_of[p].add(i)
            marked.update((p, (idx, tokens)) for p, tokens in ln.initial.items())
        index = (labels_of, carriers, marked)
        object.__setattr__(spec, "region_index", index)
    return index


def verify_region(spec: Specification, region: Region) -> ConditionCheck:
    """Re-check a region directly from the definitions, independent of the ILP.

    Failure names the first violated condition: "bound", "rise" (same label,
    same rise) or "initial-sum" (equal sums across nets). Success carries
    the place the region induces (ConditionCheck.place), read off the same
    arc sums: per label it consumes the least inflow over the label's
    transitions and produces that plus the label's rise, and it holds the
    initial sum shared by all nets.

    Only the region's support is walked (_arc_index): a label with no
    transition next to a marked place has rise 0 and inflow 0 on every
    carrier, so it can break no rise and the place leaves it unconnected.
    Each other label's carriers are walked in net order, and the "rise"
    witness "first/e" is the first transition, in net order, whose rise
    differs from its label's first carrier.
    """
    labels_of, carriers, marked = _arc_index(spec)
    unknown = [p for p in region.marking if p not in labels_of]
    if unknown:
        raise ValueError(f"region marks unknown places: {sorted(unknown)}")
    values = dict(region.marking.items())
    for p, value in values.items():
        if value > region.k:
            return ConditionCheck("bound", p)

    # Per touched label, in alphabet order: the first carrier's rise (post
    # minus pre) and the least inflow over its carriers.
    value_of = values.get
    consume: dict[str, int] = {}
    produce: dict[str, int] = {}
    violation = None
    for i in sorted({i for p in values for i in labels_of[p]}):
        label, carried = carriers[i]
        first = None
        for n, e, pre, post in carried:
            inflow = 0
            for p, w in pre.items():
                inflow += w * value_of(p, 0)
            value = -inflow
            for p, w in post.items():
                value += w * value_of(p, 0)
            if first is None:
                first, rise, least = e, value, inflow
            elif value != rise:
                if violation is None or n < violation[0]:
                    violation = (n, f"{first}/{e}")
                break
            elif inflow < least:
                least = inflow
        consume[label] = least
        produce[label] = least + rise
    if violation is not None:
        return ConditionCheck("rise", violation[1])

    sums = [0] * len(spec.nets)
    for p, value in values.items():
        if p in marked:
            idx, tokens = marked[p]
            sums[idx] += tokens * value
    for idx, s in enumerate(sums[1:], start=2):
        if s != sums[0]:
            return ConditionCheck("initial-sum", f"net 1 vs net {idx}")
    return ConditionCheck(place=PlaceBehavior(consume, produce, sums[0]))
