"""Petri net data model: multisets, nets, markings, firing, bounded reachability.

All values are immutable after construction; every operation is a pure
function, so values can be shared freely between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple


class Multiset:
    """Immutable multiset with non-negative integer counts.

    Zero-count entries are never stored, so two multisets are equal exactly
    when they have the same support with the same counts. Keys may be any
    hashable value (identifiers, pairs, whole markings).
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Mapping | Iterable[tuple] = ()):
        pairs = items.items() if isinstance(items, Mapping) else items
        data: dict = {}
        for key, count in pairs:
            if not isinstance(count, int) or isinstance(count, bool):
                raise TypeError(f"count for {key!r} must be an integer")
            if count < 0:
                raise ValueError(f"negative count for {key!r}")
            if count:
                data[key] = data.get(key, 0) + count
        self._items = data
        self._hash = None

    @classmethod
    def _of(cls, data: dict) -> "Multiset":
        """A multiset over `data`, taken as it is: every count must already
        be a positive int, and `data` must not change afterwards."""
        multiset = cls.__new__(cls)
        multiset._items = data
        multiset._hash = None
        return multiset

    def __getitem__(self, key) -> int:
        return self._items.get(key, 0)

    def __contains__(self, key) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def items(self):
        return self._items.items()

    def keys(self):
        return self._items.keys()

    def total(self) -> int:
        """Sum of all counts."""
        return sum(self._items.values())

    def restrict(self, keys: Iterable) -> "Multiset":
        """Entries whose key is in `keys`."""
        allowed = set(keys)
        return Multiset({k: v for k, v in self._items.items() if k in allowed})

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        data = dict(self._items)
        for k, v in other.items():
            data[k] = data.get(k, 0) + v
        return Multiset(data)

    def __sub__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        data = dict(self._items)
        for k, v in other.items():
            left = data.get(k, 0) - v
            if left < 0:
                raise ValueError(f"subtraction below zero at {k!r}")
            if left:
                data[k] = left
            else:
                data.pop(k, None)
        return Multiset(data)

    def __le__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return all(v <= other[k] for k, v in self._items.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self._items.items())
        return f"Multiset({{{inner}}})"


#: A marking assigns tokens to places; token trails are markings as well.
Marking = Multiset


@dataclass(frozen=True)
class PetriNet:
    """Unmarked net: places, transitions, and a multiset of weighted arcs.

    Arc keys are (source, target) pairs; every arc must connect a place with
    a transition (in either direction) and carries weight >= 1.

    `pre` and `post` are the per-transition arc view, built once here and
    read by everything that needs a transition's arcs: each maps every
    transition (in `transitions` order) to a `{place: weight}` dict of its
    input or output arcs. They are derived from the fields, so equality,
    hashing and repr ignore them; treat them as read-only.
    """

    places: Tuple[str, ...]
    transitions: Tuple[str, ...]
    arcs: Multiset

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise ValueError("duplicate identifier")
        if pset & tset:
            raise ValueError(f"places and transitions overlap: {sorted(pset & tset)}")
        pre: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        post: dict[str, dict[str, int]] = {t: {} for t in self.transitions}
        for (src, tgt), w in self.arcs.items():
            if src in pset and tgt in tset:
                pre[tgt][src] = w
            elif src in tset and tgt in pset:
                post[src][tgt] = w
            else:
                raise ValueError(f"arc ({src!r}, {tgt!r}) does not connect a place and a transition")
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)


@dataclass(frozen=True)
class LabelledNet:
    """A marked net whose transitions all carry a label; the only marked net.

    Several transitions may share a label (label splitting); the labelling
    must be total.

    Traces and state graphs convert to connected state machines, whose
    walk state_machine_walk keeps on the net (`trail_walk`, None on other
    nets) for the region classes and the trail search; on other nets
    semantics.find_token_trail keeps the compiled trail rows
    (`trail_model`). A model, whose labels must be distinct, keeps every
    place's behaviour per label, which semantics.is_enabled reads once
    (`place_behaviors`). Like PetriNet.pre/post they are derived from the
    fields, and equality and repr ignore them.
    """

    net: PetriNet
    initial: Marking
    labels: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        unknown = set(self.initial) - set(self.net.places)
        if unknown:
            raise ValueError(f"initial marking uses unknown places: {sorted(unknown)}")
        missing = set(self.net.transitions) - set(self.labels)
        if missing:
            raise ValueError(f"unlabelled transitions: {sorted(missing)}")
        extra = set(self.labels) - set(self.net.transitions)
        if extra:
            raise ValueError(f"labels for unknown transitions: {sorted(extra)}")

    @classmethod
    def _of(cls, places, transitions, arcs, pre, post, initial, labels, walk) -> "LabelledNet":
        """A labelled net over these parts, taken as they are: they must
        already pass every check of PetriNet and LabelledNet, `pre` and
        `post` must be the arc view PetriNet builds, and `walk` what
        state_machine_walk finds on the net."""
        net = object.__new__(PetriNet)
        vars(net).update(places=places, transitions=transitions, arcs=arcs, pre=pre, post=post)
        ln = object.__new__(cls)
        vars(ln).update(net=net, initial=initial, labels=labels, trail_walk=walk)
        return ln


def state_machine_walk(ln: LabelledNet) -> Optional[tuple]:
    """The spanning-tree walk of `ln` when it is a connected state machine,
    else None; worked out on first use and kept on the net as `trail_walk`.

    A connected state machine: every transition has exactly one input and
    one output place, each by an arc of weight 1 (they may be the same
    place); the initial marking is one token on one place p0; and every
    place is linked to p0 when arc direction is ignored. The walk is (p0,
    steps, chords): `steps` lists (place, parent, label, sign) in
    breadth-first order from p0, one per tree arc, so that a trail or a
    region has place = parent + sign * rise(label); `chords` lists (input
    place, output place, label) for every other transition, self-loops
    included, in order.
    """
    if hasattr(ln, "trail_walk"):
        return ln.trail_walk
    pre, post = ln.net.pre, ln.net.post
    walk = None
    if len(ln.initial) == 1 and ln.initial.total() == 1 and all(
        list(pre[e].values()) == [1] == list(post[e].values()) for e in ln.net.transitions
    ):
        root = next(iter(ln.initial))
        arcs = [(next(iter(pre[e])), next(iter(post[e])), ln.labels[e]) for e in ln.net.transitions]
        neighbours: dict[str, list] = {p: [] for p in ln.net.places}
        for i, (p, q, label) in enumerate(arcs):
            neighbours[p].append((q, label, 1, i))
            neighbours[q].append((p, label, -1, i))
        reached, steps, tree = [root], [], set()
        seen = {root}
        for place in reached:  # grows while it is walked: breadth-first
            for nxt, label, sign, i in neighbours[place]:
                if nxt not in seen:
                    seen.add(nxt)
                    reached.append(nxt)
                    steps.append((nxt, place, label, sign))
                    tree.add(i)
        if len(seen) == len(ln.net.places):
            walk = (root, tuple(steps), tuple(arc for i, arc in enumerate(arcs) if i not in tree))
    object.__setattr__(ln, "trail_walk", walk)
    return walk


@dataclass(frozen=True)
class Specification:
    """An ordered set of labelled nets with globally unique identifiers.

    Use build_specification to assemble one from nets whose identifiers may
    clash; the constructor only validates. regions.verify_region keeps an
    index of the arcs by place and by label on it (`region_index`); like
    LabelledNet.trail_walk it is derived from the fields, and equality and
    repr ignore it.
    """

    nets: Tuple[LabelledNet, ...]

    def __post_init__(self):
        object.__setattr__(self, "nets", tuple(self.nets))
        if not self.nets:
            raise ValueError("specification needs at least one net")
        seen: set[str] = set()
        for ln in self.nets:
            for ident in ln.net.places + ln.net.transitions:
                if ident in seen:
                    raise ValueError(f"identifier clash across nets: {ident!r}")
                seen.add(ident)

    def all_places(self) -> Tuple[str, ...]:
        return tuple(p for ln in self.nets for p in ln.net.places)

    def alphabet(self) -> Tuple[str, ...]:
        seen: dict[str, None] = {}
        for ln in self.nets:
            for t in ln.net.transitions:
                seen.setdefault(ln.labels[t], None)
        return tuple(seen)


def _rename_net(ln: LabelledNet, mapping: Mapping[str, str]) -> LabelledNet:
    """`ln` with every identifier in `mapping` renamed, taken as valid.

    The caller vouches that the renamed identifiers are distinct and equal
    no identifier that is kept, so the renamed net is valid as well: its
    arc view (`pre`, `post`) and its walk (state_machine_walk) are renamed
    as they are, and nothing is checked.
    """
    ren = {x: mapping.get(x, x) for x in ln.net.places + ln.net.transitions}
    walk = state_machine_walk(ln)
    if walk is not None:
        root, steps, chords = walk
        walk = (
            ren[root],
            tuple([(ren[p], ren[q], label, sign) for p, q, label, sign in steps]),
            tuple([(ren[p], ren[q], label) for p, q, label in chords]),
        )
    return LabelledNet._of(
        tuple([ren[p] for p in ln.net.places]),
        tuple([ren[t] for t in ln.net.transitions]),
        Multiset._of({(ren[s], ren[t]): w for (s, t), w in ln.net.arcs.items()}),
        {ren[t]: {ren[p]: w for p, w in ws.items()} for t, ws in ln.net.pre.items()},
        {ren[t]: {ren[p]: w for p, w in ws.items()} for t, ws in ln.net.post.items()},
        Multiset._of({ren[p]: n for p, n in ln.initial.items()}),
        {ren[t]: label for t, label in ln.labels.items()},
        walk,
    )


def build_specification(nets: Sequence[LabelledNet]) -> Specification:
    """Assemble a specification, renaming identifiers that clash across nets.

    Every occurrence of a clashing identifier gets a net-index prefix
    ("n3.p0" for the third net); labels are never renamed. While some
    prefixed id would equal an identifier of any net, underscores are
    prepended to the "n" ("_n3.p0"), so renamed ids never collide: with
    each other, since the index ends at the first ".", nor with any
    identifier that is kept.
    """
    if not nets:
        raise ValueError("specification needs at least one net")
    counts: dict[str, int] = {}
    for ln in nets:
        for ident in ln.net.places + ln.net.transitions:
            counts[ident] = counts.get(ident, 0) + 1
    clashing = {ident for ident, n in counts.items() if n > 1}
    stem = "n"
    while True:
        mappings = [
            {x: f"{stem}{i}.{x}" for x in (ln.net.places + ln.net.transitions) if x in clashing}
            for i, ln in enumerate(nets, start=1)
        ]
        if not any(y in counts for mapping in mappings for y in mapping.values()):
            break
        stem = "_" + stem
    return Specification(tuple(_rename_net(ln, m) if m else ln for ln, m in zip(nets, mappings)))


@dataclass(frozen=True)
class StateGraph:
    """Rooted graph of states with labelled arcs.

    States may be identifiers or whole markings. Full reachability from the
    initial state is an expected property of well-formed graphs; it is
    enforced by the parsers and re-checked by the enabledness checker, not
    by this constructor.
    """

    states: Tuple[Hashable, ...]
    initial: Hashable
    arcs: Tuple[Tuple[Hashable, str, Hashable], ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        known = set(self.states)
        if len(known) != len(self.states):
            raise ValueError("duplicate state")
        if self.initial not in known:
            raise ValueError("initial state not among states")
        if len(set(self.arcs)) != len(self.arcs):
            raise ValueError("duplicate arc")
        for src, _label, tgt in self.arcs:
            if src not in known or tgt not in known:
                raise ValueError("arc endpoint is not a state")


def state_graph_reachable(sg: StateGraph) -> frozenset:
    """States reachable from the initial state along arcs."""
    succ: dict = {}
    for src, _label, tgt in sg.arcs:
        succ.setdefault(src, []).append(tgt)
    seen = {sg.initial}
    todo = deque([sg.initial])
    while todo:
        s = todo.popleft()
        for nxt in succ.get(s, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def _require_transition(net: PetriNet, t: str) -> None:
    if t not in net.pre:
        raise ValueError(f"unknown transition: {t!r}")


def preset(net: PetriNet, t: str) -> Multiset:
    """Weighted preset of a transition: place -> arc weight into t."""
    _require_transition(net, t)
    return Multiset(net.pre[t])


def postset(net: PetriNet, t: str) -> Multiset:
    """Weighted postset of a transition: place -> arc weight out of t."""
    _require_transition(net, t)
    return Multiset(net.post[t])


def effect(net: PetriNet, t: str) -> dict[str, int]:
    """Token change of firing t: post[t] minus pre[t], zero entries dropped.

    These are the coefficients of t's rise, linear in a token distribution.
    """
    _require_transition(net, t)
    delta = dict(net.post[t])
    for p, w in net.pre[t].items():
        delta[p] = delta.get(p, 0) - w
    return {p: c for p, c in delta.items() if c}


def enabled_transitions(n: LabelledNet, m: Marking) -> set[str]:
    """Transitions whose preset is covered by the marking m."""
    return {t for t in n.net.transitions if preset(n.net, t) <= m}


def fire(n: LabelledNet, m: Marking, t: str) -> Marking:
    """Fire t in m, returning the follow-up marking; m itself is unchanged."""
    pre = preset(n.net, t)
    if not pre <= m:
        raise ValueError(f"not enabled: {t!r}")
    return m - pre + postset(n.net, t)


def reachability_graph(n: LabelledNet, state_cap: int) -> StateGraph:
    """Breadth-first reachability graph, aborting once state_cap is exceeded.

    Arcs carry labels, one per (marking, label, next marking). The cap
    turns a potentially unbounded exploration into an error, not a hang.
    """
    if state_cap < 1:
        raise ValueError("state_cap must be >= 1")
    presets = {t: preset(n.net, t) for t in n.net.transitions}
    postsets = {t: postset(n.net, t) for t in n.net.transitions}
    states: list[Marking] = [n.initial]
    seen = {n.initial}
    arcs: dict[tuple[Marking, str, Marking], None] = {}
    todo = deque([n.initial])
    while todo:
        m = todo.popleft()
        for t in n.net.transitions:
            if not presets[t] <= m:
                continue
            nxt = m - presets[t] + postsets[t]
            arcs[m, n.labels[t], nxt] = None
            if nxt not in seen:
                if len(seen) >= state_cap:
                    raise ValueError("state cap exceeded")
                seen.add(nxt)
                states.append(nxt)
                todo.append(nxt)
    return StateGraph(tuple(states), n.initial, tuple(arcs))
