"""Token trails, compact token flows and state graphs: the trail search
behind `check`, and validity checks.

A marking of a labelled net is a token trail for a place when every
transition receives enough tokens, passes on exactly the surplus the place
dictates for its label, and the initially marked places carry the place's
initial tokens. find_token_trail searches for one within a bound, and
is_enabled runs that search for every place of a model, a labelled net
read per label, which is what `check` reports. The validity checks
(is_valid_token_trail, is_valid_compact_token_flow, and
check_state_graph_enabled, which fires transitions by label) are oracles
that the synthesis pipeline is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from . import ilp
from .core import (
    LabelledNet,
    Marking,
    Multiset,
    StateGraph,
    _require_transition,
    effect,
    fire,
    preset,
    state_graph_reachable,
    state_machine_walk,
)

__all__ = [
    "PlaceBehavior",
    "TokenTrail",
    "Run",
    "CompactTokenFlow",
    "StateGraph",
    "ConditionCheck",
    "Enabledness",
    "StateGraphCheck",
    "SOURCE",
    "SINK",
    "inflow",
    "outflow",
    "rise",
    "is_valid_token_trail",
    "default_trail_bound",
    "find_token_trail",
    "is_enabled",
    "flow_domain",
    "event_inflow",
    "event_outflow",
    "is_valid_compact_token_flow",
    "check_state_graph_enabled",
]

#: A token trail is just a marking of the labelled net under scrutiny.
TokenTrail = Multiset

#: Start and end slots of a run; flows may place tokens on them.
SOURCE = "▶"
SINK = "■"

#: A compact token flow maps run slots (SOURCE, v) / (v, v') / (v, SINK) to counts.
CompactTokenFlow = Mapping[Tuple[str, str], int]


@dataclass(frozen=True)
class PlaceBehavior:
    """How one place interacts with each label: consumed and produced arc
    weights per label plus its initial token count. Absent labels mean 0.

    find_token_trail keeps each label's rise and consume on it
    (`trail_parts`, see _trail_parts), outside equality and repr."""

    consume: Mapping[str, int]
    produce: Mapping[str, int]
    initial: int

    def __post_init__(self):
        object.__setattr__(self, "consume", {k: v for k, v in dict(self.consume).items() if v})
        object.__setattr__(self, "produce", {k: v for k, v in dict(self.produce).items() if v})
        for name, mapping in (("consume", self.consume), ("produce", self.produce)):
            for label, value in mapping.items():
                if not isinstance(value, int) or value < 0:
                    raise ValueError(f"{name}[{label!r}] must be a non-negative integer")
        if not isinstance(self.initial, int) or self.initial < 0:
            raise ValueError("initial must be a non-negative integer")

    def rise(self, label: str) -> int:
        return self.produce.get(label, 0) - self.consume.get(label, 0)

    def labels(self) -> Tuple[str, ...]:
        seen = dict.fromkeys(self.consume)
        seen.update(dict.fromkeys(self.produce))
        return tuple(seen)


@dataclass(frozen=True)
class Run:
    """Events with a (not necessarily transitive) order relation and labels."""

    events: Tuple[str, ...]
    order: Tuple[Tuple[str, str], ...]
    labels: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "labels", dict(self.labels))
        known = set(self.events)
        if len(known) != len(self.events):
            raise ValueError("duplicate event")
        if SOURCE in known or SINK in known:
            raise ValueError("events must not use the reserved source/sink symbols")
        if len(set(self.order)) != len(self.order):
            raise ValueError("duplicate order pair")
        for u, v in self.order:
            if u not in known or v not in known:
                raise ValueError("order pair over unknown events")
        missing = known - set(self.labels)
        if missing:
            raise ValueError(f"unlabelled events: {sorted(missing)}")
        extra = set(self.labels) - known
        if extra:
            raise ValueError(f"labels for unknown events: {sorted(extra)}")


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of a validity check of a token trail, a compact token flow or
    a region (regions.verify_region): truthy when `condition` is None, else
    `condition` names the first violated condition (in checking order) and
    `witness` the smallest witness. A region that passes also carries the
    place it induces (`place`, outside equality)."""

    condition: Optional[str] = None
    witness: Optional[str] = None
    place: Optional[PlaceBehavior] = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.condition is None


def _require_trail_support(net: LabelledNet, x: Multiset) -> None:
    unknown = set(x) - set(net.net.places)
    if unknown:
        raise ValueError(f"trail supports unknown places: {sorted(unknown)}")


def inflow(net: LabelledNet, x: TokenTrail, e: str) -> int:
    """Tokens flowing into e: incoming arc weights times the trail values."""
    _require_transition(net.net, e)
    return sum(w * x[p] for p, w in net.net.pre[e].items())


def outflow(net: LabelledNet, x: TokenTrail, e: str) -> int:
    """Tokens flowing out of e: outgoing arc weights times the trail values."""
    _require_transition(net.net, e)
    return sum(w * x[p] for p, w in net.net.post[e].items())


def rise(net: LabelledNet, x: TokenTrail, e: str) -> int:
    """Outflow minus inflow; the net effect of e on the token distribution."""
    return outflow(net, x, e) - inflow(net, x, e)


def is_valid_token_trail(net: LabelledNet, x: TokenTrail, pb: PlaceBehavior) -> ConditionCheck:
    """Check the three trail conditions in fixed order.

    "inflow": every transition receives at least what its label consumes;
    "balance": outflow equals inflow plus the label's rise;
    "initial-sum": the initially marked places weight-sum to pb.initial.
    """
    _require_trail_support(net, x)
    for e in net.net.transitions:
        if inflow(net, x, e) < pb.consume.get(net.labels[e], 0):
            return ConditionCheck("inflow", e)
    for e in net.net.transitions:
        if outflow(net, x, e) != inflow(net, x, e) + pb.rise(net.labels[e]):
            return ConditionCheck("balance", e)
    if sum(n * x[p] for p, n in net.initial.items()) != pb.initial:
        return ConditionCheck("initial-sum")
    return ConditionCheck()


def _trail_parts(pb: PlaceBehavior) -> tuple:
    """(moves, produced, most consumed) of `pb`: `moves` maps each label it
    touches to (rise, consume), so a label absent has rise 0 and needs no
    inflow; then the sum of its produce weights and its greatest consume
    weight. Worked out on first use and kept on the behaviour as
    `trail_parts`; like LabelledNet.trail_walk it is derived from the
    fields, and equality and repr ignore it."""
    parts = getattr(pb, "trail_parts", None)
    if parts is None:
        moves = {label: (pb.rise(label), pb.consume.get(label, 0)) for label in pb.labels()}
        parts = (moves, sum(pb.produce.values()), max(pb.consume.values(), default=0))
        object.__setattr__(pb, "trail_parts", parts)
    return parts


def default_trail_bound(net: LabelledNet, pb: PlaceBehavior) -> int:
    """Bound covering every trail whose tokens originate from the initial sum
    or from transition productions without recirculation."""
    _, produced, most_consumed = _trail_parts(pb)
    return pb.initial + produced * len(net.net.transitions) + most_consumed


def _trail_model(net: LabelledNet) -> ilp.CompiledModel:
    """The trail rows of `net`, compiled on first use and kept on the net as
    `trail_model` (outside equality and repr, like PetriNet.pre).

    Per transition e, in order, an inflow row `pre[e] >= .` and a balance
    row `effect(e) == .`, then the initial-sum row `initial == .`; one
    variable per place, declared in reverse place order, so that the
    point ilp.solve returns is the least when compared from the last
    place back. Right-hand sides and bounds are left to
    find_token_trail, which sets them per place behaviour. The model is
    never changed, so two threads that both compile it keep equal models.
    """
    model = getattr(net, "trail_model", None)
    if model is None:
        constraints = []
        for e in net.net.transitions:
            constraints.append(ilp.LinearConstraint(net.net.pre[e], ilp.GE, 0))
            constraints.append(ilp.LinearConstraint(effect(net.net, e), ilp.EQ, 0))
        constraints.append(ilp.LinearConstraint(dict(net.initial.items()), ilp.EQ, 0))
        variables = [ilp.Variable(p, 0, 0) for p in reversed(net.net.places)]
        model = ilp.compile_model(ilp.IlpModel(tuple(variables), tuple(constraints)))
        object.__setattr__(net, "trail_model", model)
    return model


def _trail_by_walk(net: LabelledNet, walk, pb: PlaceBehavior, bound: int) -> Optional[TokenTrail]:
    """The one point that the initial-sum row and the balance rows leave on
    a connected state machine, if it lies in [0, bound] and meets every
    inflow and balance row; else None (what solving the rows gives).

    Every value is bounded, and the inflow row of its tree arc tested, as
    it is walked; a label that pb does not touch copies the value. A tree
    arc balances by construction, so balance is tested on the chords only,
    which also get their inflow test. Keys are in place order."""
    root, steps, chords = walk
    if pb.initial > bound:
        return None
    move = _trail_parts(pb)[0].get
    x = {root: pb.initial}
    for place, parent, label, sign in steps:
        step = move(label)
        if step is None:
            x[place] = x[parent]
            continue
        before = x[parent]
        value = before + sign * step[0]
        if not 0 <= value <= bound or (before if sign > 0 else value) < step[1]:
            return None
        x[place] = value
    for p, q, label in chords:
        rise, consume = move(label, (0, 0))
        if x[p] < consume or x[q] - x[p] != rise:
            return None
    return Multiset._of({p: x[p] for p in net.net.places if x[p]})


def find_token_trail(net: LabelledNet, pb: PlaceBehavior, bound: Optional[int] = None) -> Optional[TokenTrail]:
    """Search for a valid token trail with all components <= bound.

    Returns the trail or None. None only means no trail exists within the
    bound; it is not a proof that no trail exists at all. On a connected
    state machine (core.state_machine_walk, kept on the net) the
    initial sum and the label rises fix the only candidate, so one walk
    computes it and tests every row; no ILP is built. On any other net the
    trail rows are compiled once (_trail_model, kept as `trail_model`) and
    each search only fills in the place behaviour's right-hand sides and
    the bound. Both give the trail that is least when compared from the
    last place back, keys in place order.
    """
    if bound is None:
        bound = default_trail_bound(net, pb)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    walk = state_machine_walk(net)
    if walk is not None:
        return _trail_by_walk(net, walk, pb, bound)
    model = _trail_model(net)
    rhs = []
    for e in net.net.transitions:
        label = net.labels[e]
        rhs.append(pb.consume.get(label, 0))
        rhs.append(pb.rise(label))
    rhs.append(pb.initial)
    n = len(model.variables)
    point = ilp.solve(model.with_rhs(rhs, [0] * n, [bound] * n))
    if point is None:
        return None
    return Multiset({p: point[p] for p in net.net.places if point[p]})


@dataclass(frozen=True)
class Enabledness:
    """Per-place witness trails, and the places with none within the bound
    (`not_shown`, in place order); truthy when `not_shown` is empty."""

    witnesses: Mapping[str, TokenTrail]
    not_shown: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "witnesses", dict(self.witnesses))
        object.__setattr__(self, "not_shown", tuple(self.not_shown))

    def __bool__(self) -> bool:
        return not self.not_shown


def _transition_by_label(model: LabelledNet) -> dict[str, str]:
    """Each label of the model with the one transition that carries it, in
    transition order. Two transitions that share a label are an error."""
    by_label: dict[str, str] = {}
    for t in model.net.transitions:
        label = model.labels[t]
        if label in by_label:
            raise ValueError(f"duplicate transition label in model: {label!r}")
        by_label[label] = t
    return by_label


def _place_behaviors(model: LabelledNet) -> dict[str, PlaceBehavior]:
    """Every model place's behaviour over the transition labels, in place
    order, read in one pass over the arcs on first use and kept on the
    model as `place_behaviors` (outside equality and repr, like
    trail_model)."""
    behaviors = getattr(model, "place_behaviors", None)
    if behaviors is None:
        consume: dict[str, dict[str, int]] = {p: {} for p in model.net.places}
        produce: dict[str, dict[str, int]] = {p: {} for p in model.net.places}
        for label, t in _transition_by_label(model).items():
            for p, w in model.net.pre[t].items():
                consume[p][label] = w
            for p, w in model.net.post[t].items():
                produce[p][label] = w
        behaviors = {p: PlaceBehavior(consume[p], produce[p], model.initial[p]) for p in model.net.places}
        object.__setattr__(model, "place_behaviors", behaviors)
    return behaviors


def is_enabled(model: LabelledNet, spec_net: LabelledNet, bound: Optional[int] = None) -> Enabledness:
    """Search a witness trail in spec_net for every place of the model.

    The model's labels are the label universe; a spec label missing from
    them, or two model transitions sharing one, is an error. The model's
    place behaviours are read once and kept on it (_place_behaviors), so
    checking many spec nets against one model reads its arcs once.
    """
    behaviors = _place_behaviors(model)
    missing = set(spec_net.labels.values()) - set(model.labels.values())
    if missing:
        raise ValueError(f"unknown label: {sorted(missing)[0]!r}")
    witnesses: dict[str, TokenTrail] = {}
    not_shown: list[str] = []
    for place, pb in behaviors.items():
        trail = find_token_trail(spec_net, pb, bound)
        if trail is None:
            not_shown.append(place)
        else:
            witnesses[place] = trail
    return Enabledness(witnesses, not_shown)


def flow_domain(run: Run) -> Tuple[Tuple[str, str], ...]:
    """All slots a compact token flow assigns values to, in canonical order."""
    return (
        tuple((SOURCE, v) for v in run.events)
        + tuple(run.order)
        + tuple((v, SINK) for v in run.events)
    )


def event_inflow(run: Run, x: CompactTokenFlow, v: str) -> int:
    return x.get((SOURCE, v), 0) + sum(x.get((u, w), 0) for u, w in run.order if w == v)


def event_outflow(run: Run, x: CompactTokenFlow, v: str) -> int:
    return x.get((v, SINK), 0) + sum(x.get((u, w), 0) for u, w in run.order if u == v)


def is_valid_compact_token_flow(run: Run, x: CompactTokenFlow, pb: PlaceBehavior) -> ConditionCheck:
    """Check the three flow conditions ("inflow", "balance", "initial-sum")."""
    domain = set(flow_domain(run))
    stray = set(x) - domain
    if stray:
        raise ValueError(f"flow assigns values outside the run: {sorted(stray)}")
    for slot, value in x.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"flow value at {slot!r} must be a non-negative integer")
    for v in run.events:
        if event_inflow(run, x, v) < pb.consume.get(run.labels[v], 0):
            return ConditionCheck("inflow", v)
    for v in run.events:
        if event_outflow(run, x, v) != event_inflow(run, x, v) + pb.rise(run.labels[v]):
            return ConditionCheck("balance", v)
    if sum(x.get((SOURCE, v), 0) for v in run.events) != pb.initial:
        return ConditionCheck("initial-sum")
    return ConditionCheck()


@dataclass(frozen=True)
class StateGraphCheck:
    """Outcome of check_state_graph_enabled: truthy when `reason` is None, and
    then `mapping` maps each state to its marking; else `reason` says why not."""

    mapping: Optional[Mapping] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.mapping is not None:
            object.__setattr__(self, "mapping", dict(self.mapping))

    def __bool__(self) -> bool:
        return self.reason is None


def check_state_graph_enabled(model: LabelledNet, sg: StateGraph) -> StateGraphCheck:
    """Map the state graph into the model's reachability graph.

    The initial state maps to the initial marking; each arc fires the model
    transition with its label (labels must be distinct, as in is_enabled),
    all paths to a state must agree on its marking, the mapping must be
    injective, and every state must be reachable from the initial one.
    """
    transitions = _transition_by_label(model)
    reachable = state_graph_reachable(sg)
    for s in sg.states:
        if s not in reachable:
            return StateGraphCheck(reason=f"unreachable state: {s!r}")
    mapping = {sg.initial: model.initial}
    # Arc-driven propagation, deferring arcs whose source is not mapped yet.
    # Every state is reachable, so each pass maps the source of some
    # deferred arc: the first arc leaving the mapped states on a path to it.
    pending = list(sg.arcs)
    while pending:
        remaining = []
        for src, label, tgt in pending:
            if src not in mapping:
                remaining.append((src, label, tgt))
                continue
            t = transitions.get(label)
            if t is None:
                return StateGraphCheck(reason=f"unknown label: {label!r}")
            m = mapping[src]
            if not preset(model.net, t) <= m:
                return StateGraphCheck(reason=f"not enabled: {label!r} at state {src!r}")
            nxt = fire(model, m, t)
            if tgt in mapping:
                if mapping[tgt] != nxt:
                    return StateGraphCheck(reason=f"inconsistent marking for state {tgt!r}")
            else:
                mapping[tgt] = nxt
        pending = remaining
    seen: dict[Marking, object] = {}
    for s in sg.states:
        m = mapping[s]
        if m in seen:
            return StateGraphCheck(reason=f"not injective: states {seen[m]!r} and {s!r} share a marking")
        seen[m] = s
    return StateGraphCheck(mapping)
