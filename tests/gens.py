"""Seeded random generators shared by property tests and the acceptance run."""

import random

from ttsynth import ilp
from ttsynth.core import LabelledNet, Multiset, PetriNet, Specification, StateGraph, build_specification
from ttsynth.semantics import PlaceBehavior, Run

LABELS = "abc"


def random_labelled_net(
    rng: random.Random,
    prefix: str,
    n_places: int,
    n_transitions: int,
    labels=LABELS,
    max_weight: int = 2,
    arc_density: float = 0.35,
    max_tokens: int = 2,
) -> LabelledNet:
    places = tuple(f"{prefix}p{i}" for i in range(n_places))
    transitions = tuple(f"{prefix}t{i}" for i in range(n_transitions))
    arcs = {}
    for t in transitions:
        for p in places:
            if rng.random() < arc_density:
                arcs[(p, t)] = rng.randint(1, max_weight)
            if rng.random() < arc_density:
                arcs[(t, p)] = rng.randint(1, max_weight)
    initial = {p: rng.randint(1, max_tokens) for p in places if rng.random() < 0.4}
    labelling = {t: rng.choice(labels) for t in transitions}
    return LabelledNet(PetriNet(places, transitions, Multiset(arcs)), Multiset(initial), labelling)


def random_specification(rng: random.Random, max_places: int = 6, max_transitions: int = 5) -> Specification:
    n_nets = rng.randint(1, 3)
    labels = LABELS[: rng.randint(1, 3)]
    total_places = rng.randint(n_nets, max_places)
    total_transitions = rng.randint(0, max_transitions)
    nets = []
    p_left, t_left = total_places, total_transitions
    for i in range(n_nets):
        nets_after = n_nets - i - 1
        n_p = p_left - nets_after if nets_after == 0 else rng.randint(1, p_left - nets_after)
        n_t = t_left if nets_after == 0 else rng.randint(0, t_left)
        nets.append(random_labelled_net(rng, f"n{i}", n_p, n_t, labels))
        p_left -= n_p
        t_left -= n_t
    return build_specification(nets)


def random_state_graph(rng: random.Random, max_states: int = 6, max_arcs: int = 8, n_labels: int = 3) -> StateGraph:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    labels = LABELS[:n_labels]
    arcs = set()
    for i in range(1, n):  # spanning arcs keep every state reachable
        arcs.add((states[rng.randrange(i)], rng.choice(labels), states[i]))
    for _ in range(rng.randint(0, max(0, max_arcs - len(arcs)))):
        arcs.add((rng.choice(states), rng.choice(labels), rng.choice(states)))
    return StateGraph(states, states[0], tuple(sorted(arcs)))


def random_two_way_arcs(rng: random.Random, max_states: int = 5, max_extra: int = 2) -> list:
    """Arcs (source, label, target) of a connected state machine whose
    spanning arcs point either way and mostly carry the label "a", so a
    walk from the first arc's source often takes one label backwards after
    it took it forwards. The first arc leaves s0."""
    n = rng.randint(2, max_states)
    arcs = []
    for i in range(1, n):
        parent = f"s{rng.randrange(i)}" if arcs else "s0"
        label = rng.choice("aab")
        arcs.append((parent, label, f"s{i}") if not arcs or rng.random() < 0.5 else (f"s{i}", label, parent))
    for _ in range(rng.randint(0, max_extra)):
        arcs.append((f"s{rng.randrange(n)}", rng.choice("aab"), f"s{rng.randrange(n)}"))
    return arcs


def random_deterministic_state_graph(rng: random.Random, max_states: int = 6, n_labels: int = 3) -> StateGraph:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    labels = LABELS[:n_labels]
    taken = set()
    arcs = []
    for i in range(1, n):
        while True:
            src = states[rng.randrange(i)]
            label = rng.choice(labels)
            if (src, label) not in taken:
                break
        taken.add((src, label))
        arcs.append((src, label, states[i]))
    for _ in range(rng.randint(0, 4)):
        src, label = rng.choice(states), rng.choice(labels)
        if (src, label) in taken:
            continue
        taken.add((src, label))
        arcs.append((src, label, rng.choice(states)))
    return StateGraph(states, states[0], tuple(sorted(arcs)))


def random_run(rng: random.Random, max_events: int = 4, n_labels: int = 3) -> Run:
    n = rng.randint(1, max_events)
    events = tuple(f"v{i}" for i in range(n))
    order = tuple(
        (events[i], events[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    )
    labels = {e: rng.choice(LABELS[:n_labels]) for e in events}
    return Run(events, order, labels)


def random_place_behavior(rng: random.Random, labels, max_value: int = 2) -> PlaceBehavior:
    return PlaceBehavior(
        {l: rng.randint(0, max_value) for l in labels},
        {l: rng.randint(0, max_value) for l in labels},
        rng.randint(0, max_value),
    )


def random_ilp_model(rng: random.Random, max_vars: int = 8, max_constraints: int = 12) -> ilp.IlpModel:
    return random_ilp_problem(rng, max_vars, max_constraints)[0]


def random_ilp_problem(rng: random.Random, max_vars: int = 8, max_constraints: int = 12) -> tuple:
    """(model, objective): a random IlpModel and a random objective
    ({id: coefficient}) over its variables, drawn after it."""
    n = rng.randint(2, max_vars)
    variables = []
    for i in range(n):
        lo = rng.randint(0, 3)
        hi = rng.randint(lo, 3)
        variables.append(ilp.Variable(f"v{i}", lo, hi))
    # Half the models are anchored on a known point so feasibility is common.
    anchor = None
    if rng.random() < 0.5:
        anchor = [rng.randint(v.lower, v.upper) for v in variables]
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        support = rng.sample(range(n), rng.randint(1, min(4, n)))
        terms = {f"v{i}": c for i in support if (c := rng.randint(-3, 3))}
        if not terms:
            continue
        relation = rng.choice([ilp.LE, ilp.EQ, ilp.GE])
        if anchor is not None:
            at_anchor = sum(c * anchor[int(v[1:])] for v, c in terms.items())
            slack = rng.randint(0, 3)
            rhs = at_anchor + slack if relation == ilp.LE else at_anchor - slack if relation == ilp.GE else at_anchor
        else:
            rhs = rng.randint(-6, 8)
        constraints.append(ilp.LinearConstraint(terms, relation, rhs))
    objective = {f"v{i}": rng.randint(-3, 3) for i in range(n) if rng.random() < 0.7}
    return ilp.IlpModel(tuple(variables), tuple(constraints)), objective


def cycles_graph(n: int) -> StateGraph:
    """Reachability graph of n independent two-state cycles. State v is a
    bit vector; bit i off enables up<i>, on enables down<i>. Arcs are
    listed by state, then by cycle."""
    states = [f"s{v}" for v in range(2**n)]
    arcs = [(states[v], f"{'down' if v >> i & 1 else 'up'}{i}", states[v ^ (1 << i)]) for v in range(2**n) for i in range(n)]
    return StateGraph(tuple(states), states[0], tuple(arcs))


def random_trace(rng: random.Random, max_len: int = 5, n_labels: int = 3):
    return tuple(rng.choice(LABELS[:n_labels]) for _ in range(rng.randint(1, max_len)))
