import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_dup, make_e_seq, model_net
from gens import (
    random_labelled_net,
    random_place_behavior,
    random_run,
    random_state_graph,
    random_trace,
    random_two_way_arcs,
)
from oracles import initial_sum, net_inflow, net_rise, reference_bnb, trail_model
from test_regions import state_machine
from ttsynth import ilp
from ttsynth import io as net_io
from ttsynth.convert import run_to_labelled_net, slot_place_ids, state_graph_to_labelled_net, trace_to_labelled_net
from ttsynth.core import LabelledNet, Multiset, PetriNet, StateGraph, build_specification, state_machine_walk
from ttsynth.regions import RegionProblem
from ttsynth.semantics import (
    SINK,
    SOURCE,
    PlaceBehavior,
    _place_behaviors,
    _trail_by_walk,
    Run,
    check_state_graph_enabled,
    default_trail_bound,
    event_inflow,
    event_outflow,
    find_token_trail,
    flow_domain,
    inflow,
    is_enabled,
    is_valid_compact_token_flow,
    is_valid_token_trail,
    outflow,
    rise,
)
from ttsynth.synthesis import synthesize


def behavior(consume=None, produce=None, initial=0):
    return PlaceBehavior(consume or {}, produce or {}, initial)


def permuted_model(traces) -> tuple[LabelledNet, LabelledNet]:
    """The model synthesized from `traces` at k = 1, read back from PNML,
    and the same model with its transition ids rotated among its labels
    (the one labelled a is named b, and so on)."""
    result = synthesize(RegionProblem(build_specification([trace_to_labelled_net(t) for t in traces]), 1))
    model = net_io.parse_pnml(net_io.write_pnml(result))
    ids = dict(zip(model.net.transitions, model.net.transitions[1:] + model.net.transitions[:1]))
    permuted = net_io.parse_pnml(net_io.write_pnml(LabelledNet(
        PetriNet(
            model.net.places,
            tuple(ids[t] for t in model.net.transitions),
            Multiset({(ids.get(s, s), ids.get(t, t)): w for (s, t), w in model.net.arcs.items()}),
        ),
        model.initial,
        {ids[t]: label for t, label in model.labels.items()},
    )))
    return model, permuted


class TestFlows:
    def test_inflow_single_arc(self):
        ln = make_e_seq()
        assert inflow(ln, Multiset({"c0": 1}), "e_a") == 1

    def test_inflow_zero_trail(self):
        ln = make_e_seq()
        for e in ln.net.transitions:
            assert inflow(ln, Multiset(), e) == 0

    def test_inflow_weighted(self):
        net = PetriNet(("c",), ("e",), Multiset({("c", "e"): 2}))
        ln = LabelledNet(net, Multiset(), {"e": "a"})
        assert inflow(ln, Multiset({"c": 3}), "e") == 6

    def test_outflow_single_arc(self):
        ln = make_e_seq()
        assert outflow(ln, Multiset({"c1": 1}), "e_a") == 1

    def test_outflow_zero_trail(self):
        ln = make_e_seq()
        for e in ln.net.transitions:
            assert outflow(ln, Multiset(), e) == 0

    def test_outflow_two_arcs(self):
        net = PetriNet(("c", "d"), ("e",), Multiset({("e", "c"): 1, ("e", "d"): 2}))
        ln = LabelledNet(net, Multiset(), {"e": "a"})
        assert outflow(ln, Multiset({"c": 1, "d": 1}), "e") == 3

    def test_rise_consuming(self):
        ln = make_e_seq()
        assert rise(ln, Multiset({"c0": 1}), "e_a") == -1

    def test_rise_zero_trail(self):
        ln = make_e_seq()
        assert rise(ln, Multiset(), "e_a") == 0

    def test_rise_e_dup_uniform(self):
        ln = make_e_dup()
        trail = Multiset({"c0": 1, "c1": 1, "c2": 1})
        assert rise(ln, trail, "e1") == 0
        assert rise(ln, trail, "e2") == 0

    def test_unknown_transition(self):
        ln = make_e_seq()
        with pytest.raises(ValueError, match="unknown transition"):
            inflow(ln, Multiset(), "nope")


class TestTrailValidity:
    def test_valid_trail(self):
        ln = make_e_seq()
        pb = behavior({"a": 1}, {"b": 1}, 1)
        assert is_valid_token_trail(ln, Multiset({"c0": 1, "c2": 1}), pb)

    def test_zero_trail_for_disconnected_place(self):
        ln = make_e_seq()
        assert is_valid_token_trail(ln, Multiset(), behavior())

    def test_inflow_failure_names_first_transition(self):
        ln = make_e_seq()
        verdict = is_valid_token_trail(ln, Multiset(), behavior({"a": 1}, initial=0))
        assert not verdict
        assert verdict.condition == "inflow"
        assert verdict.witness == "e_a"

    def test_balance_failure(self):
        ln = make_e_seq()
        verdict = is_valid_token_trail(ln, Multiset({"c0": 1, "c1": 1}), behavior({"a": 1}, initial=1))
        assert not verdict and verdict.condition == "balance"

    def test_initial_sum_failure(self):
        ln = make_e_seq()
        verdict = is_valid_token_trail(ln, Multiset({"c0": 1, "c1": 1, "c2": 1}), behavior(initial=0))
        assert not verdict and verdict.condition == "initial-sum"

    def test_unknown_place_rejected(self):
        ln = make_e_seq()
        with pytest.raises(ValueError, match="unknown places"):
            is_valid_token_trail(ln, Multiset({"zz": 1}), behavior())

    def test_balance_means_rise_matches_behavior(self):
        rng = random.Random(31)
        for _ in range(40):
            ln = random_labelled_net(rng, "x", rng.randint(1, 4), rng.randint(1, 3))
            pb = random_place_behavior(rng, "abc")
            trail = find_token_trail(ln, pb, 2)
            if trail is None:
                continue
            for e in ln.net.transitions:
                label = ln.labels[e]
                assert rise(ln, trail, e) == pb.rise(label)


class TestFindTokenTrail:
    def test_found_on_e_seq(self):
        ln = make_e_seq()
        assert find_token_trail(ln, behavior({"a": 1}, initial=1), 1) == Multiset({"c0": 1})

    def test_zero_behavior_zero_trail(self):
        ln = make_e_seq()
        assert find_token_trail(ln, behavior(), 0) == Multiset()

    def test_none_within_bound(self):
        ln = make_e_seq()
        assert find_token_trail(ln, behavior({"a": 1}, initial=0), 5) is None

    def test_found_trails_are_valid_and_bounded(self):
        rng = random.Random(7)
        for _ in range(60):
            ln = random_labelled_net(rng, "x", rng.randint(1, 5), rng.randint(1, 3))
            pb = random_place_behavior(rng, "abc")
            bound = rng.randint(0, 3)
            trail = find_token_trail(ln, pb, bound)
            if trail is not None:
                assert is_valid_token_trail(ln, trail, pb)
                assert all(trail[p] <= bound for p in trail)

    def test_agrees_with_exhaustive_enumeration(self):
        # nets with at most 5 places, bound at most 2: full sweep is cheap
        rng = random.Random(99)
        for _ in range(120):
            ln = random_labelled_net(rng, "x", rng.randint(1, 5), rng.randint(0, 3))
            pb = random_place_behavior(rng, "abc")
            bound = rng.randint(0, 2)
            exists = any(
                is_valid_token_trail(ln, Multiset({p: v for p, v in zip(ln.net.places, point) if v}), pb)
                for point in itertools.product(range(bound + 1), repeat=len(ln.net.places))
            )
            assert (find_token_trail(ln, pb, bound) is not None) == exists

    def test_default_bound_formula(self):
        ln = make_e_seq()
        pb = behavior({"a": 2, "b": 1}, {"a": 1}, 3)
        assert default_trail_bound(ln, pb) == 3 + 1 * 2 + 2


def behavior_at(ln, point, rng):
    """A place behaviour for which `point` is a valid trail when every
    label's transitions share one rise at it: per label that rise and a
    random consume within the smallest inflow."""
    rises, inflows = {}, {}
    for e in ln.net.transitions:
        rises.setdefault(ln.labels[e], net_rise(ln, point, e))
        inflows.setdefault(ln.labels[e], []).append(net_inflow(ln, point, e))
    consume = {label: rng.randint(max(0, -rises[label]), max(0, -rises[label], min(v))) for label, v in inflows.items()}
    produce = {label: c + rises[label] for label, c in consume.items()}
    return PlaceBehavior(consume, produce, initial_sum(ln, point))


class TestTrailReuse:
    """find_token_trail compiles a net's rows once and re-solves them with
    each place's right-hand sides and bound; no search may see another's."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=150)
    def test_resolving_leaks_no_state(self, seed):
        # A random net plus a 1:1 self-loop labelled "x" (its balance row
        # has no terms) and a transition labelled "y" with an empty preset
        # (its inflow row has no terms). Several place behaviours, one of
        # them repeated last, are searched on the same net object in random
        # order; each must match the reference solver on its own model
        # (reference_trail).
        rng = random.Random(seed)
        base = random_labelled_net(rng, "", rng.randint(1, 4), rng.randint(0, 3))
        p, q = rng.choice(base.net.places), rng.choice(base.net.places)
        arcs = dict(base.net.arcs.items())
        arcs.update({(p, "loop"): 1, ("loop", p): 1, ("source", q): rng.randint(1, 2)})
        net = LabelledNet(
            PetriNet(base.net.places, base.net.transitions + ("loop", "source"), Multiset(arcs)),
            base.initial,
            {**base.labels, "loop": "x", "source": "y"},
        )
        searches = []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.5:
                pb = random_place_behavior(rng, "abcxy")
            else:  # mostly feasible: read off a random point of the net
                pb = behavior_at(net, {v: rng.randint(0, 2) for v in net.net.places}, rng)
            searches.append((pb, rng.randint(0, 3)))
        rng.shuffle(searches)
        searches.append(searches[0])
        for pb, bound in searches:
            got = find_token_trail(net, pb, bound)
            want = reference_trail(net, pb, bound)
            assert got == want
            if pb.rise("x") != 0 or pb.consume.get("y", 0) > 0:
                assert got is None
            if bound == 0:
                assert got in (None, Multiset())
            if got is not None:
                assert list(got) == [v for v in net.net.places if got[v]]

    def test_compiled_rows_stay_outside_equality_and_repr(self):
        # A run net has one marked place per event, so it takes the solver.
        run = Run(("v1", "v2"), (("v1", "v2"),), {"v1": "a", "v2": "b"})
        searched, fresh = run_to_labelled_net(run), run_to_labelled_net(run)
        trail = find_token_trail(searched, behavior({"b": 1}, {"a": 1}), 1)
        assert trail == Multiset({"(v1,v2)": 1})
        assert hasattr(searched, "trail_model") and not hasattr(fresh, "trail_model")
        assert searched == fresh
        assert repr(searched) == repr(fresh)

    def test_cached_walk_stays_outside_equality_and_repr(self):
        searched, fresh = make_e_seq(), make_e_seq()
        assert find_token_trail(searched, behavior({"a": 1}, initial=1), 1) == Multiset({"c0": 1})
        assert hasattr(searched, "trail_walk") and not hasattr(fresh, "trail_walk")
        assert not hasattr(searched, "trail_model")
        assert searched == fresh
        assert repr(searched) == repr(fresh)


def reference_trail(net, pb, bound):
    """The trail least when compared from the last place back, found by the
    independent reference solver (oracles.reference_bnb, no objective) on
    the trail rows built afresh from the arcs; keys in place order."""
    point, _ = reference_bnb(trail_model(net, pb, bound), {})
    return None if point is None else Multiset({p: v for p, v in point.items() if v})


def counting_solves(monkeypatch) -> list:
    solves = []
    solve = ilp.solve
    monkeypatch.setattr(ilp, "solve", lambda *args: solves.append(None) or solve(*args))
    return solves


def chain_net(arcs, initial, places=("c0", "c1", "c2"), transitions=("e1", "e2")):
    labels = {e: label for e, label in zip(transitions, "abcxy")}
    return LabelledNet(PetriNet(places, transitions, Multiset(arcs)), Multiset(initial), labels)


CHAIN_ARCS = {("c0", "e1"): 1, ("e1", "c1"): 1, ("c1", "e2"): 1, ("e2", "c2"): 1}

#: Builders of nets that miss exactly one property of a connected state machine.
NOT_STATE_MACHINES = {
    "weight-2 arc": lambda: chain_net({**CHAIN_ARCS, ("e1", "c1"): 2}, {"c0": 1}),
    "two input places": lambda: chain_net({**CHAIN_ARCS, ("c0", "e2"): 1}, {"c0": 1}),
    "no input place": lambda: chain_net(
        {**CHAIN_ARCS, ("e3", "c1"): 1}, {"c0": 1}, transitions=("e1", "e2", "e3")
    ),
    "2-token initial place": lambda: chain_net(CHAIN_ARCS, {"c0": 2}),
    "two marked places": lambda: chain_net(CHAIN_ARCS, {"c0": 1, "c1": 1}),
    "unconnected place": lambda: chain_net(CHAIN_ARCS, {"c0": 1}, places=("c0", "c1", "c2", "d")),
}


class TestTrailWalk:
    """On a connected state machine find_token_trail walks a spanning tree
    instead of solving; it must give exactly the trail the reference
    solver gives (reference_trail)."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_walk_equals_solver(self, seed):
        # Trace nets, and state graphs with self-loops and repeated labels.
        rng = random.Random(seed)
        if rng.random() < 0.5:
            net = trace_to_labelled_net(random_trace(rng, max_len=6))
        else:
            net = state_graph_to_labelled_net(random_state_graph(rng))
        for _ in range(4):
            if rng.random() < 0.4:
                pb = random_place_behavior(rng, "abc")
            else:  # feasible when the point's rises agree per label
                flat = rng.random() < 0.3
                level = rng.randint(0, 2)
                point = {p: level if flat else rng.randint(0, 2) for p in net.net.places}
                pb = behavior_at(net, point, rng)
            bound = rng.randint(0, 3)
            got = find_token_trail(net, pb, bound)
            want = reference_trail(net, pb, bound)
            assert got == want
            assert got is None or list(got) == list(want)
        assert net.trail_walk is not None and not hasattr(net, "trail_model")

    def test_walk_finds_trails(self, monkeypatch):
        # The property above sees feasible searches, not only None.
        solves = counting_solves(monkeypatch)
        found = 0
        rng = random.Random(5)
        for _ in range(100):
            net = state_graph_to_labelled_net(random_state_graph(rng))
            point = {p: rng.randint(0, 2) for p in net.net.places}
            found += find_token_trail(net, behavior_at(net, point, rng), 2) is not None
        assert found > 20 and solves == []

    def test_backwards_tree_arc(self):
        # s0 -a-> s1 -b-> s2 -c-> s3 -d-> s0: the walk reaches s3 from s0
        # against the arc d, so s3 = s0 - rise(d).
        cycle = StateGraph(
            ("s0", "s1", "s2", "s3"), "s0",
            (("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3"), ("s3", "d", "s0")),
        )
        net = state_graph_to_labelled_net(cycle)
        pb = behavior({"d": 1}, {"a": 1})
        assert find_token_trail(net, pb, 1) == Multiset({"s1": 1, "s2": 1, "s3": 1}) == reference_trail(net, pb, 1)
        assert (3, 0, "d", -1) in net.trail_walk[1]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=300)
    def test_walk_with_chords_equals_solver(self, seed):
        # A state machine whose tree arcs point either way, plus a
        # self-loop and a transition parallel to the first arc under
        # another label: chords that the walk must test for balance and
        # inflow. The trail must equal the solver's, keys in place order.
        rng = random.Random(seed)
        first, *rest = random_two_way_arcs(rng)
        src, _, tgt = first
        loop = rng.choice([src, tgt])
        rest += [(loop, rng.choice("ab"), loop), (src, "c", tgt)]
        rng.shuffle(rest)
        net = state_machine(first, *rest)
        walk = state_machine_walk(net)
        assert walk is not None and len(walk[2]) >= 2
        for _ in range(8):
            pb = random_place_behavior(rng, "abc")
            rises = {"a": rng.choice((0, 0, 1, -1)), "b": rng.choice((0, 0, 1, -1))}
            rises["c"] = rises[first[1]]  # c runs parallel to the first arc
            consume, produce = {l: -r for l, r in rises.items() if r < 0}, {l: r for l, r in rises.items() if r > 0}
            point = reference_trail(net, behavior(consume, produce, rng.randint(0, 2)), 4)
            if point is not None and rng.random() < 0.7:  # a trail read off as a behaviour
                point = {p: point[p] for p in net.net.places}
                pb = behavior_at(net, point, rng)
                if rng.random() < 0.5:  # one token more than a label's least inflow: only inflow rows break
                    label = rng.choice([step[2] for step in walk[1] if step[3] < 0] or list(net.labels.values()))
                    least = min(net_inflow(net, point, e) for e in net.net.transitions if net.labels[e] == label)
                    pb = PlaceBehavior(
                        {**pb.consume, label: least + 1}, {**pb.produce, label: least + 1 + pb.rise(label)}, pb.initial
                    )
            bound = rng.randint(0, 3)
            got = _trail_by_walk(net, walk, pb, bound)
            want = reference_trail(net, pb, bound)
            assert got == want
            assert got is None or list(got) == list(want)

    @pytest.mark.parametrize("name", NOT_STATE_MACHINES)
    def test_other_nets_take_the_solver(self, name, monkeypatch):
        net = NOT_STATE_MACHINES[name]()
        pb = behavior({"a": 1}, {"b": 1}, 1)
        solves = counting_solves(monkeypatch)
        got = find_token_trail(net, pb, 2)
        assert len(solves) == 1
        assert net.trail_walk is None
        assert got == reference_trail(net, pb, 2)


class TestIsEnabled:
    def test_isolated_place_model(self):
        model = model_net(PetriNet(("p",), ("a", "b"), Multiset()), Multiset())
        verdict = is_enabled(model, make_e_seq())
        assert verdict
        assert verdict.witnesses == {"p": Multiset()}

    def test_model_simulates_itself(self):
        ln = make_e_seq()
        model = model_net(
            PetriNet(("x0", "x1", "x2"), ("a", "b"),
                     Multiset({("x0", "a"): 1, ("a", "x1"): 1, ("x1", "b"): 1, ("b", "x2"): 1})),
            Multiset({"x0": 1}),
        )
        verdict = is_enabled(model, ln)
        assert verdict
        assert verdict.witnesses["x0"] == Multiset({"c0": 1})
        assert verdict.witnesses["x1"] == Multiset({"c1": 1})
        assert verdict.witnesses["x2"] == Multiset({"c2": 1})

    def test_unsatisfiable_place_reported(self):
        model = model_net(
            PetriNet(("p",), ("a", "b"), Multiset({("p", "a"): 1})), Multiset()
        )
        verdict = is_enabled(model, make_e_seq())
        assert not verdict
        assert verdict.not_shown[0] == "p"
        assert verdict.not_shown == ("p",)

    def test_unknown_label_rejected(self):
        model = model_net(PetriNet(("p",), ("a",), Multiset()), Multiset())
        with pytest.raises(ValueError, match="unknown label"):
            is_enabled(model, make_e_seq())  # spec uses label b too

    def test_place_behaviors_are_read_once_outside_equality_and_repr(self):
        def model():
            return model_net(
                PetriNet(("p", "q"), ("a", "b"), Multiset({("p", "a"): 1, ("a", "q"): 1, ("q", "b"): 2})),
                Multiset({"p": 1}),
            )

        searched, fresh = model(), model()
        assert is_enabled(searched, make_e_seq()).not_shown == ("q",)
        behaviors = searched.place_behaviors
        assert list(behaviors) == ["p", "q"] and not hasattr(fresh, "place_behaviors")
        assert searched == fresh
        assert repr(searched) == repr(fresh)
        assert is_enabled(searched, make_e_seq()).not_shown == ("q",)  # a second spec net
        assert searched.place_behaviors is behaviors
        assert behaviors["q"] == _place_behaviors(fresh)["q"] == behavior({"b": 2}, {"a": 1})

    def test_duplicate_model_labels_rejected(self):
        model = LabelledNet(PetriNet(("p",), ("t1", "t2"), Multiset()), Multiset(), {"t1": "a", "t2": "a"})
        with pytest.raises(ValueError, match="duplicate transition label in model: 'a'"):
            is_enabled(model, make_e_seq())

    def test_transition_ids_permuted_among_labels(self):
        # A parsed model whose transition ids are its labels in another
        # order (the one labelled a is named b, and so on) gets the
        # verdicts of the model as written.
        traces = [("a", "b", "c"), ("a", "c", "b")]
        model, permuted = permuted_model(traces)
        assert all(t != label for t, label in permuted.labels.items())
        for spec_net in (trace_to_labelled_net(("a", "b", "c", "b")), *map(trace_to_labelled_net, traces)):
            assert is_enabled(permuted, spec_net) == is_enabled(model, spec_net)
        assert is_enabled(permuted, trace_to_labelled_net(("a", "b", "c", "b"))).not_shown == ("p3",)

    def test_place_behaviors_read_weights(self):
        model = model_net(
            PetriNet(("p",), ("a", "b"), Multiset({("p", "a"): 2, ("b", "p"): 3})),
            Multiset({"p": 1}),
        )
        pb = _place_behaviors(model)["p"]
        assert pb.consume == {"a": 2}
        assert pb.produce == {"b": 3}
        assert pb.initial == 1


class TestCompactTokenFlows:
    def run_pair(self):
        return Run(("v1", "v2"), (("v1", "v2"),), {"v1": "a", "v2": "b"})

    def test_valid_flow(self):
        run = self.run_pair()
        pb = behavior({"b": 1}, {"a": 1}, 0)
        assert is_valid_compact_token_flow(run, {("v1", "v2"): 1}, pb)

    def test_labels_for_unknown_events_rejected(self):
        with pytest.raises(ValueError, match=r"labels for unknown events: \['v9'\]"):
            Run(("v1",), (), {"v1": "a", "v9": "b"})

    def test_empty_run(self):
        run = Run((), (), {})
        assert is_valid_compact_token_flow(run, {}, behavior())

    def test_zero_flow_fails_inflow_at_second_event(self):
        run = self.run_pair()
        pb = behavior({"b": 1}, {"a": 1}, 0)
        verdict = is_valid_compact_token_flow(run, {}, pb)
        assert not verdict
        assert verdict.condition == "inflow"
        assert verdict.witness == "v2"

    def test_initial_sum_counts_source_slots(self):
        run = self.run_pair()
        pb = behavior(initial=2)
        flow = {(SOURCE, "v1"): 1, ("v1", SINK): 1, (SOURCE, "v2"): 1, ("v2", SINK): 1}
        assert is_valid_compact_token_flow(run, flow, pb)

    def test_domain_mismatch_rejected(self):
        run = self.run_pair()
        with pytest.raises(ValueError, match="outside the run"):
            is_valid_compact_token_flow(run, {("v2", "v1"): 1}, behavior())

    def test_flow_domain_layout(self):
        run = self.run_pair()
        assert flow_domain(run) == (
            (SOURCE, "v1"),
            (SOURCE, "v2"),
            ("v1", "v2"),
            ("v1", SINK),
            ("v2", SINK),
        )


class TestFlowTrailCorrespondence:
    def test_random_assignments_agree(self):
        # same values read as a flow on the run and as a trail on the
        # converted net must give the same verdict
        rng = random.Random(555)
        for _ in range(60):
            run = random_run(rng)
            net = run_to_labelled_net(run)
            pb = random_place_behavior(rng, "abc")
            domain = flow_domain(run)
            place_of = slot_place_ids(run)
            for _ in range(15):
                values = [rng.randint(0, 2) for _ in domain]
                flow = dict(zip(domain, values))
                trail = Multiset({place_of[s]: v for s, v in flow.items() if v})
                as_flow = is_valid_compact_token_flow(run, flow, pb)
                as_trail = is_valid_token_trail(net, trail, pb)
                assert bool(as_flow) == bool(as_trail)

    def test_found_trail_maps_back_to_valid_flow(self):
        rng = random.Random(556)
        for _ in range(40):
            run = random_run(rng)
            net = run_to_labelled_net(run)
            pb = random_place_behavior(rng, "abc")
            trail = find_token_trail(net, pb, 3)
            if trail is None:
                continue
            flow = {slot: trail[p] for slot, p in slot_place_ids(run).items()}
            assert is_valid_compact_token_flow(run, flow, pb)


class TestStateGraphEnabled:
    def test_chain_enabled_on_e_seq(self):
        sg = StateGraph(("s0", "s1", "s2"), "s0", (("s0", "a", "s1"), ("s1", "b", "s2")))
        verdict = check_state_graph_enabled(make_e_seq(), sg)
        assert verdict
        assert verdict.mapping["s2"] == Multiset({"c2": 1})

    def test_arcs_listed_before_their_source_is_reached(self):
        forward = StateGraph(("s0", "s1", "s2"), "s0", (("s0", "a", "s1"), ("s1", "b", "s2")))
        reversed_arcs = StateGraph(forward.states, "s0", forward.arcs[::-1])
        verdict = check_state_graph_enabled(make_e_seq(), reversed_arcs)
        assert verdict
        assert verdict.mapping == check_state_graph_enabled(make_e_seq(), forward).mapping

    def test_single_state_graph(self):
        sg = StateGraph(("s0",), "s0", ())
        verdict = check_state_graph_enabled(make_e_seq(), sg)
        assert verdict
        assert verdict.mapping == {"s0": Multiset({"c0": 1})}

    def test_disabled_arc_fails(self):
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "b", "s1"),))
        verdict = check_state_graph_enabled(make_e_seq(), sg)
        assert not verdict
        assert "not enabled" in verdict.reason

    def test_inconsistent_paths_fail(self):
        # same target state reached with different markings
        net = PetriNet(("p", "q"), ("t", "u"), Multiset({("t", "p"): 1, ("u", "q"): 1}))
        model = model_net(net, Multiset())
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "t", "s1"), ("s0", "u", "s1")))
        verdict = check_state_graph_enabled(model, sg)
        assert not verdict
        assert "inconsistent" in verdict.reason

    def test_duplicate_marking_fails_injectivity(self):
        # t is disconnected, so both states map to the initial marking
        net = PetriNet(("p",), ("t",), Multiset())
        model = model_net(net, Multiset({"p": 1}))
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "t", "s1"),))
        verdict = check_state_graph_enabled(model, sg)
        assert not verdict
        assert "not injective" in verdict.reason

    def test_unknown_label_fails(self):
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "x", "s1"),))
        verdict = check_state_graph_enabled(make_e_seq(), sg)
        assert not verdict
        assert verdict.reason == "unknown label: 'x'"

    def test_duplicate_model_labels_rejected(self):
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "a", "s1"),))
        with pytest.raises(ValueError, match="duplicate transition label in model: 'a'"):
            check_state_graph_enabled(make_e_dup(), sg)

    def test_transition_ids_permuted_among_labels(self):
        # Arcs name labels, so a model whose transition ids are its labels
        # in another order maps each graph as the model as written does,
        # and as is_enabled on the converted graph says.
        model, permuted = permuted_model([("a", "b", "c"), ("a", "c", "b")])
        graphs = [
            StateGraph(("s0", "s1", "s2", "s3"), "s0", (("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3"))),
            StateGraph(("s0", "s1"), "s0", (("s0", "b", "s1"),)),
        ]
        for sg in graphs:
            direct = check_state_graph_enabled(permuted, sg)
            assert direct == check_state_graph_enabled(model, sg)
            assert bool(direct) == bool(is_enabled(permuted, state_graph_to_labelled_net(sg)))
        assert check_state_graph_enabled(permuted, graphs[0])
        assert check_state_graph_enabled(permuted, graphs[1]).reason == "not enabled: 'b' at state 's0'"

    def test_unreachable_state_fails(self):
        # The StateGraph constructor rejects the graph, so no unreachable
        # state reaches the check.
        with pytest.raises(ValueError, match="^unreachable state: 's1'$"):
            StateGraph(("s0", "s1", "s2"), "s0", (("s1", "a", "s2"),))

    def test_agrees_with_conversion_plus_is_enabled(self):
        # graph-level check and net-level check coincide on desk examples
        cases = [
            StateGraph(("s0", "s1", "s2"), "s0", (("s0", "a", "s1"), ("s1", "b", "s2"))),
            StateGraph(("s0", "s1"), "s0", (("s0", "a", "s1"),)),
            StateGraph(("s0", "s1"), "s0", (("s0", "b", "s1"),)),
            StateGraph(("s0",), "s0", (("s0", "a", "s0"),)),
        ]
        ln = make_e_seq()
        model = model_net(
            PetriNet(("x0", "x1", "x2"), ("a", "b"),
                     Multiset({("x0", "a"): 1, ("a", "x1"): 1, ("x1", "b"): 1, ("b", "x2"): 1})),
            Multiset({"x0": 1}),
        )
        for sg in cases:
            direct = bool(check_state_graph_enabled(model, sg))
            via_net = bool(is_enabled(model, state_graph_to_labelled_net(sg)))
            assert direct == via_net, sg
