import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_dup, make_e_seq, make_e_two_a, make_e_two_b, spec_of
import oracles
from gens import random_labelled_net, random_specification, random_state_graph, random_two_way_arcs
from oracles import (
    block_region,
    brute_force_minimal_regions,
    check_assignment,
    first_region_violation,
    induced_place,
    is_region_point,
    raw_region_model,
    reference_bnb,
    regions_round_by_round,
)
from ttsynth import ilp
from ttsynth.convert import state_graph_to_labelled_net, trace_to_labelled_net
from ttsynth.core import LabelledNet, Multiset, PetriNet, StateGraph, build_specification
from ttsynth.regions import (
    MODES,
    Region,
    RegionEnumeration,
    RegionProblem,
    build_base_model,
    discovery_final_places,
    enumerate_minimal_regions,
    parikh_classes,
    _discovery_order,
    verify_region,
)


def markings(enumeration):
    return [dict(r.marking.items()) for r in enumeration.regions]


def cold_enumeration(problem: RegionProblem, model: ilp.IlpModel, classes) -> tuple[RegionEnumeration, int]:
    """Reference enumeration over `model`, whose variables are the classes
    of `classes` (place -> class): solve, record and block round by round
    (oracles.regions_round_by_round). Also the nodes of its searches."""
    found, truncated, nodes = regions_round_by_round(model, classes, problem.k, problem.max_regions)
    return RegionEnumeration(tuple(Region(Multiset(m), problem.k) for m in found), truncated), nodes


def raw_enumeration(problem: RegionProblem) -> tuple[RegionEnumeration, int]:
    """Reference enumeration over the raw model (oracles.raw_region_model),
    one variable per place and no classes, and the nodes of its searches."""
    return cold_enumeration(problem, raw_region_model(problem), singletons(problem.spec))


def singletons(spec) -> dict[str, str]:
    """The partition with one class per place."""
    return {p: p for p in spec.all_places()}


def class_model(problem: RegionProblem) -> ilp.IlpModel:
    """The model enumeration solves: over the Parikh classes."""
    return build_base_model(problem, parikh_classes(problem.spec))


def row_keys(constraints) -> list:
    return [(frozenset(c.terms.items()), c.relation, c.rhs) for c in constraints]


@st.composite
def trace_logs_with_nets(draw):
    """Random trace nets (clashing ids renamed n1.c0, ...) mixed with up
    to two random labelled nets and up to two converted random state
    graphs, whose places merge within and across graphs, in random
    order."""
    traces = draw(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=4), min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nets = [trace_to_labelled_net(t) for t in traces]
    for i in range(draw(st.integers(0, 2))):
        nets.append(random_labelled_net(rng, f"r{i}", rng.randint(1, 3), rng.randint(0, 3)))
    for _ in range(draw(st.integers(0, 2))):
        nets.append(state_graph_to_labelled_net(random_state_graph(rng, max_states=5, max_arcs=7)))
    rng.shuffle(nets)
    return build_specification(nets)


class TestBuildBaseModel:
    """The rows over one class per place; the seek row comes last."""

    def test_e_seq_counts(self):
        spec = spec_of(make_e_seq())
        model = build_base_model(RegionProblem(spec, 1), singletons(spec))
        assert [v.id for v in model.variables] == ["c0", "c1", "c2"]
        assert all((v.lower, v.upper) == (0, 1) for v in model.variables)
        # labels unique, single net: the seek row alone
        assert row_keys(model.constraints) == [(frozenset({"c0": 1, "c1": 1, "c2": 1}.items()), ilp.GE, 1)]

    def test_e_dup_rise_equality(self):
        spec = spec_of(make_e_dup())
        model = build_base_model(RegionProblem(spec, 1), singletons(spec))
        assert len(model.variables) == 3
        assert len(model.constraints) == 2
        con = model.constraints[0]
        assert con.relation == ilp.EQ and con.rhs == 0
        # rise(e1) = rise(e2) collapses to -c0 + 2 c1 - c2 = 0
        assert con.terms == {"c0": -1, "c1": 2, "c2": -1}

    def test_e_two_rise_and_initial_sum(self):
        spec = spec_of(make_e_two_a(), make_e_two_b())
        model = build_base_model(RegionProblem(spec, 1), singletons(spec))
        assert len(model.variables) == 4
        assert len(model.constraints) == 3
        rise_eq, initial_eq, _ = model.constraints
        assert rise_eq.terms == {"d1": 1, "d0": -1, "g1": -1, "g0": 1}
        assert initial_eq.terms == {"d0": 1, "g0": -1}

    def test_discovery_adds_final_zero(self):
        spec = spec_of(make_e_seq())
        model = build_base_model(RegionProblem(spec, 1, "discovery"), singletons(spec))
        final, seek = model.constraints[-2:]
        assert final.terms == {"c2": 1}
        assert final.relation == ilp.EQ
        assert final.rhs == 0
        assert seek.relation == ilp.GE and seek.terms == {"c0": 1, "c1": 1, "c2": 1}

    def test_discovery_without_unique_final_errors(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("t", "p"): 1, ("t", "q"): 1}))
        ln = LabelledNet(net, Multiset(), {"t": "a"})
        spec = spec_of(ln)
        with pytest.raises(ValueError, match="no unique final place"):
            build_base_model(RegionProblem(spec, 1, "discovery"), singletons(spec))
        with pytest.raises(ValueError, match="no unique final place"):
            raw_region_model(RegionProblem(spec, 1, "discovery"))

    def test_bound_is_k(self):
        spec = spec_of(make_e_seq())
        model = build_base_model(RegionProblem(spec, 3), singletons(spec))
        assert all(v.upper == 3 for v in model.variables)


class TestSeekAndBlocking:
    def test_first_objectives(self):
        for nets, expected in [
            ((make_e_seq(),), 1),
            ((make_e_dup(),), 3),
            ((make_e_two_a(), make_e_two_b()), 2),
        ]:
            problem = RegionProblem(spec_of(*nets), 1)
            for model in (class_model(problem), raw_region_model(problem)):
                seek = model.constraints[-1].terms
                point, _ = reference_bnb(model, seek)
                assert sum(c * point[v] for v, c in seek.items()) == expected

    def test_e_dup_blocked_becomes_infeasible(self):
        spec = spec_of(make_e_dup())
        model = class_model(RegionProblem(spec, 1))
        assert ilp.solve(block_region(model, {"c0": 1, "c1": 1, "c2": 1}, 1, 1)) is None

    def test_e_seq_blocking_sequence(self):
        spec = spec_of(make_e_seq())
        model = class_model(RegionProblem(spec, 1))
        point, _ = reference_bnb(block_region(model, {"c0": 1}, 1, 1), model.constraints[-1].terms)
        region_part = {p: point[p] for p in ("c0", "c1", "c2")}
        assert region_part == {"c0": 0, "c1": 1, "c2": 0}

    def test_k1_binaries_collapse_to_complement(self):
        # with k=1 the added inequalities force flag = 1 - place
        spec = spec_of(make_e_seq())
        model = class_model(RegionProblem(spec, 1))
        blocked = block_region(model, {"c0": 1}, 1, 1)
        flag = [v.id for v in blocked.variables if isinstance(v.id, tuple)][0]
        lo_hi = [(c.relation, c.rhs) for c in blocked.constraints if flag in c.terms and "c0" in c.terms]
        for p0 in (0, 1):
            for x in (0, 1):
                fits = all(
                    (p0 + 1 * x >= rhs) if rel == ilp.GE else (p0 + 1 * x <= rhs)
                    for rel, rhs in lo_hi
                )
                assert fits == (x == 1 - p0)

    def test_blocking_zero_region_rejected(self):
        spec = spec_of(make_e_seq())
        model = class_model(RegionProblem(spec, 1))
        with pytest.raises(ValueError):
            block_region(model, {}, 1, 1)

    def test_blocking_accepts_exactly_smaller_assignments(self):
        # sweep every (place, flag) assignment on a small k=2 model
        spec = spec_of(make_e_dup())
        base = class_model(RegionProblem(spec, 2))
        found = {"c0": 2, "c1": 1}
        blocked = block_region(base, found, 2, 1)
        flags = [v.id for v in blocked.variables if isinstance(v.id, tuple)]
        block_rows = blocked.constraints[len(base.constraints):]
        places = ("c0", "c1", "c2")
        for point in itertools.product(range(3), repeat=3):
            assignment = dict(zip(places, point))
            satisfiable = any(
                all(
                    (
                        sum(c * {**assignment, **dict(zip(flags, flag_vals))}[v] for v, c in con.terms.items())
                        >= con.rhs
                        if con.relation == ilp.GE
                        else sum(c * {**assignment, **dict(zip(flags, flag_vals))}[v] for v, c in con.terms.items())
                        <= con.rhs
                    )
                    for con in block_rows
                )
                for flag_vals in itertools.product((0, 1), repeat=len(flags))
            )
            strictly_smaller_somewhere = any(
                assignment[p] < found.get(p, 0) for p in places if found.get(p, 0) > 0
            )
            assert satisfiable == strictly_smaller_somewhere, point

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flags_satisfy_the_blocking_rows(self, k):
        # a point extended with its flags (1 exactly where it lies below the
        # blocked point) satisfies the rows that block_region appends
        # exactly when the blocking admits it at all
        base = ilp.IlpModel((ilp.Variable("a", 0, k), ilp.Variable("b", 0, k)))
        for found in itertools.product(range(k + 1), repeat=2):
            if not any(found):
                continue
            blocked = block_region(base, {v: s for v, s in zip("ab", found) if s}, k, 1)
            ids = [v.id for v in blocked.variables]
            block = [(i, s) for i, s in enumerate(found) if s]
            for point in itertools.product(range(k + 1), repeat=2):
                flags = [1 if point[i] < s else 0 for i, s in block]
                admitted = any(point[i] < s for i, s in block)
                assert bool(check_assignment(blocked, dict(zip(ids, list(point) + flags)))) == admitted


class TestEnumerate:
    def test_e_seq_k1(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_seq()), 1))
        assert markings(res) == [{"c0": 1}, {"c1": 1}, {"c2": 1}]
        assert not res.truncated

    def test_e_dup_k1(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_dup()), 1))
        assert markings(res) == [{"c0": 1, "c1": 1, "c2": 1}]

    def test_e_dup_k2(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_dup()), 2))
        assert markings(res) == [
            {"c0": 2, "c1": 1},
            {"c0": 1, "c1": 1, "c2": 1},
            {"c1": 1, "c2": 2},
        ]

    def test_e_two_k1(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_two_a(), make_e_two_b()), 1))
        assert markings(res) == [{"d0": 1, "g0": 1}, {"d1": 1, "g1": 1}]

    def test_every_region_verifies(self):
        rng = random.Random(11)
        for _ in range(30):
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            res = enumerate_minimal_regions(RegionProblem(spec, k))
            for region in res.regions:
                assert verify_region(spec, region)

    def test_matches_brute_force(self):
        rng = random.Random(22)
        for _ in range(40):
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            res = enumerate_minimal_regions(RegionProblem(spec, k))
            got = {r.marking for r in res.regions}
            assert got == brute_force_minimal_regions(spec, k)

    def test_max_regions_truncates(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_seq()), 1, max_regions=2))
        assert len(res.regions) == 2
        assert res.truncated

    def test_max_regions_not_flagged_when_complete(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_seq()), 1, max_regions=3))
        assert len(res.regions) == 3
        assert not res.truncated

    def test_discovery_keeps_finals_empty(self):
        res = enumerate_minimal_regions(RegionProblem(spec_of(make_e_seq()), 1, "discovery"))
        assert markings(res) == [{"c0": 1}, {"c1": 1}]
        finals = discovery_final_places(spec_of(make_e_seq()))
        for region in res.regions:
            for place in finals.values():
                assert region.marking[place] == 0

    def test_discovery_matches_brute_force(self):
        rng = random.Random(33)
        checked = 0
        for _ in range(60):
            spec = random_specification(rng)
            try:
                finals = discovery_final_places(spec)
            except ValueError:
                continue
            k = rng.randint(1, 2)
            res = enumerate_minimal_regions(RegionProblem(spec, k, "discovery"))
            got = {r.marking for r in res.regions}
            assert got == brute_force_minimal_regions(spec, k, finals)
            checked += 1
        assert checked >= 10


    def test_placeless_specification_has_no_regions(self):
        # the seek row keeps the model infeasible, although it has no terms;
        # the rise and initial-sum rows of the two nets are 0 == 0
        ln = LabelledNet(PetriNet((), ("t",), Multiset()), Multiset(), {"t": "a"})
        problem = RegionProblem(spec_of(ln, ln), 1)
        model = class_model(problem)
        assert model.variables == ()
        assert row_keys(model.constraints) == [(frozenset(), ilp.GE, 1)]
        assert enumerate_minimal_regions(problem) == RegionEnumeration((), truncated=False)


class TestVerifyRegion:
    def test_e_dup_uniform_is_valid(self):
        assert verify_region(spec_of(make_e_dup()), Region(Multiset({"c0": 1, "c1": 1, "c2": 1}), 1))

    def test_zero_region_is_valid(self):
        assert verify_region(spec_of(make_e_seq()), Region(Multiset(), 1))

    def test_unequal_rise_detected(self):
        verdict = verify_region(spec_of(make_e_dup()), Region(Multiset({"c0": 1}), 1))
        assert not verdict
        assert verdict.condition == "rise"
        assert verdict.witness == "e1/e2"

    def test_unequal_initial_sums_detected(self):
        spec = spec_of(make_e_two_a(), make_e_two_b())
        # both rises are 0, but only net 1 carries an initial token
        verdict = verify_region(spec, Region(Multiset({"d0": 1, "d1": 1}), 1))
        assert not verdict
        assert verdict.condition == "initial-sum"

    def test_bound_violation_detected(self):
        verdict = verify_region(spec_of(make_e_seq()), Region(Multiset({"c0": 2}), 1))
        assert not verdict and verdict.condition == "bound"

    def test_agrees_with_direct_condition_check(self):
        rng = random.Random(44)
        for _ in range(25):
            spec = random_specification(rng, max_places=4)
            places = spec.all_places()
            for _ in range(20):
                point = {p: rng.randint(0, 2) for p in places}
                region = Region(Multiset({p: v for p, v in point.items() if v}), 2)
                assert bool(verify_region(spec, region)) == is_region_point(spec, point, 2)
                support = dict(region.marking.items())
                for k in (1, 2):
                    verdict = verify_region(spec, Region(region.marking, k))
                    assert (verdict.condition, verdict.witness) == first_region_violation(spec, support, k)
                    assert (verdict.place is not None) == bool(verdict)


    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300)
    def test_support_walk_matches_dense_oracle(self, seed):
        # Random regions on a few places of larger specifications, most of
        # them invalid: the verdict, its witness and the induced place, in
        # its dict order, are those of a walk over every transition.
        rng = random.Random(seed)
        spec = random_specification(rng, max_places=9, max_transitions=8)
        places = spec.all_places()
        k = rng.randint(1, 2)
        support = {p: rng.randint(1, 3) for p in rng.sample(places, rng.randint(0, min(3, len(places))))}
        verdict = verify_region(spec, Region(Multiset(support), k))
        condition, witness = first_region_violation(spec, support, k)
        assert (bool(verdict), verdict.condition, verdict.witness) == (condition is None, condition, witness)
        if verdict:
            place = verdict.place
            assert (list(place.consume.items()), list(place.produce.items()), place.initial) == induced_place(spec, support)
        assert "region_index" not in repr(spec) and spec == build_specification(list(spec.nets))

    def test_unknown_places_rejected(self):
        with pytest.raises(ValueError, match="unknown places"):
            verify_region(spec_of(make_e_seq()), Region(Multiset({"c0": 1, "zz": 1}), 1))


class TestDiscoveryFinalPlaces:
    def test_e_seq_final(self):
        assert discovery_final_places(spec_of(make_e_seq())) == {0: "c2"}

    def test_e_two_finals(self):
        finals = discovery_final_places(spec_of(make_e_two_a(), make_e_two_b()))
        assert finals == {0: "d1", 1: "g1"}

    def test_two_sinks_rejected(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("t", "p"): 1, ("t", "q"): 1}))
        ln = LabelledNet(net, Multiset(), {"t": "a"})
        with pytest.raises(ValueError, match="no unique final place"):
            discovery_final_places(spec_of(ln))

    def test_override_wins(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("t", "p"): 1, ("t", "q"): 1}))
        ln = LabelledNet(net, Multiset(), {"t": "a"})
        assert discovery_final_places(spec_of(ln), {0: "q"}) == {0: "q"}

    def test_override_must_be_a_place(self):
        with pytest.raises(ValueError, match="override"):
            discovery_final_places(spec_of(make_e_seq()), {0: "zz"})


def blk_named_chain():
    """Trace-shaped net "a b" whose last place id looks like a blocking binary."""
    net = PetriNet(
        ("c0", "c1", "_blk2_c0"),
        ("e_a", "e_b"),
        Multiset({("c0", "e_a"): 1, ("e_a", "c1"): 1, ("c1", "e_b"): 1, ("e_b", "_blk2_c0"): 1}),
    )
    return LabelledNet(net, Multiset({"c0": 1}), {"e_a": "a", "e_b": "b"})


class TestBinaryNames:
    def test_same_regions_as_plain_names(self):
        renamed = enumerate_minimal_regions(RegionProblem(spec_of(blk_named_chain()), 2))
        plain = enumerate_minimal_regions(RegionProblem(spec_of(make_e_seq()), 2))
        rename = {"c0": "c0", "c1": "c1", "_blk2_c0": "c2"}
        assert [{rename[p]: n for p, n in m.items()} for m in markings(renamed)] == markings(plain)


def log_spec(*traces):
    return build_specification([trace_to_labelled_net(t) for t in traces])


def state_machine(*arcs):
    """A state machine with one token on the first arc's source; transition
    i carries arc i = (source, label, target). Nothing needs to be
    reachable from the token."""
    places = tuple(dict.fromkeys(p for src, _, tgt in arcs for p in (src, tgt)))
    transitions = tuple(f"t{i}" for i in range(len(arcs)))
    flow = Multiset({a: 1 for t, (src, _, tgt) in zip(transitions, arcs) for a in ((src, t), (t, tgt))})
    labels = {t: label for t, (_, label, _) in zip(transitions, arcs)}
    return LabelledNet(PetriNet(places, transitions, flow), Multiset({arcs[0][0]: 1}), labels)


class TestParikhClasses:
    def test_trace_log_classes(self):
        spec = log_spec("ab", "ba", "ab")
        assert parikh_classes(spec) == {
            "n1.c0": "n3.c0", "n1.c1": "n3.c1", "n1.c2": "n3.c2",
            "n2.c0": "n3.c0", "n2.c1": "n2.c1", "n2.c2": "n3.c2",
            "n3.c0": "n3.c0", "n3.c1": "n3.c1", "n3.c2": "n3.c2",
        }

    def test_other_nets_stay_singletons(self):
        # e_dup is trace-shaped; a second marked place or a weight-2 arc
        # makes it a net of its own kind
        ln = make_e_dup()
        two_tokens = LabelledNet(ln.net, Multiset({"c0": 1, "c1": 1}), ln.labels)
        heavy = LabelledNet(
            PetriNet(ln.net.places, ln.net.transitions, Multiset({**dict(ln.net.arcs.items()), ("c0", "e1"): 2})),
            ln.initial,
            ln.labels,
        )
        for other in (two_tokens, heavy):
            spec = build_specification([trace_to_labelled_net("aa"), other])
            classes = parikh_classes(spec)
            assert all(c == p for p, c in classes.items())

    def test_branches_on_one_label_merge(self):
        # s0 -a-> s1 and s0 -a-> s2: both hold s0 + rise(a)
        assert parikh_classes(spec_of(state_machine(("s0", "a", "s1"), ("s0", "a", "s2")))) == {
            "s0": "s0", "s1": "s2", "s2": "s2",
        }

    def test_back_and_forth_on_one_label_cancels(self):
        # s0 -a-> s1 <-a- s2: the walk reaches s2 back along a, so s2 holds
        # s0 + rise(a) - rise(a), s0's value
        assert parikh_classes(spec_of(state_machine(("s0", "a", "s1"), ("s2", "a", "s1")))) == {
            "s0": "s2", "s1": "s1", "s2": "s2",
        }

    def test_cycle(self):
        # s0 -a-> s1 -b-> s2 -c-> s0 and s2 -c-> s3: s3 follows s2 by c
        # as s0 does; the walk reaches s2 back along c from s0
        net = state_machine(("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s0"), ("s2", "c", "s3"))
        assert parikh_classes(spec_of(net)) == {"s0": "s3", "s1": "s1", "s2": "s2", "s3": "s3"}
        for k in (1, 2):
            problem = RegionProblem(spec_of(net), k)
            got = enumerate_minimal_regions(problem)
            assert got == raw_enumeration(problem)[0]
            assert all(r.marking["s0"] == r.marking["s3"] for r in got.regions)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300)
    def test_same_classes_as_oracle(self, seed):
        # One or two state machines whose walks take a label backwards
        # after forwards, next to a trace on their labels and maybe a net
        # of another kind: the signed counts must cancel exactly there.
        rng = random.Random(seed)
        nets = [state_machine(*random_two_way_arcs(rng)) for _ in range(rng.randint(1, 2))]
        nets.append(trace_to_labelled_net(rng.choice(["a", "ab", "aba", "b"])))
        if rng.random() < 0.3:
            nets.append(random_labelled_net(rng, "r", rng.randint(1, 3), rng.randint(0, 3), labels="ab"))
        rng.shuffle(nets)
        spec = build_specification(nets)
        assert parikh_classes(spec) == oracles.parikh_classes(spec)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=100)
    def test_class_members_are_equal_in_every_raw_point(self, seed):
        # State machines whose walks take labels both ways (with few
        # cycles, so the labels can rise), a trace and maybe a converted
        # state graph: no point of the raw model (one variable per place),
        # minimal or not, may tell a class member q from its class, so
        # x[q] - x[class] >= 1 and <= -1 are infeasible. A sign error in
        # the walk's counts merges places that some region tells apart.
        rng = random.Random(seed)
        nets = [state_machine(*random_two_way_arcs(rng, max_extra=rng.randint(0, 1))) for _ in range(rng.randint(1, 2))]
        nets.append(trace_to_labelled_net(rng.choice(["a", "ab", "aba", "b"])))
        if rng.random() < 0.3:
            nets.append(state_graph_to_labelled_net(random_state_graph(rng, max_states=4, max_arcs=5, n_labels=2)))
        rng.shuffle(nets)
        spec = build_specification(nets)
        members = [(q, c) for q, c in parikh_classes(spec).items() if q != c]
        for k in (1, 2):
            raw = raw_region_model(RegionProblem(spec, k))
            for q, c in members:
                for relation, rhs in ((ilp.GE, 1), (ilp.LE, -1)):
                    apart = ilp.LinearConstraint({q: 1, c: -1}, relation, rhs)
                    model = ilp.IlpModel(raw.variables, raw.constraints + (apart,))
                    assert reference_bnb(model, {})[0] is None, (q, c, k, relation)

    def test_state_machines_share_classes_with_traces(self):
        # a trace "ab" and the state graph s0 -a-> s1 -b-> s2, s0 -b-> s3:
        # c0 ~ s0, c1 ~ s1, c2 ~ s2 across the nets; the walk is kept on
        # each net for find_token_trail
        sg = state_graph_to_labelled_net(
            StateGraph(("s0", "s1", "s2", "s3"), "s0", (("s0", "a", "s1"), ("s1", "b", "s2"), ("s0", "b", "s3")))
        )
        spec = build_specification([trace_to_labelled_net("ab"), sg])
        assert parikh_classes(spec) == {
            "c0": "s0", "c1": "s1", "c2": "s2", "s0": "s0", "s1": "s1", "s2": "s2", "s3": "s3",
        }
        assert all(ln.trail_walk is not None for ln in spec.nets)

    def test_merged_model_has_one_variable_per_class(self):
        spec = log_spec("ab", "ba", "ab", "ba")
        raw = raw_region_model(RegionProblem(spec, 2))
        merged = class_model(RegionProblem(spec, 2))
        assert [v.id for v in merged.variables] == ["n3.c1", "n4.c0", "n4.c1", "n4.c2"]
        seek = [c for c in merged.constraints if c.relation == ilp.GE]
        assert [c.terms for c in seek] == [{"n4.c0": 4, "n3.c1": 2, "n4.c1": 2, "n4.c2": 4}]
        # 4 rise rows of nets 3 and 4 and the 3 initial-sum rows become
        # 0 == 0 or repeat net 2's rows; one rise row per label is left
        assert len(raw.constraints) == 10
        assert len(merged.constraints) == 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_singletons_give_the_raw_rows(self, k):
        # over singletons the rows are the raw model's, in order, minus rows
        # without terms and repeats
        rng = random.Random(5)
        cases = [(log_spec("abcab"), MODES), (spec_of(make_e_dup()), MODES)]
        cases += [(random_specification(rng), ("synthesis",)) for _ in range(20)]
        for spec, modes in cases:
            classes = parikh_classes(spec)
            assert list(classes.values()) == list(spec.all_places())
            for mode in modes:
                problem = RegionProblem(spec, k, mode)
                raw = raw_region_model(problem)
                model = build_base_model(problem, classes)
                expected = list(dict.fromkeys(key for key in row_keys(raw.constraints) if key[0]))
                assert row_keys(model.constraints) == expected
                assert model.variables == raw.variables

    def test_clashing_ids_inside_merged_classes(self):
        # renamed ids n1.c0, ... and a net whose ids look like both renamed
        # ids and blocking binaries share classes
        odd = trace_to_labelled_net("ab")
        mapping = {p: f"_blk1_n3.{p}" for p in odd.net.places}
        odd = LabelledNet(
            PetriNet(
                tuple(mapping[p] for p in odd.net.places),
                odd.net.transitions,
                Multiset({(mapping.get(s, s), mapping.get(t, t)): w for (s, t), w in odd.net.arcs.items()}),
            ),
            Multiset({mapping["c0"]: 1}),
            odd.labels,
        )
        spec = build_specification([trace_to_labelled_net("ab"), trace_to_labelled_net("ba"), odd])
        classes = parikh_classes(spec)
        assert classes["n1.c0"] == classes["n2.c0"] == "_blk1_n3.c0"
        assert classes["n1.c2"] == classes["n2.c2"] == "_blk1_n3.c2"
        assert classes["n1.c1"] == "_blk1_n3.c1" and classes["n2.c1"] == "n2.c1"
        for k in (1, 2):
            for mode in MODES:
                problem = RegionProblem(spec, k, mode)
                got = enumerate_minimal_regions(problem)
                assert got == raw_enumeration(problem)[0]
                assert got.regions
                for region in got.regions:
                    assert verify_region(spec, region)
                    assert all(region.marking[p] == region.marking[c] for p, c in classes.items())


class TestSameAsRawModel:
    @settings(deadline=None, max_examples=150)
    @given(
        spec=trace_logs_with_nets(),
        k=st.integers(1, 2),
        mode=st.sampled_from(MODES),
        max_regions=st.none() | st.integers(1, 4),
    )
    def test_region_list_and_order(self, spec, k, mode, max_regions):
        problem = RegionProblem(spec, k, mode, max_regions)
        try:
            expected, _ = raw_enumeration(problem)
        except ValueError:  # discovery without a unique final place
            with pytest.raises(ValueError):
                enumerate_minimal_regions(problem)
            return
        assert enumerate_minimal_regions(problem) == expected


@st.composite
def logs_with_free_classes(draw):
    """A trace over a, b, c with its first label repeated at its end, so a
    rise row links some classes; a trace u0 u1 whose labels occur nowhere
    else, so its middle class is named by no row but the seek row (free),
    even in discovery mode; now and then a converted random state graph of
    at most two states. In random order, at most 9 places."""
    trace = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=2))
    nets = [trace_to_labelled_net([*trace, trace[0]]), trace_to_labelled_net(["u0", "u1"])]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        nets.append(state_graph_to_labelled_net(random_state_graph(rng, max_states=2, max_arcs=3)))
    return build_specification(draw(st.permutations(nets)))


class TestFreeClasses:
    @settings(deadline=None, max_examples=40)
    @given(logs_with_free_classes())
    def test_free_classes_next_to_linked_ones(self, spec):
        # A free class is a minimal region on its own and the rest are
        # searched without it: the regions and their order are those of
        # the raw model and the set that of exhaustive search.
        for mode in MODES:
            for k in (1, 2):
                problem = RegionProblem(spec, k, mode)
                try:
                    finals = discovery_final_places(spec) if mode == "discovery" else None
                except ValueError:  # discovery without a unique final place
                    with pytest.raises(ValueError):
                        enumerate_minimal_regions(problem)
                    continue
                *rows, _ = class_model(problem).constraints
                named = {c for row in rows for c in row.terms}
                assert named and set(parikh_classes(spec).values()) - named
                got = enumerate_minimal_regions(problem)
                assert got == raw_enumeration(problem)[0]
                assert {r.marking for r in got.regions} == brute_force_minimal_regions(spec, k, finals)


point_sets = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=12),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


class TestDiscoveryOrder:
    @given(point_sets)
    @settings(deadline=None, max_examples=300)
    def test_same_order_as_sorting_by_rounds(self, case):
        # Any points, ties, repeats and several objective groups included.
        points, objective = case
        assert _discovery_order(points, objective) == oracles.discovery_order_by_rounds(points, objective)

    @given(point_sets, st.data())
    @settings(deadline=None, max_examples=300)
    def test_order_does_not_depend_on_input_order(self, case, data):
        # Enumeration merges the points of free classes with those of the
        # search, so the order must not depend on which come first.
        points, objective = case
        shuffled = data.draw(st.permutations(points))
        assert _discovery_order(shuffled, objective) == _discovery_order(points, objective)
