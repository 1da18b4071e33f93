import random

import pytest

from fixture_nets import make_concurrent_chains, make_e_dup, make_e_seq, make_e_two_a, make_e_two_b, spec_of
from gens import random_specification
from oracles import brute_force_minimal_regions, initial_sum, lts_isomorphic, net_inflow, net_rise, relabel_arcs
from ttsynth.convert import trace_to_labelled_net
from ttsynth.core import LabelledNet, Multiset, PetriNet, enabled_transitions, fire, reachability_graph
from ttsynth.regions import Region, RegionProblem
from ttsynth.semantics import is_valid_token_trail
from ttsynth.synthesis import PlaceDefinition, dedupe_places, place_from_region, synthesize


class TestPlaceFromRegion:
    def test_e_seq_initial_place(self):
        spec = spec_of(make_e_seq())
        place = place_from_region(spec, Region(Multiset({"c0": 1}), 1))
        assert place.consume == {"a": 1}
        assert place.produce == {}
        assert "b" not in place.consume and "b" not in place.produce
        assert place.initial == 1

    def test_zero_region_gives_zero_place(self):
        spec = spec_of(make_e_seq())
        place = place_from_region(spec, Region(Multiset(), 1))
        assert place.is_zero()

    def test_e_dup_minimum_inflow_wins(self):
        spec = spec_of(make_e_dup())
        place = place_from_region(spec, Region(Multiset({"c0": 2, "c1": 1}), 2))
        assert place.consume == {"a": 1}  # min(in(e1)=2, in(e2)=1)
        assert place.produce == {}  # consume + rise = 1 + (-1)
        assert place.initial == 2

    def test_invalid_region_rejected(self):
        spec = spec_of(make_e_dup())
        with pytest.raises(ValueError, match="invalid region"):
            place_from_region(spec, Region(Multiset({"c0": 1}), 1))

    def test_rise_consistent_however_read(self):
        rng = random.Random(5)
        for _ in range(30):
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            for marking in brute_force_minimal_regions(spec, k):
                region = Region(marking, k)
                place = place_from_region(spec, region)
                point = dict(marking.items())
                for ln in spec.nets:
                    for e in ln.net.transitions:
                        label = ln.labels[e]
                        expected_rise = place.produce.get(label, 0) - place.consume.get(label, 0)
                        assert net_rise(ln, point, e) == expected_rise

    def test_labels_keep_first_occurrence_order(self):
        # "c b a" with c1..c3 marked: c fills the place, b and a read it
        spec = spec_of(trace_to_labelled_net(("c", "b", "a")))
        place = place_from_region(spec, Region(Multiset({"c1": 1, "c2": 1, "c3": 1}), 1))
        assert list(place.consume.items()) == [("b", 1), ("a", 1)]
        assert list(place.produce.items()) == [("c", 1), ("b", 1), ("a", 1)]

    def test_consume_is_least_inflow(self):
        rng = random.Random(6)
        for _ in range(30):
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            for marking in brute_force_minimal_regions(spec, k):
                place = place_from_region(spec, Region(marking, k))
                point = dict(marking.items())
                least: dict[str, int] = {}
                rise: dict[str, int] = {}
                for ln in spec.nets:
                    for e in ln.net.transitions:
                        value = net_inflow(ln, point, e)
                        least[ln.labels[e]] = min(least.get(ln.labels[e], value), value)
                        rise.setdefault(ln.labels[e], net_rise(ln, point, e))
                assert place.consume == {label: n for label, n in least.items() if n}
                produce = [(label, n + rise[label]) for label, n in least.items() if n + rise[label]]
                assert list(place.produce.items()) == produce
                assert place.initial == initial_sum(spec.nets[0], point)


class TestDedupe:
    def test_identical_triples_collapse(self):
        a = PlaceDefinition({"a": 1}, {}, 1)
        b = PlaceDefinition({"a": 1}, {}, 1)
        assert dedupe_places([a, b]) == [a]

    def test_initial_distinguishes(self):
        a = PlaceDefinition({"a": 1}, {}, 1)
        b = PlaceDefinition({"a": 1}, {}, 2)
        assert dedupe_places([a, b]) == [a, b]

    def test_e_seq_places_pairwise_distinct(self):
        spec = spec_of(make_e_seq())
        res = synthesize(RegionProblem(spec, 1))
        assert len(dedupe_places(res.places)) == 3


class TestSynthesize:
    def test_e_seq_reproduces_chain(self):
        res = synthesize(RegionProblem(spec_of(make_e_seq()), 1))
        assert res.net.net.transitions == ("a", "b")
        assert res.net.net.places == ("p1", "p2", "p3")
        assert dict(res.net.net.arcs.items()) == {
            ("p1", "a"): 1,
            ("a", "p2"): 1,
            ("p2", "b"): 1,
            ("b", "p3"): 1,
        }
        assert res.net.initial == Multiset({"p1": 1})
        in_graph = relabel_arcs(reachability_graph(make_e_seq().marked(), 50), make_e_seq().labels)
        out_graph = reachability_graph(res.net, 50)
        assert lts_isomorphic(in_graph, out_graph)

    def test_e_dup_k1_short_loop(self):
        res = synthesize(RegionProblem(spec_of(make_e_dup()), 1))
        assert res.net.net.places == ("p1",)
        assert dict(res.net.net.arcs.items()) == {("p1", "a"): 1, ("a", "p1"): 1}
        assert res.net.initial == Multiset({"p1": 1})
        # the loop never blocks: a stays enabled forever
        m = res.net.initial
        for _ in range(5):
            assert enabled_transitions(res.net, m) == {"a"}
            m = fire(res.net, m, "a")

    def test_e_dup_k2_bounds_firings(self):
        res = synthesize(RegionProblem(spec_of(make_e_dup()), 2))
        bounding = [
            p for p in res.places if p.initial == 2 and p.consume == {"a": 1} and p.produce == {}
        ]
        assert len(bounding) == 1
        m = res.net.initial
        m = fire(res.net, m, "a")
        m = fire(res.net, m, "a")
        assert "a" not in enabled_transitions(res.net, m)

    def test_placeless_specification(self):
        # nothing to mark: no region, and a net of bare transitions
        ln = LabelledNet(PetriNet((), ("t",), Multiset()), Multiset(), {"t": "a"})
        res = synthesize(RegionProblem(spec_of(ln), 1))
        assert res.regions == () and res.places == ()
        assert res.net.net.places == () and res.net.net.transitions == ("a",)
        assert not res.truncated

    def test_e_two_result(self):
        res = synthesize(RegionProblem(spec_of(make_e_two_a(), make_e_two_b()), 1))
        assert res.net.net.transitions == ("a",)
        assert [p.key() for p in res.places] == [
            ((("a", 1),), (), 1),
            ((), (("a", 1),), 0),
        ]

    def test_membership_certificate(self):
        # every kept place is witnessed by its region on every input net
        rng = random.Random(17)
        specs = [spec_of(make_e_seq()), spec_of(make_e_dup()), spec_of(make_e_two_a(), make_e_two_b())]
        specs += [random_specification(rng) for _ in range(20)]
        for spec in specs:
            res = synthesize(RegionProblem(spec, 1))
            for place in res.places:
                region = place.source_region
                for ln in spec.nets:
                    trail = region.marking.restrict(ln.net.places)
                    assert is_valid_token_trail(ln, trail, place)

    def test_initial_sum_consistent_across_nets(self):
        rng = random.Random(18)
        for _ in range(20):
            spec = random_specification(rng)
            res = synthesize(RegionProblem(spec, 2))
            for place in res.places:
                marking = dict(place.source_region.marking.items())
                sums = {
                    sum(n * marking.get(p, 0) for p, n in ln.initial.items())
                    for ln in spec.nets
                }
                assert sums == {place.initial}

    def test_most_restrictive_place(self):
        # any behavior a region witnesses is dominated by the built place
        rng = random.Random(19)
        checked = 0
        while checked < 30:
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            regions = sorted(brute_force_minimal_regions(spec, k), key=repr)
            if not regions:
                continue
            marking = rng.choice(regions)
            region = Region(marking, k)
            place = place_from_region(spec, region)
            point = dict(marking.items())
            labels = spec.alphabet()
            consume = {}
            for label in labels:
                inflows = [
                    net_inflow(ln, point, e)
                    for ln in spec.nets
                    for e in ln.net.transitions
                    if ln.labels[e] == label
                ]
                if not inflows:
                    continue
                rise = place.produce.get(label, 0) - place.consume.get(label, 0)
                consume[label] = rng.randint(max(0, -rise), min(inflows))
            produce = {
                label: consume[label] + place.produce.get(label, 0) - place.consume.get(label, 0)
                for label in consume
            }
            from ttsynth.semantics import PlaceBehavior

            pb = PlaceBehavior(consume, produce, place.initial)
            for ln in spec.nets:
                assert is_valid_token_trail(ln, marking.restrict(ln.net.places), pb)
            for label in consume:
                assert place.consume.get(label, 0) >= consume.get(label, 0)
                assert place.produce.get(label, 0) - place.consume.get(label, 0) == produce.get(
                    label, 0
                ) - consume.get(label, 0)
            checked += 1

    def test_truncation_propagates(self):
        res = synthesize(RegionProblem(spec_of(make_e_seq()), 1, max_regions=1))
        assert res.truncated
        assert len(res.places) == 1

    def test_concurrent_chains_idempotent(self):
        ln = make_concurrent_chains()
        res = synthesize(RegionProblem(spec_of(ln), 1))
        in_graph = relabel_arcs(reachability_graph(ln.marked(), 50), ln.labels)
        out_graph = reachability_graph(res.net, 50)
        assert lts_isomorphic(in_graph, out_graph)
