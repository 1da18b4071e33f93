"""Cross-module properties of the whole pipeline."""

import random

import pytest

from fixture_nets import make_e_dup, make_e_seq, make_e_two_a, make_e_two_b, spec_of
from gens import random_labelled_net, random_run, random_specification, random_trace
from ttsynth import io as net_io
from ttsynth.convert import run_to_labelled_net, trace_to_labelled_net
from ttsynth.core import LabelledNet, Multiset, PetriNet, build_specification, reachability_graph
from ttsynth.regions import RegionProblem, enumerate_minimal_regions
from ttsynth.semantics import is_enabled
from ttsynth.synthesis import synthesize


class TestSimulationProperty:
    """The synthesis result must admit a witness trail for every place on
    every input net, found by a fresh search rather than read off the
    source region."""

    def test_fixtures(self):
        for nets, k in [
            ((make_e_seq(),), 1),
            ((make_e_dup(),), 1),
            ((make_e_dup(),), 2),
            ((make_e_two_a(), make_e_two_b()), 1),
        ]:
            spec = spec_of(*nets)
            result = synthesize(RegionProblem(spec, k))
            for ln in spec.nets:
                verdict = is_enabled(result.net, ln, bound=k)
                assert verdict, (k, ln, verdict.not_shown)

    def test_random_specs(self):
        rng = random.Random(31337)
        for _ in range(25):
            spec = random_specification(rng, max_places=5, max_transitions=4)
            k = rng.randint(1, 2)
            result = synthesize(RegionProblem(spec, k))
            for ln in spec.nets:
                assert is_enabled(result.net, ln, bound=k)

    def test_trace_specs(self):
        rng = random.Random(31338)
        for _ in range(10):
            traces = [random_trace(rng, max_len=4) for _ in range(rng.randint(1, 3))]
            spec = build_specification([trace_to_labelled_net(t) for t in traces])
            result = synthesize(RegionProblem(spec, 1))
            for ln in spec.nets:
                assert is_enabled(result.net, ln, bound=1)

    def test_run_specs(self):
        rng = random.Random(31339)
        for _ in range(10):
            runs = [random_run(rng, max_events=3) for _ in range(rng.randint(1, 2))]
            spec = build_specification([run_to_labelled_net(r) for r in runs])
            result = synthesize(RegionProblem(spec, 1))
            for ln in spec.nets:
                assert is_enabled(result.net, ln, bound=1)


class TestEnumerationDeterminism:
    def test_identical_problems_identical_output(self):
        rng = random.Random(777)
        for _ in range(10):
            spec = random_specification(rng)
            k = rng.randint(1, 2)
            first = enumerate_minimal_regions(RegionProblem(spec, k))
            second = enumerate_minimal_regions(RegionProblem(spec, k))
            assert first == second

    def test_seek_excludes_blocking_binaries(self):
        from oracles import block_region
        from ttsynth.regions import build_base_model, parikh_classes

        spec = spec_of(make_e_seq())
        model = build_base_model(RegionProblem(spec, 1), parikh_classes(spec))
        blocked = block_region(model, {"c0": 1}, 1, 1)
        blocked = block_region(blocked, {"c1": 1}, 1, 2)
        seek = blocked.constraints[len(model.constraints) - 1]
        assert set(seek.terms) == {"c0", "c1", "c2"}
        flags = {v.id for v in blocked.variables if isinstance(v.id, tuple)}
        assert flags == {(1, "c0"), (2, "c1")}


def small_nets(rng: random.Random, n_nets: int) -> list:
    """`n_nets` random nets with 4 to 8 places in all. Their ids carry the
    net's draw position ("n0p1", "n1t0"), so no id clashes and
    build_specification renames none of them, in any order of the nets."""
    places = [rng.randint(4, 8)] if n_nets == 1 else [rng.randint(2, 4) for _ in range(n_nets)]
    return [random_labelled_net(rng, f"n{i}", n, rng.randint(1, 4)) for i, n in enumerate(places)]


def region_markings(nets: list, k: int) -> set:
    regions = enumerate_minimal_regions(RegionProblem(build_specification(nets), k)).regions
    return {frozenset(r.marking.items()) for r in regions}


class TestMetamorphicRelations:
    """Relations between enumerations of related problems, which hold
    without knowing what either enumeration should return."""

    def test_minimal_regions_at_k_stay_minimal_at_k_plus_1(self):
        # A region below a minimal region at k would be bounded by k too,
        # so raising the bound keeps every minimal region minimal.
        rng = random.Random(2601)
        for _ in range(60):
            nets = small_nets(rng, rng.randint(1, 2))
            k = rng.randint(1, 2)
            assert region_markings(nets, k) <= region_markings(nets, k + 1), (nets, k)

    def test_regions_do_not_depend_on_net_order(self):
        rng = random.Random(2602)
        for _ in range(60):
            nets = small_nets(rng, 2)
            k = rng.randint(1, 3)
            assert region_markings(nets, k) == region_markings(nets[::-1], k), (nets, k)


class TestIdentifierClashes:
    def test_place_vs_transition_clash_across_nets(self):
        # "x" is a place in the first net and a transition in the second
        first = LabelledNet(PetriNet(("x",), ("t1",), Multiset()), Multiset(), {"t1": "a"})
        second = LabelledNet(PetriNet(("p",), ("x",), Multiset()), Multiset(), {"x": "a"})
        spec = build_specification([first, second])
        assert spec.nets[0].net.places == ("n1.x",)
        assert spec.nets[1].net.transitions == ("n2.x",)
        assert spec.nets[1].labels == {"n2.x": "a"}

    def test_three_way_clash(self):
        nets = [trace_to_labelled_net(("a",)) for _ in range(3)]
        spec = build_specification(nets)
        assert spec.all_places() == ("n1.c0", "n1.c1", "n2.c0", "n2.c1", "n3.c0", "n3.c1")


class TestUnicodePnml:
    def test_converted_run_roundtrips(self):
        # run conversion yields place ids with parentheses, commas, and the
        # source/sink symbols; the PNML subset must carry them unchanged
        rng = random.Random(90)
        for _ in range(10):
            ln = run_to_labelled_net(random_run(rng, max_events=3))
            assert net_io.parse_pnml(net_io.write_pnml(ln)) == ln

    def test_converted_run_dot_is_wellformed(self):
        ln = run_to_labelled_net(random_run(random.Random(91), max_events=3))
        text = net_io.export_dot(ln)
        assert text.startswith("digraph")
        assert text.count("shape=circle") == len(ln.net.places)


class TestMiscValidation:
    def test_reachability_cap_must_be_positive(self):
        ln = make_e_seq()
        with pytest.raises(ValueError, match="state_cap"):
            reachability_graph(ln.marked(), 0)

    def test_find_token_trail_rejects_negative_bound(self):
        from ttsynth.semantics import PlaceBehavior, find_token_trail

        with pytest.raises(ValueError, match="bound"):
            find_token_trail(make_e_seq(), PlaceBehavior({}, {}, 0), -1)

    def test_region_problem_validation(self):
        spec = spec_of(make_e_seq())
        with pytest.raises(ValueError):
            RegionProblem(spec, 0)
        with pytest.raises(ValueError):
            RegionProblem(spec, 1, "explore")
        with pytest.raises(ValueError):
            RegionProblem(spec, 1, max_regions=0)
