"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them on
success) and asserts the criterion at its stated tolerance, including the
runtime budgets.
"""

import itertools
import random
import time

from fixture_nets import (
    make_concurrent_chains,
    make_e_dup,
    make_e_seq,
    make_e_two_a,
    make_e_two_b,
    spec_of,
)
from gens import (
    random_labelled_net,
    random_place_behavior,
    random_run,
    random_specification,
    random_state_graph,
    random_ilp_model,
    random_trace,
)
from oracles import (
    brute_force_minimal_regions,
    check_assignment,
    classical_state_regions,
    first_feasible_point,
    lts_isomorphic,
    net_inflow,
    relabel_arcs,
)
from ttsynth import ilp
from ttsynth import io as net_io
from ttsynth.convert import run_to_labelled_net, slot_place_ids, trace_to_labelled_net
from ttsynth.core import Multiset, enabled_transitions, fire, reachability_graph
from ttsynth.regions import Region, RegionProblem, discovery_final_places, enumerate_minimal_regions
from ttsynth.semantics import (
    PlaceBehavior,
    find_token_trail,
    flow_domain,
    is_valid_compact_token_flow,
    is_valid_token_trail,
)
from ttsynth.synthesis import place_from_region, synthesize


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {detail}")
    assert ok, f"criterion {number}: {detail}"


def label_projected_reachability(ln, cap=200):
    return relabel_arcs(reachability_graph(ln.marked(), cap), ln.labels)


def test_criterion_01_e_seq_chain():
    start = time.perf_counter()
    spec = spec_of(trace_to_labelled_net(("a", "b")))
    enumeration = enumerate_minimal_regions(RegionProblem(spec, 1))
    got = {r.marking for r in enumeration.regions}
    want = brute_force_minimal_regions(spec, 1)
    counts_ok = len(enumeration.regions) == 3 and got == want

    result = synthesize(RegionProblem(spec, 1))
    original = spec.nets[0]
    shape_ok = (
        len(result.net.net.places) == len(original.net.places)
        and len(result.net.net.transitions) == len(original.net.transitions)
        and len(result.net.net.arcs) == len(original.net.arcs)
    )
    iso_ok = lts_isomorphic(
        label_projected_reachability(original),
        reachability_graph(result.net, 200),
    )
    elapsed = time.perf_counter() - start
    ok = counts_ok and shape_ok and iso_ok and elapsed < 1.0
    report(1, ok, f"E-SEQ k=1: 3 regions, chain reproduced ({elapsed:.3f}s)")


def test_criterion_02_e_dup_both_bounds():
    start = time.perf_counter()
    spec = spec_of(trace_to_labelled_net(("a", "a")))

    enum1 = enumerate_minimal_regions(RegionProblem(spec, 1))
    ok_k1 = (
        {r.marking for r in enum1.regions}
        == brute_force_minimal_regions(spec, 1)
        == {Multiset({"c0": 1, "c1": 1, "c2": 1})}
    )
    res1 = synthesize(RegionProblem(spec, 1))
    (pid,) = res1.net.net.places
    ok_loop = (
        res1.net.net.arcs[(pid, "a")] == 1
        and res1.net.net.arcs[("a", pid)] == 1
        and res1.net.initial == Multiset({pid: 1})
    )

    enum2 = enumerate_minimal_regions(RegionProblem(spec, 2))
    got2 = {r.marking for r in enum2.regions}
    ok_k2 = (
        len(enum2.regions) == 3
        and got2 == brute_force_minimal_regions(spec, 2)
        and Multiset({"c0": 2, "c1": 1}) in got2
    )
    res2 = synthesize(RegionProblem(spec, 2))
    bounding = [p for p in res2.places if p.initial == 2 and p.consume == {"a": 1} and not p.produce]
    m = res2.net.initial
    m = fire(res2.net, m, "a")
    m = fire(res2.net, m, "a")
    third_blocked = "a" not in enabled_transitions(res2.net, m)
    ok_bound = len(bounding) == 1 and third_blocked

    elapsed = time.perf_counter() - start
    ok = ok_k1 and ok_loop and ok_k2 and ok_bound and elapsed < 1.0
    report(2, ok, f"E-DUP: k=1 short loop, k=2 bounds a to two firings ({elapsed:.3f}s)")


def test_criterion_03_e_two_initial_sums():
    spec = spec_of(make_e_two_a(), make_e_two_b())
    enumeration = enumerate_minimal_regions(RegionProblem(spec, 1))
    got = {r.marking for r in enumeration.regions}
    want = {Multiset({"d0": 1, "g0": 1}), Multiset({"d1": 1, "g1": 1})}
    ok_set = got == want == brute_force_minimal_regions(spec, 1)

    from oracles import is_region_point

    places = spec.all_places()
    sum_one_rejected = all(
        not is_region_point(spec, dict(zip(places, point)), 1)
        for point in itertools.product((0, 1), repeat=4)
        if sum(point) == 1
    )
    report(3, ok_set and sum_one_rejected, "E-TWO k=1: exactly the two cross-net regions")


def _criterion_4_specs():
    rng = random.Random(20240)
    cases = []
    for _ in range(100):
        spec = random_specification(rng, max_places=6, max_transitions=5)
        cases.append((spec, rng.randint(1, 2)))
    return cases


def test_criterion_04_random_specs_vs_brute_force():
    start = time.perf_counter()
    mismatches = 0
    for spec, k in _criterion_4_specs():
        got = {r.marking for r in enumerate_minimal_regions(RegionProblem(spec, k)).regions}
        if got != brute_force_minimal_regions(spec, k):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(4, ok, f"100 random specs match the brute-force region sets ({elapsed:.1f}s)")


def test_criterion_05_membership_certificates():
    runs = [
        (spec_of(trace_to_labelled_net(("a", "b"))), 1),
        (spec_of(trace_to_labelled_net(("a", "a"))), 1),
        (spec_of(trace_to_labelled_net(("a", "a"))), 2),
        (spec_of(make_e_two_a(), make_e_two_b()), 1),
    ] + _criterion_4_specs()
    failures = 0
    checked = 0
    for spec, k in runs:
        result = synthesize(RegionProblem(spec, k))
        for place in result.places:
            for ln in spec.nets:
                trail = place.source_region.marking.restrict(ln.net.places)
                if not is_valid_token_trail(ln, trail, place):
                    failures += 1
                checked += 1
    report(5, failures == 0 and checked > 0, f"{checked} place/net certificates all valid")


def test_criterion_06_most_restrictive_place():
    rng = random.Random(60606)
    checked = 0
    failures = 0
    while checked < 50:
        spec = random_specification(rng, max_places=5)
        k = rng.randint(1, 2)
        candidates = sorted(brute_force_minimal_regions(spec, k), key=repr)
        if not candidates:
            continue
        marking = rng.choice(candidates)
        region = Region(marking, k)
        built = place_from_region(spec, region)
        point = dict(marking.items())
        consume = {}
        for label in spec.alphabet():
            inflows = [
                net_inflow(ln, point, e)
                for ln in spec.nets
                for e in ln.net.transitions
                if ln.labels[e] == label
            ]
            if not inflows:
                continue
            label_rise = built.produce.get(label, 0) - built.consume.get(label, 0)
            consume[label] = rng.randint(max(0, -label_rise), min(inflows))
        produce = {
            label: consume[label] + built.produce.get(label, 0) - built.consume.get(label, 0)
            for label in consume
        }
        pb = PlaceBehavior(consume, produce, built.initial)
        premise = all(
            is_valid_token_trail(ln, marking.restrict(ln.net.places), pb) for ln in spec.nets
        )
        if not premise:
            failures += 1
            checked += 1
            continue
        dominated = all(built.consume.get(l, 0) >= consume.get(l, 0) for l in consume)
        same_rises = all(
            built.produce.get(l, 0) - built.consume.get(l, 0) == produce.get(l, 0) - consume.get(l, 0)
            for l in consume
        )
        same_initial = built.initial == pb.initial
        if not (dominated and same_rises and same_initial):
            failures += 1
        checked += 1
    report(6, failures == 0, f"{checked} witnessed behaviors dominated by the built place")


def test_criterion_07_state_graph_regions_coincide():
    rng = random.Random(70707)
    discrepancies = 0
    from ttsynth.convert import state_graph_to_labelled_net
    from ttsynth.regions import verify_region

    for _ in range(50):
        sg = random_state_graph(rng, max_states=6, max_arcs=8, n_labels=3)
        ln = state_graph_to_labelled_net(sg)
        spec = spec_of(ln)
        trail_regions = set()
        for bits in itertools.product((0, 1), repeat=len(sg.states)):
            marking = Multiset({s: b for s, b in zip(sg.states, bits) if b})
            if verify_region(spec, Region(marking, 1)):
                trail_regions.add(frozenset(marking.keys()))
        if trail_regions != classical_state_regions(sg):
            discrepancies += 1
    report(7, discrepancies == 0, "50 state graphs: subset regions == 0/1 trail regions")


def test_criterion_08_flow_trail_correspondence():
    rng = random.Random(80808)
    discrepancies = 0
    runs_checked = 0
    for _ in range(50):
        run = random_run(rng, max_events=4)
        net = run_to_labelled_net(run)
        pb = random_place_behavior(rng, "abc")
        domain = flow_domain(run)
        place_of = slot_place_ids(run)
        if len(domain) <= 5:
            assignments = itertools.product(range(3), repeat=len(domain))
        else:
            assignments = (
                tuple(rng.randint(0, 2) for _ in domain) for _ in range(40)
            )
        for values in assignments:
            flow = dict(zip(domain, values))
            trail = Multiset({place_of[s]: v for s, v in flow.items() if v})
            if bool(is_valid_compact_token_flow(run, flow, pb)) != bool(
                is_valid_token_trail(net, trail, pb)
            ):
                discrepancies += 1
        trail = find_token_trail(net, pb, 2)
        if trail is not None:
            flow = {slot: trail[place_of[slot]] for slot in domain}
            if not is_valid_compact_token_flow(run, flow, pb):
                discrepancies += 1
        runs_checked += 1
    report(8, discrepancies == 0, f"{runs_checked} runs: flow and trail validity coincide")


def test_criterion_09_solver_vs_oracle():
    start = time.perf_counter()
    rng = random.Random(90909)
    discrepancies = 0
    for _ in range(200):
        model = random_ilp_model(rng, max_vars=8, max_constraints=12)
        got = ilp.solve(model)
        if got != first_feasible_point(model) or (got is not None and not check_assignment(model, got)):
            discrepancies += 1
    elapsed = time.perf_counter() - start
    ok = discrepancies == 0 and elapsed < 30.0
    report(9, ok, f"200 random models match exhaustive enumeration ({elapsed:.1f}s)")


def test_criterion_10_discovery_mode():
    rng = random.Random(101010)
    failures = 0
    for _ in range(20):
        traces = [random_trace(rng) for _ in range(rng.randint(1, 3))]
        spec = spec_of(*(trace_to_labelled_net(t) for t in traces))
        finals = discovery_final_places(spec)
        enumeration = enumerate_minimal_regions(RegionProblem(spec, rng.randint(1, 2), "discovery"))
        for region in enumeration.regions:
            if any(region.marking[place] for place in finals.values()):
                failures += 1

    spec = spec_of(trace_to_labelled_net(("a", "b")))
    result = synthesize(RegionProblem(spec, 1, "discovery"))
    marking = result.net.initial
    for label in ("a", "b"):
        marking = fire(result.net, marking, label)
    replay_clean = marking == Multiset()
    report(10, failures == 0 and replay_clean, "discovery keeps final places empty; replay ends empty")


def test_criterion_11_pnml_roundtrip():
    rng = random.Random(111111)
    failures = 0
    nets = [make_e_seq(), make_e_dup(), make_e_two_a(), make_e_two_b(), make_concurrent_chains()]
    for _ in range(50):
        nets.append(
            random_labelled_net(
                rng, "x", rng.randint(1, 6), rng.randint(0, 4), max_weight=3, max_tokens=3
            )
        )
    distributed = sum(1 for ln in nets if len(ln.initial) > 1)
    weighted = sum(1 for ln in nets if any(w >= 2 for w in dict(ln.net.arcs.items()).values()))
    for ln in nets:
        if net_io.parse_pnml(net_io.write_pnml(ln)) != ln:
            failures += 1
    ok = failures == 0 and distributed >= 5 and weighted >= 5
    report(11, ok, f"{len(nets)} nets round-trip byte-parse identical "
                   f"({distributed} distributed markings, {weighted} with weights >= 2)")


def test_criterion_12_idempotence_on_unlabelled_input():
    spec = spec_of(trace_to_labelled_net(("a", "b")))
    chain_result = synthesize(RegionProblem(spec, 1))
    chain_ok = lts_isomorphic(
        label_projected_reachability(spec.nets[0]),
        reachability_graph(chain_result.net, 100),
    )

    concurrent = make_concurrent_chains()
    conc_result = synthesize(RegionProblem(spec_of(concurrent), 1))
    conc_ok = lts_isomorphic(
        label_projected_reachability(concurrent),
        reachability_graph(conc_result.net, 100),
    )
    report(12, chain_ok and conc_ok, "distinct-label inputs reproduce their reachability graphs")
