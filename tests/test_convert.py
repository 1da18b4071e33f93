import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_dup, make_e_seq, spec_of
from gens import random_deterministic_state_graph, random_run, random_state_graph
from oracles import classical_state_regions, lts_isomorphic
from ttsynth.convert import (
    check_run_wellformed,
    run_to_labelled_net,
    slot_place_ids,
    state_graph_to_labelled_net,
    trace_to_labelled_net,
)
from ttsynth.core import LabelledNet, Multiset, PetriNet, StateGraph, reachability_graph, state_machine_walk
from ttsynth.regions import Region, verify_region
from ttsynth.semantics import SINK, SOURCE, Run, flow_domain


def same_structure_up_to_transition_ids(a: LabelledNet, b: LabelledNet) -> bool:
    """Positional comparison that ignores how transitions are named."""
    if a.net.places != b.net.places or a.initial != b.initial:
        return False
    if len(a.net.transitions) != len(b.net.transitions):
        return False
    mapping = dict(zip(a.net.transitions, b.net.transitions))
    if any(a.labels[t] != b.labels[mapping[t]] for t in a.net.transitions):
        return False
    remapped = {(mapping.get(s, s), mapping.get(t, t)): w for (s, t), w in a.net.arcs.items()}
    return Multiset(remapped) == b.net.arcs


class TestStateGraphConversion:
    def test_smallest_graph(self):
        sg = StateGraph(("s0", "s1"), "s0", (("s0", "a", "s1"),))
        ln = state_graph_to_labelled_net(sg)
        assert ln.net.places == ("s0", "s1")
        assert len(ln.net.transitions) == 1
        assert list(ln.labels.values()) == ["a"]
        assert ln.initial == Multiset({"s0": 1})

    def test_self_loop(self):
        sg = StateGraph(("s0",), "s0", (("s0", "a", "s0"),))
        ln = state_graph_to_labelled_net(sg)
        (e,) = ln.net.transitions
        assert ln.net.arcs[("s0", e)] == 1
        assert ln.net.arcs[(e, "s0")] == 1

    def test_diamond(self):
        sg = StateGraph(
            ("s0", "s1", "s2", "s3"),
            "s0",
            (("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s3")),
        )
        ln = state_graph_to_labelled_net(sg)
        assert len(ln.net.places) == 4
        assert len(ln.net.transitions) == 4
        assert sorted(ln.labels.values()) == ["a", "a", "b", "b"]

    def test_unreachable_rejected(self):
        sg = StateGraph(("s0", "s1", "s2"), "s0", (("s1", "a", "s2"),))
        with pytest.raises(ValueError, match="unreachable"):
            state_graph_to_labelled_net(sg)

    def test_reachability_fidelity(self):
        # converting a deterministic graph and exploring the net gives the
        # graph back
        rng = random.Random(71)
        for _ in range(40):
            sg = random_deterministic_state_graph(rng)
            ln = state_graph_to_labelled_net(sg)
            explored = reachability_graph(ln, 100)
            assert lts_isomorphic(explored, sg)

    def test_subset_regions_coincide_with_trail_regions(self):
        rng = random.Random(72)
        for _ in range(40):
            sg = random_state_graph(rng)
            ln = state_graph_to_labelled_net(sg)
            spec = spec_of(ln)
            trail_regions = set()
            for bits in itertools.product((0, 1), repeat=len(sg.states)):
                marking = Multiset({s: b for s, b in zip(sg.states, bits) if b})
                if verify_region(spec, Region(marking, 1)):
                    trail_regions.add(frozenset(marking.keys()))
            assert trail_regions == classical_state_regions(sg)


#: Identifier fragments that the converters' "(a,b,...)" ids are built from.
HOSTILE_IDS = st.text(alphabet="a,()\\_▶■", min_size=1, max_size=4)
#: Atoms without commas; ids joined from them split one word in many ways.
ATOMS = st.sampled_from(["a", "b", "(a", "b)", "▶"])


@st.composite
def split_tuples(draw, parts: int):
    """Two different tuples of `parts` ids that read alike once joined by
    commas, such as ("a,b", "c") and ("a", "b,c"): the same word of atoms
    cut at two different sets of places."""
    atoms = draw(st.lists(ATOMS, min_size=parts + 1, max_size=parts + 3))
    cuts = list(itertools.combinations(range(1, len(atoms)), parts - 1))
    first, second = draw(st.lists(st.sampled_from(cuts), min_size=2, max_size=2, unique=True))

    def split(at):
        bounds = (0, *at, len(atoms))
        return tuple(",".join(atoms[i:j]) for i, j in zip(bounds, bounds[1:]))

    return split(first), split(second)


def plain_id(*parts):
    return f"({','.join(parts)})"


class TestConvertedIds:
    """Converted ids never collide; ids that collide with nothing keep
    their plain "(a,b,...)" spelling."""

    def test_state_graph_transitions_that_would_clash(self):
        # (a, "b,c", x) and ("a,b", c, x) both read "(a,b,c,x)"; the
        # transition of (a, d, x) would equal a state
        sg = StateGraph(
            ("a", "a,b", "x", "(a,d,x)"),
            "a",
            (("a", "b,c", "x"), ("a,b", "c", "x"), ("a", "d", "x"), ("a", "e", "a,b"), ("x", "f", "(a,d,x)")),
        )
        ln = state_graph_to_labelled_net(sg)
        assert ln.net.transitions == ("_(a,b\\,c,x)", "_(a\\,b,c,x)", "_(a,d,x)", "(a,e,a,b)", "(x,f,(a,d,x))")
        assert [ln.labels[t] for t in ln.net.transitions] == ["b,c", "c", "d", "e", "f"]

    def test_escaped_ids_avoid_states(self):
        # the escaped id of (a, b, c) would equal the state "_(a,b,c)"
        sg = StateGraph(("a", "c", "(a,b,c)", "_(a,b,c)"), "a", (("a", "b", "c"), ("c", "g", "(a,b,c)"), ("c", "h", "_(a,b,c)")))
        assert state_graph_to_labelled_net(sg).net.transitions[0] == "__(a,b,c)"

    def test_run_slot_that_would_equal_an_event(self):
        run = Run(("(▶,v1)", "v1"), (("v1", "(▶,v1)"),), {"(▶,v1)": "a", "v1": "b"})
        ln = run_to_labelled_net(run)
        assert ln.net.places == ("(▶,(▶,v1))", "_(▶,v1)", "(v1,(▶,v1))", "((▶,v1),■)", "(v1,■)")
        assert tuple(slot_place_ids(run)) == flow_domain(run)
        assert ln.initial == Multiset({"(▶,(▶,v1))": 1, "_(▶,v1)": 1})

    def test_run_slots_that_would_equal_each_other(self):
        # order pairs ("a,b", c) and (a, "b,c") both read "(a,b,c)"
        run = Run(("a", "a,b", "b,c", "c"), (("a,b", "c"), ("a", "b,c")), dict.fromkeys(("a", "a,b", "b,c", "c"), "l"))
        place_of = slot_place_ids(run)
        assert place_of[("a,b", "c")] == "_(a\\,b,c)" and place_of[("a", "b,c")] == "_(a,b\\,c)"
        assert place_of[("a", SINK)] == "(a,■)"

    @given(st.lists(HOSTILE_IDS, min_size=1, max_size=4, unique=True), st.data())
    @settings(deadline=None, max_examples=200)
    def test_hostile_state_graphs(self, states, data):
        arcs = {(states[i - 1], data.draw(HOSTILE_IDS), states[i]) for i in range(1, len(states))}
        for _ in range(data.draw(st.integers(0, 4))):
            arcs.add((data.draw(st.sampled_from(states)), data.draw(HOSTILE_IDS), data.draw(st.sampled_from(states))))
        sg = StateGraph(tuple(states), states[0], tuple(arcs))
        ln = state_graph_to_labelled_net(sg)  # PetriNet rejects any collision
        plain = [plain_id(*arc) for arc in sg.arcs]
        for t, p in zip(ln.net.transitions, plain):
            assert t == p or p in states or plain.count(p) > 1

    @given(st.lists(HOSTILE_IDS.filter(lambda v: v not in (SOURCE, SINK)), min_size=1, max_size=4, unique=True), st.data())
    @settings(deadline=None, max_examples=200)
    def test_hostile_runs(self, events, data):
        pairs = [(u, v) for i, u in enumerate(events) for v in events[i + 1 :]]
        order = tuple(p for p in pairs if data.draw(st.booleans()))
        run = Run(tuple(events), order, dict.fromkeys(events, "a"))
        ln = run_to_labelled_net(run)  # PetriNet rejects any collision
        plain = [plain_id(*slot) for slot in flow_domain(run)]
        for place, p in zip(ln.net.places, plain):
            assert place == p or p in events or plain.count(p) > 1

    @given(split_tuples(3), st.data())
    @settings(deadline=None, max_examples=200)
    def test_split_state_graphs(self, arcs, data):
        # Two arcs (source, label, target) whose transitions would both be
        # named alike, in a graph whose chain of arcs reaches every state.
        states = list(dict.fromkeys(p for src, _, tgt in arcs for p in (src, tgt)))
        states += [p for p in data.draw(st.lists(HOSTILE_IDS, max_size=2, unique=True)) if p not in states]
        chain = [(states[i - 1], data.draw(HOSTILE_IDS), states[i]) for i in range(1, len(states))]
        sg = StateGraph(tuple(states), states[0], tuple(dict.fromkeys([*arcs, *chain])))
        ln = state_graph_to_labelled_net(sg)  # PetriNet rejects any collision
        plain = [plain_id(*arc) for arc in sg.arcs]
        assert plain.count(plain_id(*arcs[0])) >= 2
        for t, p in zip(ln.net.transitions, plain):
            assert t == p or p in states or plain.count(p) > 1

    @given(split_tuples(2), st.data())
    @settings(deadline=None, max_examples=200)
    def test_split_runs(self, pairs, data):
        # Two order pairs whose slots would both be named alike.
        events = list(dict.fromkeys(v for pair in pairs for v in pair))
        events += [v for v in data.draw(st.lists(HOSTILE_IDS, max_size=2, unique=True)) if v not in events and v not in (SOURCE, SINK)]
        order = [*pairs, *(p for p in itertools.combinations(events, 2) if p not in pairs and data.draw(st.booleans()))]
        assume(SOURCE not in events and SINK not in events)
        run = Run(tuple(events), tuple(dict.fromkeys(order)), dict.fromkeys(events, "a"))
        assume(check_run_wellformed(run))
        ln = run_to_labelled_net(run)  # PetriNet rejects any collision
        plain = [plain_id(*slot) for slot in flow_domain(run)]
        assert plain.count(plain_id(*pairs[0])) >= 2
        for place, p in zip(ln.net.places, plain):
            assert place == p or p in events or plain.count(p) > 1


class TestRunConversion:
    def test_two_ordered_events(self):
        run = Run(("v1", "v2"), (("v1", "v2"),), {"v1": "a", "v2": "b"})
        ln = run_to_labelled_net(run)
        assert ln.net.places == ("(▶,v1)", "(▶,v2)", "(v1,v2)", "(v1,■)", "(v2,■)")
        assert ln.net.places == tuple(slot_place_ids(run).values())
        assert ln.initial == Multiset({"(▶,v1)": 1, "(▶,v2)": 1})

    def test_single_event(self):
        run = Run(("v",), (), {"v": "a"})
        ln = run_to_labelled_net(run)
        assert len(ln.net.places) == 2

    def test_concurrent_events_share_no_place(self):
        run = Run(("v1", "v2"), (), {"v1": "a", "v2": "b"})
        ln = run_to_labelled_net(run)
        assert len(ln.net.places) == 4
        assert all("," not in p or p.startswith(f"({SOURCE}") or p.endswith(f"{SINK})") for p in ln.net.places)

    def test_cyclic_order_rejected(self):
        run = Run(("v1", "v2"), (("v1", "v2"), ("v2", "v1")), {"v1": "a", "v2": "b"})
        with pytest.raises(ValueError, match="not a partial order"):
            run_to_labelled_net(run)

    def test_all_weights_one(self):
        rng = random.Random(73)
        for _ in range(20):
            run = random_run(rng)
            ln = run_to_labelled_net(run)
            assert all(w == 1 for w in dict(ln.net.arcs.items()).values())


class TestTraceConversion:
    def test_ab_matches_two_step_chain(self):
        assert same_structure_up_to_transition_ids(trace_to_labelled_net(("a", "b")), make_e_seq())

    def test_single_label(self):
        ln = trace_to_labelled_net(("a",))
        assert ln.net.places == ("c0", "c1")
        assert ln.net.transitions == ("e1",)

    def test_aa_is_exactly_the_duplicate_chain(self):
        assert trace_to_labelled_net(("a", "a")) == make_e_dup()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_to_labelled_net(())

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
    @settings(deadline=None)
    def test_shape(self, labels):
        ln = trace_to_labelled_net(tuple(labels))
        assert len(ln.net.places) == len(labels) + 1
        assert len(ln.net.transitions) == len(labels)
        sinks = [p for p in ln.net.places if not any(s == p for s, _ in ln.net.arcs)]
        assert sinks == [f"c{len(labels)}"]
        assert [ln.labels[t] for t in ln.net.transitions] == labels

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
    @settings(deadline=None)
    def test_built_as_the_checked_chain(self, labels):
        # The chain is built without the constructors' checks and carries
        # its walk; both must be what the checked constructors and
        # state_machine_walk give on the same chain, built here afresh.
        ln = trace_to_labelled_net(tuple(labels))
        n = len(labels)
        arcs = {}
        for i in range(1, n + 1):
            arcs[(f"c{i - 1}", f"e{i}")] = 1
            arcs[(f"e{i}", f"c{i}")] = 1
        checked = LabelledNet(
            PetriNet(tuple(f"c{i}" for i in range(n + 1)), tuple(f"e{i}" for i in range(1, n + 1)), Multiset(arcs)),
            Multiset({"c0": 1}),
            {f"e{i}": label for i, label in enumerate(labels, start=1)},
        )
        assert ln == checked and repr(ln) == repr(checked)
        assert list(ln.net.pre.items()) == list(checked.net.pre.items())
        assert list(ln.net.post.items()) == list(checked.net.post.items())
        assert ln.trail_walk == state_machine_walk(checked)
        assert ln.trail_walk[2] == ()  # every transition is a tree step


class TestRunWellformed:
    def test_simple_order(self):
        assert check_run_wellformed(Run(("v1", "v2"), (("v1", "v2"),), {"v1": "a", "v2": "b"}))

    def test_self_loop(self):
        run = Run(("v1", "v2"), (("v1", "v1"), ("v1", "v2")), {"v1": "a", "v2": "b"})
        assert not check_run_wellformed(run)

    def test_two_cycle(self):
        run = Run(("v1", "v2"), (("v1", "v2"), ("v2", "v1")), {"v1": "a", "v2": "b"})
        assert not check_run_wellformed(run)

    def test_three_cycle(self):
        run = Run(
            ("v1", "v2", "v3"),
            (("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
            {"v1": "a", "v2": "b", "v3": "c"},
        )
        assert not check_run_wellformed(run)
