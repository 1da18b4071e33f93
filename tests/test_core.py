import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_dup, make_e_seq, make_e_two_a, model_net
from gens import random_labelled_net, random_state_graph, random_trace
from oracles import net_inflow, net_rise
from ttsynth.core import (
    LabelledNet,
    Multiset,
    PetriNet,
    Specification,
    build_specification,
    effect,
    enabled_transitions,
    fire,
    preset,
    postset,
    reachability_graph,
    state_machine_walk,
)
from ttsynth.convert import state_graph_to_labelled_net, trace_to_labelled_net
from ttsynth.regions import discovery_final_places
from ttsynth.semantics import inflow, outflow, rise

counts = st.dictionaries(st.sampled_from("pqrst"), st.integers(min_value=0, max_value=5), max_size=5)


class TestMultiset:
    def test_zero_entries_absent(self):
        m = Multiset({"p": 0, "q": 2})
        assert "p" not in m
        assert m["p"] == 0
        assert m["q"] == 2
        assert len(m) == 1

    def test_extensional_equality(self):
        assert Multiset({"p": 1, "q": 0}) == Multiset({"p": 1})
        assert hash(Multiset({"p": 1, "q": 0})) == hash(Multiset({"p": 1}))
        assert Multiset({"p": 1}) != Multiset({"p": 2})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Multiset({"p": -1})

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(ValueError):
            Multiset({"p": 1}) - Multiset({"p": 2})

    @given(counts, counts)
    @settings(deadline=None)
    def test_add_then_subtract_roundtrips(self, a, b):
        ma, mb = Multiset(a), Multiset(b)
        assert (ma + mb) - mb == ma

    @given(counts, counts)
    @settings(deadline=None)
    def test_componentwise_order(self, a, b):
        ma, mb = Multiset(a), Multiset(b)
        assert (ma <= mb) == all(ma[k] <= mb[k] for k in set(a) | set(b))
        assert (ma >= mb) == all(ma[k] >= mb[k] for k in set(a) | set(b))

    def test_order_against_other_types_rejected(self):
        m = Multiset({"p": 1})
        for other in ({"p": 1}, 1, None):
            with pytest.raises(TypeError):
                m <= other
            with pytest.raises(TypeError):
                m >= other

    def test_truthy_iff_some_count(self):
        assert not Multiset()
        assert not Multiset({"p": 0})
        assert Multiset({"p": 1})

    def test_restrict(self):
        m = Multiset({"p": 1, "q": 2})
        assert m.restrict(["q", "absent"]) == Multiset({"q": 2})


class TestNetConstruction:
    def test_place_transition_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PetriNet(("x",), ("x",), Multiset())

    def test_dangling_arc_rejected(self):
        with pytest.raises(ValueError):
            PetriNet(("p",), ("t",), Multiset({("p", "nope"): 1}))

    def test_place_to_place_arc_rejected(self):
        with pytest.raises(ValueError):
            PetriNet(("p", "q"), ("t",), Multiset({("p", "q"): 1}))

    def test_marking_over_unknown_place_rejected(self):
        net = PetriNet(("p",), ("t",), Multiset())
        with pytest.raises(ValueError, match=r"initial marking uses unknown places: \['q'\]"):
            model_net(net, Multiset({"q": 1}))

    def test_labels_must_be_total(self):
        net = PetriNet(("p",), ("t",), Multiset())
        with pytest.raises(ValueError, match="unlabelled"):
            LabelledNet(net, Multiset(), {})


class TestPrePostSets:
    def test_single_arc(self):
        net = PetriNet(("p",), ("t",), Multiset({("p", "t"): 1}))
        assert preset(net, "t") == Multiset({"p": 1})

    def test_weighted_preset(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("p", "t"): 2, ("q", "t"): 1}))
        assert preset(net, "t") == Multiset({"p": 2, "q": 1})

    def test_empty_preset(self):
        net = PetriNet(("p",), ("t",), Multiset())
        assert preset(net, "t") == Multiset()

    def test_weight_two_postset(self):
        net = PetriNet(("q",), ("t",), Multiset({("t", "q"): 2}))
        assert postset(net, "t") == Multiset({"q": 2})

    def test_empty_postset(self):
        net = PetriNet(("p",), ("t",), Multiset())
        assert postset(net, "t") == Multiset()

    def test_two_outgoing_arcs(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("t", "p"): 1, ("t", "q"): 3}))
        assert postset(net, "t") == Multiset({"p": 1, "q": 3})

    def test_unknown_transition(self):
        net = PetriNet(("p",), ("t",), Multiset())
        with pytest.raises(ValueError, match="unknown transition"):
            preset(net, "u")
        with pytest.raises(ValueError, match="unknown transition"):
            postset(net, "u")


class TestArcView:
    def test_view_is_not_part_of_equality(self):
        a = PetriNet(("p", "q"), ("t",), Multiset({("p", "t"): 1, ("t", "q"): 2}))
        b = PetriNet(("p", "q"), ("t",), Multiset({("t", "q"): 2, ("p", "t"): 1}))
        assert a == b and hash(a) == hash(b)
        assert "pre" not in repr(a) and "post" not in repr(a)

    def test_effect_drops_self_loop(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("p", "t"): 2, ("t", "p"): 2, ("t", "q"): 1}))
        assert net.pre == {"t": {"p": 2}}
        assert net.post == {"t": {"p": 2, "q": 1}}
        assert effect(net, "t") == {"q": 1}

    def test_effect_unknown_transition(self):
        with pytest.raises(ValueError, match="unknown transition"):
            effect(PetriNet(("p",), ("t",), Multiset()), "u")

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=80)
    def test_view_matches_arc_scan(self, seed):
        rng = random.Random(seed)
        ln = random_labelled_net(rng, "x", rng.randint(1, 5), rng.randint(0, 4))
        net = ln.net
        trail = Multiset({p: rng.randint(0, 3) for p in net.places if rng.random() < 0.7})
        marking = dict(trail.items())
        assert tuple(net.pre) == tuple(net.post) == net.transitions
        for t in net.transitions:
            assert preset(net, t) == Multiset({s: w for (s, u), w in net.arcs.items() if u == t})
            assert postset(net, t) == Multiset({u: w for (s, u), w in net.arcs.items() if s == t})
            assert effect(net, t) == {
                p: net.arcs[(t, p)] - net.arcs[(p, t)]
                for p in net.places
                if net.arcs[(t, p)] != net.arcs[(p, t)]
            }
            assert inflow(ln, trail, t) == net_inflow(ln, marking, t)
            assert rise(ln, trail, t) == net_rise(ln, marking, t)
            assert outflow(ln, trail, t) == net_inflow(ln, marking, t) + net_rise(ln, marking, t)
        sinks = [p for p in net.places if not any(s == p for s, _ in net.arcs)]
        spec = Specification((ln,))
        if len(sinks) == 1:
            assert discovery_final_places(spec) == {0: sinks[0]}
        else:
            with pytest.raises(ValueError, match="no unique final place"):
                discovery_final_places(spec)


class TestFiring:
    def test_empty_preset_always_enabled(self):
        n = model_net(PetriNet(("p",), ("t",), Multiset()), Multiset())
        assert enabled_transitions(n, Multiset()) == {"t"}

    def test_insufficient_tokens(self):
        n = model_net(PetriNet(("p",), ("t",), Multiset({("p", "t"): 2})), Multiset())
        assert enabled_transitions(n, Multiset({"p": 1})) == set()

    def test_e_seq_initially_enables_only_first(self):
        ln = make_e_seq()
        assert enabled_transitions(ln, ln.initial) == {"e_a"}

    def test_fire_consume_one_produce_two(self):
        net = PetriNet(("p", "q"), ("t",), Multiset({("p", "t"): 1, ("t", "q"): 2}))
        n = model_net(net, Multiset({"p": 1}))
        assert fire(n, Multiset({"p": 1}), "t") == Multiset({"q": 2})

    def test_fire_disconnected_is_identity(self):
        n = model_net(PetriNet(("p",), ("t",), Multiset()), Multiset())
        m = Multiset({"p": 3})
        assert fire(n, m, "t") == m
        assert m == Multiset({"p": 3})  # input marking unchanged

    def test_fire_e_seq(self):
        ln = make_e_seq()
        assert fire(ln, Multiset({"c0": 1}), "e_a") == Multiset({"c1": 1})

    def test_fire_disabled_rejected(self):
        ln = make_e_seq()
        with pytest.raises(ValueError, match="not enabled"):
            fire(ln, Multiset(), "e_a")

    def test_fire_unknown_rejected(self):
        ln = make_e_seq()
        with pytest.raises(ValueError, match="unknown transition"):
            fire(ln, ln.initial, "nope")

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=60)
    def test_firing_conserves_shifted_token_count(self, seed):
        import random

        from gens import random_labelled_net

        rng = random.Random(seed)
        ln = random_labelled_net(rng, "x", rng.randint(1, 4), rng.randint(1, 3))
        m = ln.initial
        for t in ln.net.transitions:
            pre, post = preset(ln.net, t), postset(ln.net, t)
            if pre <= m:
                nxt = fire(ln, m, t)
                assert nxt.total() == m.total() - pre.total() + post.total()

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=60)
    def test_enabled_iff_fire_succeeds(self, seed):
        import random

        from gens import random_labelled_net

        rng = random.Random(seed)
        ln = random_labelled_net(rng, "x", rng.randint(1, 4), rng.randint(1, 3))
        enabled = enabled_transitions(ln, ln.initial)
        for t in ln.net.transitions:
            try:
                fire(ln, ln.initial, t)
                fired = True
            except ValueError:
                fired = False
            assert fired == (t in enabled)


class TestReachability:
    def test_e_seq_chain(self):
        ln = make_e_seq()
        sg = reachability_graph(ln, 10)
        assert len(sg.states) == 3
        assert len(sg.arcs) == 2
        assert sg.initial == Multiset({"c0": 1})

    def test_self_loop_single_state(self):
        n = model_net(PetriNet((), ("t",), Multiset()), Multiset())
        sg = reachability_graph(n, 5)
        assert len(sg.states) == 1
        assert sg.arcs == ((Multiset(), "t", Multiset()),)

    def test_unbounded_growth_hits_cap(self):
        n = model_net(PetriNet(("p",), ("t",), Multiset({("t", "p"): 1})), Multiset())
        with pytest.raises(ValueError, match="state cap exceeded"):
            reachability_graph(n, 5)

    def test_one_arc_per_label_between_two_markings(self):
        # Two transitions labelled a lead from the initial marking to the
        # same marking: the graph keeps one a arc, in the order found.
        net = PetriNet(("p", "q", "r"), ("t1", "t2", "u"), Multiset({
            ("p", "t1"): 1, ("t1", "q"): 1, ("p", "t2"): 1, ("t2", "q"): 1, ("q", "u"): 1, ("u", "r"): 1,
        }))
        sg = reachability_graph(LabelledNet(net, Multiset({"p": 1}), {"t1": "a", "t2": "a", "u": "b"}), 10)
        p, q, r = Multiset({"p": 1}), Multiset({"q": 1}), Multiset({"r": 1})
        assert sg.states == (p, q, r)
        assert sg.arcs == ((p, "a", q), (q, "b", r))

    def test_deterministic_arcs(self):
        ln = make_e_dup()
        sg = reachability_graph(ln, 10)
        assert len({(src, t) for src, t, _ in sg.arcs}) == len(sg.arcs)
        # arcs carry labels; two a arcs between different markings both stay
        assert [label for _, label, _ in sg.arcs] == ["a", "a"]


class TestSpecification:
    def test_needs_a_net(self):
        with pytest.raises(ValueError):
            build_specification([])

    def test_no_rename_without_clash(self):
        spec = build_specification([make_e_seq(), make_e_two_a()])
        assert spec.all_places() == ("c0", "c1", "c2", "d0", "d1")

    def test_clashing_ids_get_net_prefix(self):
        spec = build_specification([make_e_seq(), make_e_seq()])
        assert spec.all_places() == ("n1.c0", "n1.c1", "n1.c2", "n2.c0", "n2.c1", "n2.c2")
        # arcs, markings, and labels follow the renaming
        first = spec.nets[0]
        assert first.initial == Multiset({"n1.c0": 1})
        assert first.labels["n1.e_a"] == "a"
        assert first.net.arcs[("n1.c0", "n1.e_a")] == 1

    def test_prefix_avoids_existing_ids(self):
        # the traces "x y" and "x" share c0 and c1; renaming them n2.c0 would
        # hit the third net's place, so the prefix becomes "_n"
        odd = LabelledNet(PetriNet(("n2.c0",), ("t",), Multiset({("n2.c0", "t"): 1})), Multiset({"n2.c0": 1}), {"t": "x"})
        spec = build_specification([trace_to_labelled_net(["x", "y"]), trace_to_labelled_net(["x"]), odd])
        assert spec.all_places() == ("_n1.c0", "_n1.c1", "c2", "_n2.c0", "_n2.c1", "n2.c0")
        assert spec.nets[1].labels == {"_n2.e1": "x"}
        # an id that only looks like a prefixed one keeps the plain prefix
        odd = LabelledNet(PetriNet(("n3.c0",), (), Multiset()), Multiset(), {})
        spec = build_specification([trace_to_labelled_net(["x"]), trace_to_labelled_net(["x"]), odd])
        assert spec.all_places() == ("n1.c0", "n1.c1", "n2.c0", "n2.c1", "n3.c0")

    def test_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError, match="clash"):
            Specification((make_e_seq(), make_e_seq()))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=150)
    def test_renamed_nets_are_the_checked_nets(self, seed):
        # build_specification renames the arc view and a walk already
        # worked out as they are; every renamed net must equal the net
        # built afresh, through the checks, from its fields. Traces,
        # converted state graphs (some walked before the rename, some
        # not) and random nets, with clashing ids.
        rng = random.Random(seed)
        nets = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.4:
                nets.append(trace_to_labelled_net(random_trace(rng, max_len=5)))
            elif kind < 0.8:
                ln = state_graph_to_labelled_net(random_state_graph(rng, max_states=4))
                if rng.random() < 0.5:
                    state_machine_walk(ln)
                nets.append(ln)
            else:
                nets.append(random_labelled_net(rng, "", rng.randint(1, 3), rng.randint(0, 3)))
        for ln, renamed in zip(nets, build_specification(nets).nets):
            checked = LabelledNet(
                PetriNet(renamed.net.places, renamed.net.transitions, renamed.net.arcs),
                renamed.initial,
                renamed.labels,
            )
            assert renamed == checked and repr(renamed) == repr(checked)
            assert list(renamed.net.pre.items()) == list(checked.net.pre.items())
            assert list(renamed.net.post.items()) == list(checked.net.post.items())
            assert state_machine_walk(renamed) == state_machine_walk(checked)
            assert len(renamed.net.places) == len(ln.net.places)

    def test_alphabet_in_document_order(self):
        spec = build_specification([make_e_dup(), make_e_seq()])
        assert spec.alphabet() == ("a", "b")
