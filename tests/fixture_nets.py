"""Hand-verifiable nets used across the test suite.

E_SEQ is a two-step chain with distinct labels, E_DUP the same chain with
both transitions labelled alike, and E_TWO a pair of one-transition nets
sharing a label.
"""

from ttsynth.core import LabelledNet, Multiset, PetriNet, Specification, build_specification


def make_e_seq() -> LabelledNet:
    net = PetriNet(
        ("c0", "c1", "c2"),
        ("e_a", "e_b"),
        Multiset({("c0", "e_a"): 1, ("e_a", "c1"): 1, ("c1", "e_b"): 1, ("e_b", "c2"): 1}),
    )
    return LabelledNet(net, Multiset({"c0": 1}), {"e_a": "a", "e_b": "b"})


def make_e_dup() -> LabelledNet:
    net = PetriNet(
        ("c0", "c1", "c2"),
        ("e1", "e2"),
        Multiset({("c0", "e1"): 1, ("e1", "c1"): 1, ("c1", "e2"): 1, ("e2", "c2"): 1}),
    )
    return LabelledNet(net, Multiset({"c0": 1}), {"e1": "a", "e2": "a"})


def make_e_two_a() -> LabelledNet:
    net = PetriNet(("d0", "d1"), ("f_a",), Multiset({("d0", "f_a"): 1, ("f_a", "d1"): 1}))
    return LabelledNet(net, Multiset({"d0": 1}), {"f_a": "a"})


def make_e_two_b() -> LabelledNet:
    net = PetriNet(("g0", "g1"), ("h_a",), Multiset({("g0", "h_a"): 1, ("h_a", "g1"): 1}))
    return LabelledNet(net, Multiset({"g0": 1}), {"h_a": "a"})


def model_net(net: PetriNet, initial: Multiset) -> LabelledNet:
    """A model whose transitions are labelled by their own ids."""
    return LabelledNet(net, initial, {t: t for t in net.transitions})


def spec_of(*nets: LabelledNet) -> Specification:
    return build_specification(list(nets))


def make_concurrent_chains() -> LabelledNet:
    """Two disjoint one-step chains with distinct labels, fired concurrently."""
    net = PetriNet(
        ("q0", "q1", "r0", "r1"),
        ("ta", "tb"),
        Multiset({("q0", "ta"): 1, ("ta", "q1"): 1, ("r0", "tb"): 1, ("tb", "r1"): 1}),
    )
    return LabelledNet(net, Multiset({"q0": 1, "r0": 1}), {"ta": "a", "tb": "b"})
