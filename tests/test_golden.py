"""Discovery order pinned byte for byte, and the search tree by its size.

The trace goldens under `golden/` were written by an earlier solver whose
propagation swept every row at every node, the state graph's by the
event-driven one that replaced it. The region table and the PNML (place
ids p1, p2, ... follow discovery order) must stay identical, so any change
to the search that reorders regions shows here. Every input makes the
reference solver branch. The order is that of solving round by round, and
outputs alone do not see how the regions were found; the node counts (one
_propagate call per branch-and-bound node) pin the search. Enumeration
searches the model over Parikh classes once for all its minimal points
(NODES), less the free classes, each a region of its own (so the single
trace and the run search nothing), which the larger inputs pin too, with the rows and binaries that
the regions found add to the running search. The reference loops of
test_regions solve, record and block round by round
(oracles.regions_round_by_round), each round a search of the test
reference oracles.reference_bnb that minimizes the seek row's sum: over
the class model (COLD_NODES), which pins its branching order and
propagation strength, and over the raw model, one variable per place
(RAW_NODES). These count the reference's own nodes, not _propagate
calls. The places of the state graph and of the run are all classes of
their own, and their models skip the raw model's rows without terms and
repeats, so their cold counts must agree.

`check` of the golden net against its input is pinned too: stdout and, for
the trace and run inputs, the witness trail behind each verdict. `check`
prints only enabled or not, so the witnesses show the trail search's
tie-break. Trace nets and converted state graphs are state machines, whose
trails come from one walk; the run's net is not, so its trails come from
the compiled trail rows that each search re-solves with new right-hand
sides (ilp.CompiledModel.with_rhs).
"""

from pathlib import Path
from unittest import mock

import pytest

from test_regions import class_model, cold_enumeration, raw_enumeration
from test_semantics import counting_solves
from ttsynth import ilp
from ttsynth import io as net_io
from ttsynth.cli import _load_nets, _model_with_label_transitions, main
from ttsynth.convert import state_graph_to_labelled_net, trace_to_labelled_net
from ttsynth.core import StateGraph, build_specification
from ttsynth.regions import RegionProblem, enumerate_minimal_regions, parikh_classes
from ttsynth.semantics import is_enabled

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # all 6 interleavings of the chains a1 a2 and b1 b2
    ("interleave_2x2", 1),
    # one trace of 12 distinct labels
    ("chain_12", 2),
    # reachability graph of three independent two-state cycles
    ("statespace_3", 1),
    # a run of two concurrent 4-event chains: not a state machine, so its
    # trails come from the compiled trail rows (ilp.CompiledModel.with_rhs)
    ("concurrent_2x4", 1),
    # three traces that repeat labels and loop back to them (a b a c, a c,
    # a b a b a c): equally labelled steps share classes and rise rows
    ("loops", 2),
]
STATE_MACHINE_CASES = CASES[:3] + CASES[4:]
WITNESS_CASES = [CASES[0], CASES[1], CASES[3], CASES[4]]

INPUTS = {
    "interleave_2x2": "interleave_2x2.traces",
    "chain_12": "chain_12.traces",
    "statespace_3": "statespace_3.sg",
    "concurrent_2x4": "concurrent_2x4.run",
    "loops": "loops.traces",
}
NODES = {"interleave_2x2": 23, "chain_12": 0, "statespace_3": 15, "concurrent_2x4": 0, "loops": 53}
COLD_NODES = {"interleave_2x2": 97, "chain_12": 352, "statespace_3": 91, "concurrent_2x4": 485, "loops": 224}
RAW_NODES = {"interleave_2x2": 111, "chain_12": 352, "statespace_3": 91, "concurrent_2x4": 485, "loops": 156}


def count_propagate(monkeypatch) -> list:
    calls = []
    propagate = ilp._propagate

    def counting(*args):
        calls.append(None)
        return propagate(*args)

    monkeypatch.setattr(ilp, "_propagate", counting)
    return calls


@pytest.mark.parametrize("name,k", CASES)
def test_region_table(name, k, capsys):
    assert main(["regions", "-k", str(k), str(GOLDEN / INPUTS[name])]) == 0
    expected = (GOLDEN / f"{name}.k{k}.regions.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("name,k", CASES)
def test_pnml_bytes(name, k, tmp_path):
    out = tmp_path / "out.pnml"
    assert main(["synth", "-k", str(k), "-o", str(out), str(GOLDEN / INPUTS[name])]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.k{k}.pnml").read_bytes()


@pytest.mark.parametrize("name,k", CASES)
def test_search_tree_size(name, k, monkeypatch, capsys):
    calls = count_propagate(monkeypatch)
    assert main(["regions", "-k", str(k), str(GOLDEN / INPUTS[name])]) == 0
    assert len(calls) == NODES[name]


@pytest.mark.parametrize("name,k", CASES)
def test_cold_search_tree_size(name, k):
    spec = build_specification(_load_nets(GOLDEN / INPUTS[name]))
    problem = RegionProblem(spec, k)
    _, nodes = cold_enumeration(problem, class_model(problem), parikh_classes(spec))
    assert nodes == COLD_NODES[name]


@pytest.mark.parametrize("name,k", CASES)
def test_raw_search_tree_size(name, k):
    spec = build_specification(_load_nets(GOLDEN / INPUTS[name]))
    _, nodes = raw_enumeration(RegionProblem(spec, k))
    assert nodes == RAW_NODES[name]


def cycles_graph(n: int) -> StateGraph:
    """Reachability graph of n independent two-state cycles. State v is a
    bit vector; bit i off enables up<i>, on enables down<i>. Arcs are
    listed by state, then by cycle."""
    states = [f"s{v}" for v in range(2**n)]
    arcs = [(states[v], f"{'down' if v >> i & 1 else 'up'}{i}", states[v ^ (1 << i)]) for v in range(2**n) for i in range(n)]
    return StateGraph(tuple(states), states[0], tuple(arcs))


LARGER = {
    # one trace of 60 distinct labels: every class of a single trace
    # with distinct labels is free (named by no row but the seek row), so
    # each is a region of its own and nothing is searched
    "chain60": lambda: trace_to_labelled_net([f"t{i:02d}" for i in range(60)]),
    # 256 states, 2,048 arcs, 16 labels: every region marks 128 classes
    "statespace8": lambda: state_graph_to_labelled_net(cycles_graph(8)),
}


@pytest.mark.parametrize(
    "name,k,regions,nodes,rows,binaries",
    [("chain60", 2, 61, 0, 0, 0), ("statespace8", 1, 16, 35, 2064, 2048), ("statespace8", 2, 16, 195, 2064, 2048)],
)
def test_search_tree_on_larger_inputs(name, k, regions, nodes, rows, binaries, monkeypatch):
    # The one search for all minimal regions, pinned by its nodes and by
    # the rows and binaries that its regions add to it (ilp._Search.add).
    spec = build_specification([LARGER[name]()])
    calls = count_propagate(monkeypatch)
    with mock.patch.object(ilp._Search, "add", autospec=True, side_effect=ilp._Search.add) as add:
        found = enumerate_minimal_regions(RegionProblem(spec, k))
    assert len(found.regions) == regions and not found.truncated
    assert len(calls) == nodes
    assert sum(len(c.args[2]) for c in add.call_args_list) == rows
    assert sum(len(c.args[1]) for c in add.call_args_list) == binaries


def witness_report(name: str, k: int) -> str:
    """Per input net and place of the golden net, the witness trail that
    is_enabled finds, in the trail's own order ("not shown" if none)."""
    model = _model_with_label_transitions(net_io.parse_pnml((GOLDEN / f"{name}.k{k}.pnml").read_bytes()))
    lines = []
    for i, spec_net in enumerate(_load_nets(GOLDEN / INPUTS[name]), start=1):
        verdicts = is_enabled(model, spec_net)
        for place in model.net.places:
            trail = verdicts.witnesses.get(place)
            text = "not shown" if trail is None else " ".join(f"{p}={v}" for p, v in trail.items()) or "empty"
            lines.append(f"net {i}: place {place}: {text}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,k", CASES)
def test_check_stdout(name, k, capsys):
    model = GOLDEN / f"{name}.k{k}.pnml"
    assert main(["check", "--model", str(model), str(GOLDEN / INPUTS[name])]) == 0
    expected = (GOLDEN / f"{name}.k{k}.check.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("name,k", STATE_MACHINE_CASES)
def test_check_takes_the_walk(name, k, monkeypatch, capsys):
    # Trace nets and converted state graphs are connected state machines,
    # so every trail of `check` comes from the walk, none from the solver.
    solves = counting_solves(monkeypatch)
    model = GOLDEN / f"{name}.k{k}.pnml"
    assert main(["check", "--model", str(model), str(GOLDEN / INPUTS[name])]) == 0
    assert solves == []


def test_check_trail_search_size(monkeypatch, capsys):
    # The run's net is not a state machine, so `check` searches the
    # compiled trail rows, one sibling per place; pinned by its nodes.
    calls = count_propagate(monkeypatch)
    model = GOLDEN / "concurrent_2x4.k1.pnml"
    assert main(["check", "--model", str(model), str(GOLDEN / INPUTS["concurrent_2x4"])]) == 0
    assert len(calls) == 122


@pytest.mark.parametrize("name,k", WITNESS_CASES)
def test_witness_trails(name, k):
    expected = (GOLDEN / f"{name}.k{k}.witnesses.txt").read_text(encoding="utf-8")
    assert witness_report(name, k) == expected
