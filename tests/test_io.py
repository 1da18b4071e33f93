import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_dup, make_e_seq, make_e_two_a, make_e_two_b, spec_of
from gens import random_labelled_net
from oracles import write_pnml_by_element_tree
from ttsynth import io as net_io
from ttsynth.core import LabelledNet, Multiset, PetriNet
from ttsynth.regions import Region, RegionProblem
from ttsynth.synthesis import PlaceDefinition, SynthesisResult, synthesize

MINIMAL = b"""<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <place id="c0">
      <initialMarking><text>1</text></initialMarking>
    </place>
    <place id="c1"/>
    <transition id="t1">
      <name><text>a</text></name>
    </transition>
    <arc id="a1" source="c0" target="t1"/>
    <arc id="a2" source="t1" target="c1"/>
  </net>
</pnml>
"""


class TestParsePnml:
    def test_minimal_document(self):
        ln = net_io.parse_pnml(MINIMAL)
        assert ln.net.places == ("c0", "c1")
        assert ln.net.transitions == ("t1",)
        assert ln.labels == {"t1": "a"}
        assert ln.initial == Multiset({"c0": 1})
        assert ln.net.arcs[("c0", "t1")] == 1

    def test_arc_without_inscription_defaults_to_one(self):
        ln = net_io.parse_pnml(MINIMAL)
        assert ln.net.arcs[("t1", "c1")] == 1

    def test_duplicate_names_share_label(self):
        doc = MINIMAL.replace(
            b"<arc id=\"a1\" source=\"c0\" target=\"t1\"/>",
            b"<transition id=\"t2\"><name><text>a</text></name></transition>"
            b"<arc id=\"a1\" source=\"c0\" target=\"t1\"/>",
        )
        ln = net_io.parse_pnml(doc)
        assert ln.labels == {"t1": "a", "t2": "a"}

    def test_unnamed_transition_uses_id(self):
        doc = MINIMAL.replace(b"<name><text>a</text></name>", b"")
        ln = net_io.parse_pnml(doc)
        assert ln.labels == {"t1": "t1"}

    def test_malformed_xml(self):
        with pytest.raises(net_io.ParseError, match="malformed XML"):
            net_io.parse_pnml(b"<pnml><net>")

    def test_dangling_arc(self):
        doc = MINIMAL.replace(b'target="t1"/>', b'target="zz"/>')
        with pytest.raises(net_io.ParseError, match="dangling"):
            net_io.parse_pnml(doc)

    def test_negative_marking(self):
        doc = MINIMAL.replace(b"<text>1</text>", b"<text>-1</text>")
        with pytest.raises(net_io.ParseError, match="negative"):
            net_io.parse_pnml(doc)

    def test_non_integer_weight(self):
        doc = MINIMAL.replace(
            b'<arc id="a2" source="t1" target="c1"/>',
            b'<arc id="a2" source="t1" target="c1"><inscription><text>x</text></inscription></arc>',
        )
        with pytest.raises(net_io.ParseError, match="not an integer"):
            net_io.parse_pnml(doc)

    def test_zero_weight_rejected(self):
        doc = MINIMAL.replace(
            b'<arc id="a2" source="t1" target="c1"/>',
            b'<arc id="a2" source="t1" target="c1"><inscription><text>0</text></inscription></arc>',
        )
        with pytest.raises(net_io.ParseError, match="weight"):
            net_io.parse_pnml(doc)

    def test_unknown_structural_element_is_hard_error(self):
        doc = MINIMAL.replace(b"<place id=\"c1\"/>", b"<referencePlace id=\"c1\" ref=\"c0\"/>")
        with pytest.raises(net_io.ParseError, match="cannot map"):
            net_io.parse_pnml(doc)

    def test_foreign_toolspecific_warns(self):
        doc = MINIMAL.replace(
            b"<place id=\"c1\"/>",
            b"<place id=\"c1\"><toolspecific tool=\"other\" version=\"1\"/></place>",
        )
        with pytest.warns(UserWarning, match="tool-specific"):
            net_io.parse_pnml(doc)

    def test_graphics_skipped_silently(self):
        doc = MINIMAL.replace(
            b"<place id=\"c1\"/>",
            b"<place id=\"c1\"><graphics><position x=\"1\" y=\"2\"/></graphics></place>",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ln = net_io.parse_pnml(doc)
        assert "c1" in ln.net.places

    def test_multiple_nets_rejected(self):
        doc = MINIMAL.replace(b"</pnml>", b'<net id="n2" type="x"/></pnml>')
        with pytest.raises(net_io.ParseError, match="multiple"):
            net_io.parse_pnml(doc)


#: Characters that XML escapes, reads back changed or strips, plus others.
HOSTILE = "a&<>\"'\r\n\t ]]>é\x85\\,()"


@st.composite
def hostile_nets(draw):
    """A random net whose ids (distinct, not empty) and labels (maybe
    empty) are drawn from HOSTILE; as a LabelledNet, or as a synthesis
    result, labelled by its transition ids, whose places carry source
    regions over such ids."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ln = random_labelled_net(rng, "x", rng.randint(0, 4), rng.randint(0, 4), max_weight=3, max_tokens=3)
    n = len(ln.net.places) + len(ln.net.transitions)
    ids = draw(st.lists(st.text(HOSTILE, min_size=1, max_size=6), min_size=n, max_size=n, unique=True))
    rename = dict(zip(ln.net.places + ln.net.transitions, ids))
    net = PetriNet(
        tuple(rename[p] for p in ln.net.places),
        tuple(rename[t] for t in ln.net.transitions),
        Multiset({(rename[s], rename[t]): w for (s, t), w in ln.net.arcs.items()}),
    )
    initial = Multiset({rename[p]: c for p, c in ln.initial.items()})
    labels = {t: draw(st.text(HOSTILE, max_size=4)) for t in net.transitions}
    if not draw(st.booleans()):
        return LabelledNet(net, initial, labels)
    places = []
    for _ in net.places:
        marking = draw(st.dictionaries(st.text(HOSTILE, min_size=1, max_size=4), st.integers(1, 2), max_size=3))
        region = Region(Multiset(marking), 2) if marking and draw(st.booleans()) else None
        places.append(PlaceDefinition({}, {}, 0, region))
    return SynthesisResult(LabelledNet(net, initial, {t: t for t in net.transitions}), tuple(places))


def texts_of(obj) -> list:
    """The strings write_pnml puts in text content: labels and provenance."""
    if isinstance(obj, LabelledNet):
        return list(obj.labels.values())
    texts = list(obj.net.net.transitions)
    for place in obj.places:
        if place.source_region is not None:
            texts += [f"{p}={c}" for p, c in place.source_region.marking.items()]
    return texts


class TestWritePnml:
    def test_e_seq_document_shape(self):
        payload = net_io.write_pnml(make_e_seq())
        text = payload.decode("utf-8")
        assert text.count("<place") == 3
        assert text.count("<transition") == 2
        assert text.count("<arc") == 4
        assert "<text>a</text>" in text

    def test_empty_marking_has_no_initial_elements(self):
        ln = LabelledNet(PetriNet(("p",), ("t",), Multiset()), Multiset(), {"t": "a"})
        assert b"initialMarking" not in net_io.write_pnml(ln)

    def test_weight_two_has_inscription(self):
        ln = LabelledNet(
            PetriNet(("p",), ("t",), Multiset({("t", "p"): 2})), Multiset(), {"t": "a"}
        )
        assert b"<inscription>" in net_io.write_pnml(ln)
        assert b"<text>2</text>" in net_io.write_pnml(ln)

    def test_roundtrip_fixtures(self):
        for ln in (make_e_seq(), make_e_dup(), make_e_two_a(), make_e_two_b()):
            assert net_io.parse_pnml(net_io.write_pnml(ln)) == ln

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=60)
    def test_roundtrip_random_nets(self, seed):
        rng = random.Random(seed)
        ln = random_labelled_net(
            rng, "x", rng.randint(1, 6), rng.randint(0, 4), max_weight=3, max_tokens=3
        )
        assert net_io.parse_pnml(net_io.write_pnml(ln)) == ln

    def test_synthesis_result_roundtrips_with_annotation(self):
        res = synthesize(RegionProblem(spec_of(make_e_seq()), 1))
        payload = net_io.write_pnml(res)
        assert b'toolspecific tool="ttsynth"' in payload
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # own annotations are skipped silently
            parsed = net_io.parse_pnml(payload)
        assert parsed.net == res.net.net
        assert parsed.initial == res.net.initial

    @given(hostile_nets())
    @settings(deadline=None, max_examples=200)
    def test_same_bytes_as_element_tree(self, obj):
        # ElementTree writes a carriage return in text raw, which XML reads
        # back as a line feed; write_pnml escapes it, as in attributes.
        payload = net_io.write_pnml(obj)
        assert b"\r" not in payload
        if not any("\r" in t for t in texts_of(obj)):
            assert payload == write_pnml_by_element_tree(obj)

    @given(hostile_nets())
    @settings(deadline=None, max_examples=200)
    def test_hostile_nets_roundtrip(self, obj):
        # A reader strips a name's edge whitespace and falls back to the
        # id for an empty one; every other label reads back as written.
        # An id read as a label must not begin or end with whitespace.
        ln = net_io._as_labelled(obj)
        labels = {t: label.strip() or t for t, label in ln.labels.items()}
        payload = net_io.write_pnml(obj)
        if any(label != label.strip() for label in labels.values()):
            with pytest.raises(net_io.ParseError, match="begins or ends with whitespace"):
                net_io.parse_pnml(payload)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = net_io.parse_pnml(payload)
        assert parsed == LabelledNet(ln.net, ln.initial, labels)

    def test_carriage_return_in_text_is_escaped(self):
        ln = LabelledNet(PetriNet(("p",), ("t",), Multiset({("p", "t"): 1})), Multiset({"p": 1}), {"t": "a\rb"})
        payload = net_io.write_pnml(ln)
        assert b"<text>a&#13;b</text>" in payload
        assert net_io.parse_pnml(payload) == ln

    def test_deterministic_bytes(self):
        assert net_io.write_pnml(make_e_seq()) == net_io.write_pnml(make_e_seq())


class TestTraces:
    def test_two_lines(self):
        assert net_io.parse_traces(b"a b\na a\n") == [("a", "b"), ("a", "a")]

    def test_comments_and_blanks(self):
        assert net_io.parse_traces(b"# comment\n\na\n") == [("a",)]

    def test_empty_file(self):
        assert net_io.parse_traces(b"") == []


class TestStateGraphFile:
    def test_small_graph(self):
        doc = json.dumps({"initial": "s0", "arcs": [{"from": "s0", "label": "a", "to": "s1"}]})
        sg = net_io.parse_state_graph(doc.encode())
        assert set(sg.states) == {"s0", "s1"}
        assert sg.initial == "s0"

    def test_unreachable_cluster_rejected(self):
        doc = json.dumps(
            {
                "initial": "s0",
                "arcs": [
                    {"from": "s0", "label": "a", "to": "s1"},
                    {"from": "s2", "label": "b", "to": "s3"},
                ],
            }
        )
        with pytest.raises(net_io.ParseError, match="unreachable state"):
            net_io.parse_state_graph(doc.encode())

    def test_no_arcs_single_state(self):
        sg = net_io.parse_state_graph(json.dumps({"initial": "s0", "arcs": []}).encode())
        assert sg.states == ("s0",)
        assert sg.arcs == ()

    def test_missing_fields_rejected(self):
        with pytest.raises(net_io.ParseError):
            net_io.parse_state_graph(b"{}")
        with pytest.raises(net_io.ParseError):
            net_io.parse_state_graph(json.dumps({"initial": "s0", "arcs": [{"from": "s0"}]}).encode())


class TestRunFile:
    def test_ordered_pair(self):
        doc = json.dumps({"events": {"v1": "a", "v2": "b"}, "order": [["v1", "v2"]]})
        run = net_io.parse_run(doc.encode())
        assert run.events == ("v1", "v2")
        assert run.order == (("v1", "v2"),)
        assert run.labels == {"v1": "a", "v2": "b"}

    def test_bad_order_entry(self):
        doc = json.dumps({"events": {"v1": "a"}, "order": [["v1"]]})
        with pytest.raises(net_io.ParseError):
            net_io.parse_run(doc.encode())


class TestDot:
    def test_e_seq_counts(self):
        text = net_io.export_dot(make_e_seq())
        assert text.count("shape=circle") == 3
        assert text.count("shape=box") == 2
        assert text.count("->") == 4

    def test_weight_annotation(self):
        ln = LabelledNet(
            PetriNet(("p",), ("t",), Multiset({("t", "p"): 2})), Multiset(), {"t": "a"}
        )
        assert '[label="2"]' in net_io.export_dot(ln)

    def test_token_annotation(self):
        ln = LabelledNet(PetriNet(("p",), ("t",), Multiset()), Multiset({"p": 2}), {"t": "a"})
        assert "p\\n2" in net_io.export_dot(ln)

    def test_deterministic(self):
        assert net_io.export_dot(make_e_seq()) == net_io.export_dot(make_e_seq())


class TestRegionTable:
    def test_table_layout(self):
        regions = [Region(Multiset({"c0": 1}), 1), Region(Multiset({"c1": 1}), 1)]
        table = net_io.format_region_table(("c0", "c1", "c2"), regions)
        lines = table.splitlines()
        assert lines[0].split() == ["c0", "c1", "c2"]
        assert lines[1].split() == ["1", "0", "0"]
        assert lines[2].split() == ["0", "1", "0"]

    def test_json_layout(self):
        regions = [Region(Multiset({"c0": 1}), 1)]
        rows = json.loads(net_io.format_region_table(("c0", "c1"), regions, "json"))
        assert rows == [{"c0": 1, "c1": 0}]

    def test_empty(self):
        table = net_io.format_region_table(("c0",), [])
        assert table.splitlines() == ["c0"]
