import contextlib
import io
import json
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixture_nets import make_e_seq
from oracles import lts_isomorphic, relabel_arcs
from ttsynth import io as net_io
from ttsynth.cli import main
from ttsynth.core import LabelledNet, Multiset, PetriNet, reachability_graph


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def nested_pages(depth: int) -> str:
    """A PNML net whose one place, transition and arc sit `depth` pages deep."""
    return (
        '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml"><net id="n">'
        + "".join(f'<page id="g{i}">' for i in range(depth))
        + '<place id="p"><initialMarking><text>1</text></initialMarking></place>'
        + '<transition id="t"><name><text>a</text></name></transition><arc id="a1" source="p" target="t"/>'
        + "</page>" * depth
        + "</net></pnml>"
    )


class TestSynth:
    def test_trace_to_chain(self, tmp_path, capsys):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out = tmp_path / "out.pnml"
        code = main(["synth", "-k", "1", "-o", str(out), traces])
        assert code == 0
        err = capsys.readouterr().err
        assert "regions: 3" in err
        assert "places: 3" in err
        result = net_io.parse_pnml(out.read_bytes())
        expected = make_e_seq()
        got = relabel_arcs(reachability_graph(result.marked(), 50), result.labels)
        want = relabel_arcs(reachability_graph(expected.marked(), 50), expected.labels)
        assert lts_isomorphic(got, want)

    def test_short_loop_from_duplicate_labels(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a a\n")
        out = tmp_path / "out.pnml"
        assert main(["synth", "-k", "1", "-o", str(out), traces]) == 0
        result = net_io.parse_pnml(out.read_bytes())
        assert len(result.net.places) == 1
        place = result.net.places[0]
        assert result.net.arcs[(place, "a")] == 1
        assert result.net.arcs[("a", place)] == 1
        assert result.initial == Multiset({place: 1})

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["synth", "-o", "x.pnml"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_parse_error_leaves_no_file(self, tmp_path):
        bad = write(tmp_path, "bad.pnml", b"<pnml><net>")
        out = tmp_path / "out.pnml"
        assert main(["synth", "-o", str(out), bad]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, doc, code",
        [
            ("deep.pnml", nested_pages(3000), 0),
            ("deep.sg", "[" * 100_000 + "]" * 100_000, 2),
            ("deep.run", '{"events": ' + "[" * 100_000 + "]" * 100_000 + "}", 2),
        ],
        ids=["pnml", "sg", "run"],
    )
    def test_nested_deeper_than_the_recursion_limit(self, tmp_path, capsys, name, doc, code):
        # Pages nest to any depth; JSON this deep is a parse error: exit 2,
        # one error line, nothing written.
        deep = write(tmp_path, name, doc)
        out = tmp_path / "out.pnml"
        assert main(["synth", "-o", str(out), deep]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: malformed") and err.count("\n") == 1
            assert not out.exists()
        else:
            assert main(["check", "--model", deep, deep]) == 0
            assert capsys.readouterr().out == "net 1: place p: enabled\n"

    def test_unknown_extension(self, tmp_path):
        weird = write(tmp_path, "spec.xyz", "a b\n")
        assert main(["synth", "-o", str(tmp_path / 'o.pnml'), weird]) == 2

    def test_empty_trace_file_rejected(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "# nothing\n")
        assert main(["synth", "-o", str(tmp_path / 'o.pnml'), traces]) == 2

    def test_truncation_exit_code(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out = tmp_path / "out.pnml"
        code = main(["synth", "-k", "1", "--max-regions", "1", "-o", str(out), traces])
        assert code == 3
        assert out.exists()  # result is still written

    def test_failed_write_leaves_no_file(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out, dot = tmp_path / "out.pnml", tmp_path / "nodir" / "out.dot"
        assert main(["synth", "-o", str(out), "--dot", str(dot), traces]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.traces"]
        out.write_bytes(b"earlier")
        assert main(["synth", "-o", str(out), "--dot", str(dot), traces]) == 2
        assert out.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pnml", "spec.traces"]
        assert main(["synth", "-o", str(out), "--dot", str(tmp_path), traces]) == 2
        assert out.read_bytes() == b"earlier"

    def test_symlink_target_keeps_the_link(self, tmp_path):
        # The link stays a link and the file it points to gets the bytes,
        # also when that file does not exist yet.
        traces = write(tmp_path, "spec.traces", "a b\n")
        real, link = tmp_path / "real.pnml", tmp_path / "link.pnml"
        real.write_bytes(b"earlier")
        link.symlink_to(real)
        dot_link = tmp_path / "link.dot"
        dot_link.symlink_to("new.dot")
        assert main(["synth", "-o", str(link), "--dot", str(dot_link), traces]) == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert dot_link.is_symlink() and os.readlink(dot_link) == "new.dot"
        assert net_io.parse_pnml(real.read_bytes()).net.places
        assert (tmp_path / "new.dot").read_text(encoding="utf-8").startswith("digraph")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.dot", "link.pnml", "new.dot", "real.pnml", "spec.traces"]

    def test_fifo_target_is_written_directly(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out, fifo = tmp_path / "out.pnml", tmp_path / "out.dot"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code = main(["synth", "-o", str(out), "--dot", str(fifo), traces])
        reader.join(timeout=10)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received and received[0].startswith(b"digraph")
        assert net_io.parse_pnml(out.read_bytes()).net.places

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out = tmp_path / "out.pnml"
        out.write_bytes(b"earlier")
        os.chmod(out, 0o604)  # a mode no common umask gives a new file
        assert main(["synth", "-o", str(out), traces]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o604
        assert net_io.parse_pnml(out.read_bytes()).net.places

    def test_outputs_naming_one_file_rejected(self, tmp_path, capsys):
        # Both documents would land in one file, the last one winning.
        traces = write(tmp_path, "spec.traces", "a b\n")
        out = tmp_path / "out.pnml"
        assert main(["synth", "-o", str(out), "--dot", str(out), traces]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.traces"]
        out.write_bytes(b"earlier")
        same = tmp_path / "." / "out.pnml"
        assert main(["synth", "-o", str(out), "--dot", str(same), traces]) == 2
        assert out.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pnml", "spec.traces"]

    def test_output_linked_to_another_output_rejected(self, tmp_path, capsys):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out, link = tmp_path / "out.pnml", tmp_path / "out.dot"
        link.symlink_to(out)  # dangling: out.pnml does not exist yet
        assert main(["synth", "-o", str(out), "--dot", str(link), traces]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "spec.traces"]
        out.write_bytes(b"earlier")
        assert main(["synth", "-o", str(link), "--dot", str(out), traces]) == 2
        assert out.read_bytes() == b"earlier" and link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.dot", "out.pnml", "spec.traces"]

    def test_dot_output(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out, dot = tmp_path / "out.pnml", tmp_path / "out.dot"
        assert main(["synth", "-o", str(out), "--dot", str(dot), traces]) == 0
        assert dot.read_text(encoding="utf-8").startswith("digraph")

    def test_multiple_files_form_one_specification(self, tmp_path):
        t1 = write(tmp_path, "one.traces", "a b\n")
        t2 = write(tmp_path, "two.traces", "a a\n")
        out = tmp_path / "out.pnml"
        assert main(["synth", "-k", "1", "-o", str(out), t1, t2]) == 0
        result = net_io.parse_pnml(out.read_bytes())
        assert set(result.labels.values()) == {"a", "b"}

    def test_deterministic_artifacts(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\na a b\n")
        out1, out2 = tmp_path / "o1.pnml", tmp_path / "o2.pnml"
        assert main(["synth", "-k", "2", "-o", str(out1), traces]) == 0
        assert main(["synth", "-k", "2", "-o", str(out2), traces]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_place_ids_like_binaries(self, tmp_path, capsys):
        chain = net_io.write_pnml(make_e_seq())
        spec = write(tmp_path, "spec.pnml", chain.replace(b'"c2"', b'"_blk2_c0"'))
        out = tmp_path / "out.pnml"
        assert main(["synth", "-k", "1", "-o", str(out), spec]) == 0
        err = capsys.readouterr().err
        assert "regions: 3" in err and "places: 3" in err
        assert b"_blk2_c0=1" in out.read_bytes()
        assert main(["check", "--model", str(out), spec]) == 0


class TestRegions:
    def test_e_seq_rows(self, tmp_path, capsys):
        traces = write(tmp_path, "spec.traces", "a b\n")
        assert main(["regions", "-k", "1", traces]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 3  # header plus one row per region

    def test_e_dup_single_row(self, tmp_path, capsys):
        traces = write(tmp_path, "spec.traces", "a a\n")
        assert main(["regions", "-k", "1", traces]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2

    def test_discovery_contradiction_yields_no_rows(self, tmp_path, capsys):
        # with the final place pinned to zero, "a a" admits no region at k=1
        traces = write(tmp_path, "spec.traces", "a a\n")
        assert main(["regions", "-k", "1", "--mode", "discovery", traces]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1  # header only

    def test_json_format(self, tmp_path, capsys):
        traces = write(tmp_path, "spec.traces", "a b\n")
        assert main(["regions", "-k", "1", "--format", "json", traces]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [
            {"c0": 1, "c1": 0, "c2": 0},
            {"c0": 0, "c1": 1, "c2": 0},
            {"c0": 0, "c1": 0, "c2": 1},
        ]


class TestCheck:
    def synth_model(self, tmp_path):
        traces = write(tmp_path, "spec.traces", "a b\n")
        out = tmp_path / "model.pnml"
        assert main(["synth", "-k", "1", "-o", str(out), traces]) == 0
        return traces, str(out)

    def test_synth_output_simulates_its_spec(self, tmp_path, capsys):
        traces, model = self.synth_model(tmp_path)
        assert main(["check", "--model", model, traces]) == 0
        out = capsys.readouterr().out
        assert out.count("enabled") == 3

    @pytest.mark.parametrize(
        "name, doc",
        [
            # transitions (a,b,c,x) twice, once per arc
            (
                "clash.sg",
                {
                    "initial": "a",
                    "arcs": [
                        {"from": "a", "label": "b,c", "to": "x"},
                        {"from": "a,b", "label": "c", "to": "x"},
                        {"from": "a", "label": "d", "to": "a,b"},
                    ],
                },
            ),
            # the slot (▶,v1) next to an event "(▶,v1)"
            ("clash.run", {"events": {"(▶,v1)": "a", "v1": "b"}, "order": [["v1", "(▶,v1)"]]}),
        ],
    )
    def test_converted_ids_that_would_clash(self, tmp_path, capsys, name, doc):
        spec = write(tmp_path, name, json.dumps(doc))
        model = tmp_path / "model.pnml"
        assert main(["synth", "-k", "1", "-o", str(model), spec]) == 0
        assert main(["check", "--model", str(model), spec]) == 0
        out = capsys.readouterr().out
        assert "enabled" in out and "not" not in out

    def test_missing_label_is_an_error(self, tmp_path, capsys):
        traces, model = self.synth_model(tmp_path)
        wider = write(tmp_path, "wider.traces", "a b c\n")
        capsys.readouterr()
        for specs in ([wider], [traces, wider]):
            assert main(["check", "--model", model, *specs]) == 2
            captured = capsys.readouterr()
            assert "unknown label" in captured.err
            assert captured.out == ""

    def test_restrictive_model_fails_with_place_named(self, tmp_path, capsys):
        model_doc = b"""<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <place id="p"><initialMarking><text>1</text></initialMarking></place>
    <transition id="a"/>
    <arc id="a1" source="p" target="a"/>
  </net>
</pnml>
"""
        model = write(tmp_path, "model.pnml", model_doc)
        longer = write(tmp_path, "longer.traces", "a a\n")
        assert main(["check", "--model", model, longer]) == 1
        assert "place p: not shown" in capsys.readouterr().out

    def test_duplicate_model_labels_rejected(self, tmp_path, capsys):
        doc = b"""<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <transition id="t1"><name><text>a</text></name></transition>
    <transition id="t2"><name><text>a</text></name></transition>
  </net>
</pnml>
"""
        model = write(tmp_path, "model.pnml", doc)
        traces = write(tmp_path, "spec.traces", "a\n")
        assert main(["check", "--model", model, traces]) == 2
        assert "duplicate transition label" in capsys.readouterr().err

    def test_label_equal_to_a_model_place_rejected(self, tmp_path, capsys):
        # Renaming the model's transitions to their labels is not fresh:
        # the label "a" is also a place id, so the renamed net is invalid.
        doc = b"""<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <place id="a"><initialMarking><text>1</text></initialMarking></place>
    <transition id="t1"><name><text>a</text></name></transition>
    <arc id="a1" source="a" target="t1"/>
  </net>
</pnml>
"""
        model = write(tmp_path, "model.pnml", doc)
        traces = write(tmp_path, "spec.traces", "a\n")
        assert main(["check", "--model", model, traces]) == 2
        captured = capsys.readouterr()
        assert "error: places and transitions overlap: ['a']" in captured.err
        assert captured.out == ""


    def test_transition_ids_permuted_among_labels(self, tmp_path, capsys):
        # The model's transition ids are its labels in another order (the
        # one labelled a is named b, and so on): the transitions are renamed
        # to their labels all at once, so the verdicts are the model's own.
        traces = write(tmp_path, "spec.traces", "a b c\na c b\n")
        longer = write(tmp_path, "longer.traces", "a b c b\n")
        model = tmp_path / "model.pnml"
        assert main(["synth", "-k", "1", "-o", str(model), traces]) == 0
        ln = net_io.parse_pnml(model.read_bytes())
        ids = dict(zip(ln.net.transitions, ln.net.transitions[1:] + ln.net.transitions[:1]))
        arcs = Multiset({(ids.get(s, s), ids.get(t, t)): w for (s, t), w in ln.net.arcs.items()})
        permuted = LabelledNet(
            PetriNet(ln.net.places, tuple(ids[t] for t in ln.net.transitions), arcs),
            ln.initial,
            {ids[t]: label for t, label in ln.labels.items()},
        )
        assert len(ids) == 3 and all(t != label for t, label in permuted.labels.items())
        renamed = write(tmp_path, "permuted.pnml", net_io.write_pnml(permuted))
        capsys.readouterr()
        assert main(["check", "--model", str(model), traces, longer]) == 1
        original = capsys.readouterr().out
        assert "enabled" in original and "not shown" in original
        assert main(["check", "--model", renamed, traces, longer]) == 1
        assert capsys.readouterr().out == original


class TestConvert:
    def test_state_graph(self, tmp_path):
        sg = write(
            tmp_path,
            "g.sg",
            json.dumps({"initial": "s0", "arcs": [{"from": "s0", "label": "a", "to": "s1"}]}),
        )
        out = tmp_path / "g.pnml"
        assert main(["convert", sg, "-o", str(out)]) == 0
        ln = net_io.parse_pnml(out.read_bytes())
        assert set(ln.net.places) == {"s0", "s1"}
        assert list(ln.labels.values()) == ["a"]

    def test_single_trace(self, tmp_path):
        traces = write(tmp_path, "t.traces", "a\n")
        out = tmp_path / "t.pnml"
        assert main(["convert", traces, "-o", str(out)]) == 0
        ln = net_io.parse_pnml(out.read_bytes())
        assert len(ln.net.places) == 2

    def test_multiple_traces_suffix_outputs(self, tmp_path):
        traces = write(tmp_path, "t.traces", "a\na b\n")
        out = tmp_path / "t.pnml"
        assert main(["convert", traces, "-o", str(out)]) == 0
        assert not out.exists()
        assert (tmp_path / "t-1.pnml").exists()
        assert (tmp_path / "t-2.pnml").exists()

    def test_failed_write_leaves_no_file(self, tmp_path):
        traces = write(tmp_path, "t.traces", "a\na b\n")
        (tmp_path / "t-2.pnml").mkdir()
        assert main(["convert", traces, "-o", str(tmp_path / "t.pnml")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t-2.pnml", "t.traces"]

    def test_cyclic_run_rejected(self, tmp_path, capsys):
        run = write(
            tmp_path,
            "r.run",
            json.dumps({"events": {"v1": "a", "v2": "b"}, "order": [["v1", "v2"], ["v2", "v1"]]}),
        )
        assert main(["convert", run, "-o", str(tmp_path / "r.pnml")]) == 2
        assert "not a partial order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, doc",
        [
            ("g.sg", {"initial": "s0", "arcs": [{"from": "s0", "label": "", "to": "s1"}]}),
            ("g.sg", {"initial": "", "arcs": [{"from": "", "label": "a", "to": "s1"}]}),
            ("g.sg", {"initial": "s0", "arcs": [{"from": "s0", "label": "a", "to": ""}]}),
            ("r.run", {"events": {"": "a", "v2": "b"}, "order": [["", "v2"]]}),
            ("r.run", {"events": {"v1": "", "v2": "b"}, "order": [["v1", "v2"]]}),
            ("g.sg", {"initial": "s0", "arcs": [{"from": "s0", "label": " a", "to": "s1"}]}),
            ("g.sg", {"initial": "s0", "arcs": [{"from": "s0", "label": "a\n", "to": "s1"}]}),
            ("r.run", {"events": {"v1": " a", "v2": "b"}, "order": [["v1", "v2"]]}),
            ("r.run", {"events": {"v1": "a", "v2": "b\n"}, "order": [["v1", "v2"]]}),
        ],
        ids=["sg-label", "sg-initial", "sg-state", "run-event", "run-label",
             "sg-label-leading-space", "sg-label-trailing-newline",
             "run-label-leading-space", "run-label-trailing-newline"],
    )
    def test_empty_ids_rejected(self, tmp_path, capsys, name, doc):
        # An empty id or label would reach a PNML that no reader accepts,
        # and a PNML reader strips whitespace at a label's ends: exit 2,
        # one error line, nothing written, for convert and synth.
        spec = write(tmp_path, name, json.dumps(doc))
        for argv in (["convert", spec, "-o", str(tmp_path / "out.pnml")], ["synth", "-o", str(tmp_path / "out.pnml"), spec]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_pnml_id_label_with_edge_whitespace_rejected(self, tmp_path, capsys):
        # A transition without a name is labelled by its id; a reader would
        # strip the name written for " t ", so check could not read it back.
        spec = write(tmp_path, "in.pnml", '<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml"><net id="n">'
                     '<place id="p"/><transition id=" t "/><arc id="a1" source=" t " target="p"/></net></pnml>')
        for argv in (["convert", spec, "-o", str(tmp_path / "out.pnml")], ["synth", "-k", "1", "-o", str(tmp_path / "out.pnml"), spec]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: transition ' t ': label ' t ' begins or ends with whitespace\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pnml"]

    @pytest.mark.parametrize(
        "name, doc",
        [
            ("g.sg", {"initial": "s0", "arcs": [{"from": "s0", "label": "a\rb", "to": "s1"}]}),
            ("r.run", {"events": {"v1": "a\rb", "v2": "c"}, "order": [["v1", "v2"]]}),
        ],
        ids=["sg", "run"],
    )
    def test_carriage_return_in_label_survives(self, tmp_path, capsys, name, doc):
        # XML reads a raw carriage return in text back as a line feed.
        spec = write(tmp_path, name, json.dumps(doc))
        model = str(tmp_path / "m.pnml")
        assert main(["synth", "-k", "2", "-o", model, spec]) == 0
        assert main(["check", "--model", model, spec]) == 0
        assert "enabled" in capsys.readouterr().out
        assert main(["convert", spec, "-o", str(tmp_path / "c.pnml")]) == 0
        assert "a\rb" in net_io.parse_pnml((tmp_path / "c.pnml").read_bytes()).labels.values()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("g.sg", json.dumps({"initial": "s0", "arcs": [{"from": "s0", "label": "a\x01", "to": "s1"}]})),
            ("g.sg", json.dumps({"initial": "s0", "arcs": [{"from": "s0", "label": "a", "to": "s\uffff"}]})),
            ("g.sg", json.dumps({"initial": "s\ud800", "arcs": []})),
            ("r.run", json.dumps({"events": {"v1": "a\ud800", "v2": "b"}, "order": [["v1", "v2"]]})),
            ("r.run", json.dumps({"events": {"v\x01": "a", "v2": "b"}, "order": [["v\x01", "v2"]]})),
            ("t.traces", "a b\x01 c\n"),
            ("t.traces", "a \uffff\n"),
        ],
        ids=["sg-label", "sg-state", "sg-initial", "run-label", "run-event", "traces-control", "traces-noncharacter"],
    )
    def test_characters_xml_cannot_hold_rejected(self, tmp_path, capsys, name, text):
        # A character outside XML 1.0's Char production would reach a PNML
        # that no reader accepts: exit 2, one error line, nothing written.
        spec = write(tmp_path, name, text)
        for argv in (["convert", spec, "-o", str(tmp_path / "out.pnml")], ["synth", "-o", str(tmp_path / "out.pnml"), spec]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "XML" in err and err.count("\n") == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize(
        "name, text, label",
        [
            ("g.sg", json.dumps({"initial": "s\x85", "arcs": [{"from": "s\x85", "label": "é\tb\x85c", "to": "s1"}]}), "é\tb\x85c"),
            ("r.run", json.dumps({"events": {"v\x85": "é\tb", "v2": "c"}, "order": [["v\x85", "v2"]]}), "é\tb"),
            ("t.traces", "é b\n", "é"),
        ],
        ids=["sg", "run", "traces"],
    )
    def test_characters_xml_can_hold_pass(self, tmp_path, capsys, name, text, label):
        # é, NEL and an inner tab are XML 1.0 characters.
        spec = write(tmp_path, name, text)
        model = str(tmp_path / "m.pnml")
        assert main(["synth", "-k", "2", "-o", model, spec]) == 0
        assert main(["check", "--model", model, spec]) == 0
        assert main(["convert", spec, "-o", str(tmp_path / "c.pnml")]) == 0
        assert label in net_io.parse_pnml((tmp_path / "c.pnml").read_bytes()).labels.values()

    def test_acyclic_run(self, tmp_path):
        run = write(
            tmp_path,
            "r.run",
            json.dumps({"events": {"v1": "a", "v2": "b"}, "order": [["v1", "v2"]]}),
        )
        out = tmp_path / "r.pnml"
        assert main(["convert", run, "-o", str(out)]) == 0
        ln = net_io.parse_pnml(out.read_bytes())
        assert len(ln.net.places) == 5


#: Ids that look like the tool's own names (converted tuples, run slots,
#: blocking binaries, renamed and synthesized ids) or need escaping in XML,
#: DOT or JSON. None holds whitespace, which separates trace labels.
HOSTILE_IDS = st.one_of(
    st.sampled_from(
        ["(a,b)", "a,b", "(▶,v1)", "(v1,■)", "_blk1_c0", "__blk", "n3.p0", "n1.c0", "_n2.c1", "p1", "c0", "e1",
         "ü", "λ→μ", "<a&b>", '"q"', "'", "\\", "{x}", "a;b", "-->"]
    ),
    st.text(alphabet="(),.▶■_blkn3p0ü<>&\"'\\", min_size=1, max_size=5),
)


@st.composite
def hostile_input(draw, fmt: str) -> str:
    """The text of a small input file in format `fmt` whose ids and labels
    are HOSTILE_IDS."""
    ids = lambda n: draw(st.lists(HOSTILE_IDS, min_size=1, max_size=n, unique=True))
    if fmt == "traces":
        return "\n".join(" ".join(draw(st.lists(HOSTILE_IDS, min_size=1, max_size=4))) for _ in range(draw(st.integers(1, 3))))
    if fmt == "sg":
        states = ids(4)
        arcs = [(states[i - 1], draw(HOSTILE_IDS), states[i]) for i in range(1, len(states))]
        for _ in range(draw(st.integers(0, 3))):
            arcs.append((draw(st.sampled_from(states)), draw(HOSTILE_IDS), draw(st.sampled_from(states))))
        doc = {"initial": states[0], "arcs": [{"from": s, "label": a, "to": t} for s, a, t in dict.fromkeys(arcs)]}
        return json.dumps(doc, ensure_ascii=False)
    if fmt == "run":
        events = [v for v in ids(4) if v not in ("▶", "■")] or ["v"]
        order = [(u, v) for i, u in enumerate(events) for v in events[i + 1 :] if draw(st.booleans())]
        return json.dumps({"events": {v: draw(HOSTILE_IDS) for v in events}, "order": order}, ensure_ascii=False)
    # A state machine (one token, one input and one output arc per
    # transition) with hostile place, transition and label ids.
    places = ids(4)
    transitions = [t for t in ids(4) if t not in places]
    arcs = {}
    for t in transitions:
        arcs[(draw(st.sampled_from(places)), t)] = 1
        arcs[(t, draw(st.sampled_from(places)))] = 1
    labels = {t: draw(HOSTILE_IDS) for t in transitions}
    net = LabelledNet(PetriNet(tuple(places), tuple(transitions), Multiset(arcs)), Multiset({places[0]: 1}), labels)
    return net_io.write_pnml(net).decode("utf-8")


class TestHostileIds:
    """Any id legal in an input format survives the whole tool: convert,
    synth (PNML and DOT out) and check, with exit 0 and every place
    enabled on the input and on its converted PNML."""

    @pytest.mark.parametrize("fmt", ["traces", "sg", "run", "pnml"])
    @given(data=st.data())
    @settings(deadline=None, max_examples=15)
    def test_round_trip(self, fmt, data):
        text = data.draw(hostile_input(fmt))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            source = tmp / f"in.{fmt}"
            source.write_text(text, encoding="utf-8")
            assert main(["convert", str(source), "-o", str(tmp / "conv.pnml")]) == 0
            converted = sorted(str(p) for p in tmp.glob("conv*.pnml"))
            model = tmp / "model.pnml"
            assert main(["synth", "-k", "1", "-o", str(model), "--dot", str(tmp / "model.dot"), *converted]) == 0
            for spec in (str(source), *converted):
                stdout = _check_stdout(model, spec)
                assert stdout and all(line.endswith(": enabled") for line in stdout)


def _check_stdout(model, spec) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", "--model", str(model), spec]) == 0
    return out.getvalue().splitlines()
