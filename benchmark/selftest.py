"""Self-test of the benchmark: generator sizes and the correctness check.

    python3 benchmark/selftest.py

Checks, without trusting ttsynth, that every generator produces the sizes
the workloads promise for two seeds, and that a `synth` output with one
place removed is counted as a failed operation. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import oracle
import run
import workloads

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _is_subsequence(part: list, whole: list) -> bool:
    rest = iter(whole)
    return all(label in rest for label in part)


def check_generators(seed: int) -> None:
    w = workloads.chain(seed)
    labels = w.text.split()
    expect(len(w.text.splitlines()) == 1 and len(set(labels)) == 60, f"chain seed {seed}: one trace of 60 distinct labels")
    expect(len(labels) + 1 == 61 == len(w.expected), f"chain seed {seed}: 61 places")

    w = workloads.interleave(seed)
    traces = [line.split() for line in w.text.splitlines()]
    expect(len(traces) == 70 == w.nets and len({tuple(t) for t in traces}) == 70, f"interleave seed {seed}: 70 distinct traces")
    expect(sum(len(t) + 1 for t in traces) == 630, f"interleave seed {seed}: 630 places")
    first = traces[0]
    left, right = first[:4], first[4:]
    expect(
        all(sorted(t) == sorted(first) and _is_subsequence(left, t) and _is_subsequence(right, t) for t in traces),
        f"interleave seed {seed}: every trace interleaves the same two 4-chains",
    )
    expect(len(w.expected) == 10, f"interleave seed {seed}: 10 generating places")

    w = workloads.statespace(seed)
    doc = json.loads(w.text)
    states = {doc["initial"]} | {a["from"] for a in doc["arcs"]} | {a["to"] for a in doc["arcs"]}
    expect(len(states) == 64, f"statespace seed {seed}: 64 states")
    expect(len(doc["arcs"]) == 384, f"statespace seed {seed}: 384 arcs")
    expect(len({a["label"] for a in doc["arcs"]}) == 12 == len(w.expected), f"statespace seed {seed}: 12 labels, 12 places")


def _drop_first_place(pnml: bytes) -> bytes:
    root = ET.fromstring(pnml)
    for parent in root.iter():
        for node in list(parent):
            if node.tag.endswith("place"):
                pid = node.get("id")
                parent.remove(node)
                for arc in [a for a in parent if a.tag.endswith("arc") and pid in (a.get("source"), a.get("target"))]:
                    parent.remove(arc)
                return ET.tostring(root, encoding="utf-8")
    raise ValueError("no place to drop")


class _DroppingCli:
    """The real CLI, except that `synth` loses one place of its PNML."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        code = self.cli.main(argv)
        if argv[0] == "synth":
            out = Path(argv[argv.index("-o") + 1])
            out.write_bytes(_drop_first_place(out.read_bytes()))
        return code


class _RaisingCli:
    """A CLI whose every call raises."""

    @staticmethod
    def main(argv):
        raise RuntimeError("boom")


def check_oracle() -> None:
    cli = run._import_ttsynth()
    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bench = run.Bench()
        bench.prepare(workloads.chain(1), Path(tmp))
        bench.pair(cli)
        expect(bench.attempted == 2 and bench.failed == 0, "real synth and check pass the correctness check")
        pnml = bench.pnml.read_bytes()
        dot = bench.dot.read_text(encoding="utf-8")
        expect(oracle.check_synth(bench.w, 0, _drop_first_place(pnml), dot) != [], "a PNML missing one place is rejected")

        bench.pair(_DroppingCli(cli))
        expect(bench.attempted == 4 and bench.failed == 1, "a synth missing one place counts as one failed operation")

        bench.pair(_RaisingCli)
        expect(bench.attempted == 6 and bench.failed == 3, "calls that raise count as failed operations")

        places = oracle.model_places(pnml)
        verdicts = "".join(f"net 1: place {p}: enabled\n" for p in places[1:])
        expect(oracle.check_check(bench.w, 0, verdicts, places) != [], "a check without a verdict for every place is rejected")
        not_shown = verdicts + f"net 1: place {places[0]}: not shown within bound\n"
        expect(oracle.check_check(bench.w, 1, not_shown, places) != [], "a check with a place not shown is rejected")


def main() -> int:
    for seed in (1, 2):
        check_generators(seed)
    expect(workloads.chain(1).text != workloads.chain(2).text, "seeds 1 and 2 give different label names")
    check_oracle()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
