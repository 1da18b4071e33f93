#!/usr/bin/env python3
"""Self-test of bench_pairs.py on fake checkouts, without running ttsynth.

    python3 scripts/bench_pairs_selftest.py

Each fake checkout's `benchmark/run.py` prints a fixed result and logs its
call, and its `BENCHMARK.json` sets a run length of 2 s. Checks that two
pairs alternate the order, run for that length and sum up medians, pairs
won and verdicts, each metric counted in its own direction, that the
verdict tells a loss beyond the bound from one hidden in the parent's
spread, and that an odd pair count, a missing checkout, a change without
`BENCHMARK.json` and a failed run each write nothing. Exits 0 when all
hold.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench_pairs

FAKE_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
seed = int(sys.argv[sys.argv.index("--seed") + 1])
seconds = sys.argv[sys.argv.index("--seconds") + 1]
value = float((here / "VALUE").read_text())
with open(here.parent / "calls.log", "a") as log:
    log.write(here.name + " " + seconds + "\\n")
if value < 0:
    print("run crashed", file=sys.stderr)
    sys.exit(1)
print("environment " + json.dumps({"git_commit": here.name + "-commit"}))
print(json.dumps({"failed": 0, "metrics": {
    "check_s": {"value": value + seed / 1000, "unit": "s"},
    "success_rate": {"value": min(1.0, value), "unit": "ratio"},
}}))
"""

SPEC = {
    "run_seconds": 2,
    "end_to_end": [
        {"name": "check_s", "better": "lower", "bound": 0.25},
        {"name": "success_rate", "better": "higher", "bound": 0.01},
    ],
}

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def checkout(root: Path, name: str, value: float) -> Path:
    path = root / name
    (path / "benchmark").mkdir(parents=True)
    (path / "benchmark" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    (path / "VALUE").write_text(str(value), encoding="utf-8")
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    return path


def run(root: Path, parent: Path, change: Path, pairs: int) -> tuple[int, Path, list]:
    out = root / "BENCH.json"
    out.unlink(missing_ok=True)
    log = root / "calls.log"
    log.unlink(missing_ok=True)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--pairs", str(pairs),
            "--out", str(out)]
    code = bench_pairs.main(argv)
    calls = log.read_text().splitlines() if log.exists() else []
    return code, out, calls


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        parent, change = checkout(root, "parent", 1.0), checkout(root, "change", 0.5)

        code, out, calls = run(root, parent, change, 2)
        expect(code == 0 and out.exists(), "two pairs write the file")
        expect(
            calls == ["parent 2.0", "change 2.0", "change 2.0", "parent 2.0"],
            "pairs alternate which side runs first, for the run_seconds of BENCHMARK.json",
        )
        report = json.loads(out.read_text()) if out.exists() else {}
        check = report.get("workloads", {}).get("w", {}).get("metrics", {}).get("check_s", {})
        medians = [check.get(side, {}).get("median", 0) for side in ("parent", "change")]
        expect(abs(medians[0] - 1.0015) < 1e-9 and abs(medians[1] - 0.5015) < 1e-9, "medians of both sides")
        expect(check.get("pairs_won") == 2 and check.get("gain_holds") is True, "a change better in every pair wins them")
        rate = report.get("workloads", {}).get("w", {}).get("metrics", {}).get("success_rate", {})
        expect(rate.get("better") == "higher" and rate.get("pairs_won") == 0, "a higher-is-better metric, lower in every pair, wins no pair")
        expect(
            check.get("verdict") == "within bound" and rate.get("verdict") == "worse",
            "verdicts: a change better in every run is within bound, one 50% lower on a 1% bound is worse",
        )
        expect(report.get("commits") == {"parent": "parent-commit", "change": "change-commit"}, "both commits recorded")

        code, out, calls = run(root, parent, change, 3)
        expect(code == 2 and not out.exists() and calls == [], "an odd pair count is refused before any run")

        code, out, calls = run(root, root / "missing", change, 2)
        expect(code == 2 and not out.exists() and calls == [], "a missing checkout is refused before any run")

        (change / "BENCHMARK.json").unlink()
        code, out, calls = run(root, parent, change, 2)
        expect(code == 2 and not out.exists() and calls == [], "a change without BENCHMARK.json is refused before any run")
        (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPEC["end_to_end"]}), encoding="utf-8")
        code, out, calls = run(root, parent, change, 2)
        expect(code == 2 and not out.exists() and calls == [], "a BENCHMARK.json without run_seconds is refused")
        (change / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")

        (change / "VALUE").write_text("-1", encoding="utf-8")
        code, out, calls = run(root, parent, change, 2)
        expect(
            code == 1 and not out.exists() and calls == ["parent 2.0", "change 2.0"],
            "a failed run stops and writes nothing",
        )
    parent = [1.00, 1.10, 1.20, 1.30, 1.40, 1.50, 1.60, 1.70, 1.80, 1.90]  # median 1.45, IQR 0.45
    cases = [
        ([x * 0.9 for x in parent], 0.25, "unresolved", "10% faster in the median, but the parent IQR is 31% > 25%"),
        ([x * 1.4 for x in parent], 0.25, "worse", "40% slower in the median"),
        ([x * 1.2 for x in parent], 0.25, "unresolved", "20% slower, inside a 31% parent IQR"),
        ([x * 1.2 for x in parent], 0.5, "within bound", "20% slower on a 50% bound wider than the IQR"),
        ([x * 0.5 for x in parent], 0.25, "within bound", "no change run reaches the best parent run"),
    ]
    for change, bound, want, what in cases:
        got = bench_pairs.verdict(parent, change, 1, bound)
        expect(got == want, f"verdict {want!r}: {what} (got {got!r})")
    expect(bench_pairs.verdict([1.0] * 4, [0.98] * 4, -1, 0.01) == "worse", "a higher-is-better metric 2% lower on a 1% bound is worse")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
