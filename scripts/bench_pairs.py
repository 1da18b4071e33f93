#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summed up in one JSON file.

    git worktree add --detach ../parent HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload interleave --pairs 10 --out BENCH_16.json

Each checkout must hold `benchmark/run.py` and the sources it benchmarks.
Pair i runs `benchmark/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each checkout, S being the change's `run_seconds` in
`BENCHMARK.json`, the parent first in even pairs and the change first in
odd ones, so the pair count must be even. Whether a metric is better lower
or higher, and its bound (the relative loss it may show), are read from
the same file's `end_to_end` list. Per workload and end-to-end metric the
file holds both medians and quartiles, the change's relative difference,
the pairs the change won (strictly better), whether a gain holds (better
in at least 9 of 10 pairs and, in the median, by more than the parent's
interquartile range) and a no-regression verdict (see `verdict`). It also
holds every run's values, the environment that run.py reports, and both
commits. Each verdict is also printed to stderr.

Exit codes: 0 written, 1 a run failed (nothing is written), 2 usage error,
such as a missing checkout, an odd pair count or a change without a
readable `BENCHMARK.json` holding `run_seconds` and, per `end_to_end`
metric, `better` and `bound`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class RunFailed(Exception):
    pass


def run_once(checkout: Path, workload: str, seed: int, seconds: float, names) -> tuple[dict, dict]:
    """One benchmark run in `checkout`: the metrics `names` and its environment."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        env = json.loads(next(line for line in lines if line.startswith("environment "))[len("environment "):])
        metrics = {name: result["metrics"][name]["value"] for name in names}
    except (IndexError, StopIteration, ValueError, KeyError, TypeError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RunFailed(f"{checkout} {workload} seed {seed}: exit {proc.returncode}: {tail}")
    return metrics, env


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, sign: int, bound: float) -> str:
    """Whether the change's runs show a loss beyond `bound`, relative to
    the parent's median, on a metric better lower (sign 1) or higher (-1).

    "within bound" when every change run beats every parent run; else
    "worse" when the change's median is worse than the parent's by more
    than the bound; else "unresolved" when the parent's interquartile
    range is wider than the bound, so a loss that large could hide in its
    spread; else "within bound".
    """
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "within bound"
    p = summary(parent)
    scale = bound * abs(p["median"])
    if sign * (statistics.median(change) - p["median"]) > scale:
        return "worse"
    if p["q3"] - p["q1"] > scale:
        return "unresolved"
    return "within bound"


def compare(runs: list, better: dict, bounds: dict) -> dict:
    """Per metric: both sides' medians and quartiles, and how the change fared."""
    out = {}
    for name in better:
        sign = 1 if better[name] == "lower" else -1
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p, c = summary(parent), summary(change)
        won = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
        gain = sign * (p["median"] - c["median"])
        out[name] = {
            "better": "lower" if sign == 1 else "higher",
            "parent": p,
            "change": c,
            "relative": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
            "pairs_won": won,
            "gain_holds": won >= math.ceil(0.9 * len(runs)) and gain > p["q3"] - p["q1"],
            "bound": bounds[name],
            "verdict": verdict(parent, change, sign, bounds[name]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        print("error: --pairs must be even and >= 2, so each side runs first equally often", file=sys.stderr)
        return 2
    checkouts = {"parent": args.parent, "change": args.change}
    for side, path in checkouts.items():
        if not (path / "benchmark" / "run.py").is_file():
            print(f"error: {side} checkout {str(path)!r} has no benchmark/run.py", file=sys.stderr)
            return 2
    try:
        spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = float(spec["run_seconds"])
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: change checkout has no usable BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2

    report: dict = {"pairs": args.pairs, "seconds": seconds, "workloads": {}, "environment": {}}
    try:
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side], env = run_once(checkouts[side], workload, seed, seconds, better)
                    report["environment"].setdefault(side, env)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{s} check_s {run[s].get('check_s', float('nan')):.4f}" for s in SIDES), file=sys.stderr)
                runs.append(run)
            metrics = compare(runs, better, bounds)
            for name, m in metrics.items():
                print(f"{workload} {name}: {m['verdict']}", file=sys.stderr)
            report["workloads"][workload] = {"metrics": metrics, "runs": runs}
    except RunFailed as exc:
        print(f"error: run failed, nothing written: {exc}", file=sys.stderr)
        return 1
    report["commits"] = {side: report["environment"][side].get("git_commit") for side in SIDES}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
