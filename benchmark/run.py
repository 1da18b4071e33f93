"""Benchmark of the ttsynth CLI on seeded workloads.

    python3 benchmark/run.py --workload chain --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ttsynth is imported from its `src/`.
One process and one thread drive `ttsynth.cli.main` in a closed loop: each
operation starts after the previous one returned. An iteration is one pair,

    ttsynth synth -k K -o out.pnml --dot out.dot INPUT
    ttsynth check --model out.pnml INPUT

and every operation is checked by `oracle` against the net that generated
the input. Set-up (generate and write the input, import ttsynth, one
warm-up pair) is repeated SETUPS times and reported as a median. Pairs then
run until the next one would end after `--seconds`, but at least MIN_PAIRS.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1`, pairs alternate between traced and untraced, and the result
holds the per-layer metrics of `tracing` plus the tracing overhead. Inputs,
outputs, spans and the environment of the run are kept under
`.bench_out/<workload>-seed<n>-trace<t>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
MIN_PAIRS = 3
#: No new pair starts after this many seconds, so a slow commit still ends in time.
HARD_STOP_S = 140.0


def _unit(name: str) -> str:
    """Unit of a metric, by the naming rule of `tracing.layer_metrics`."""
    return "s" if name.endswith(("_s", ".s")) else "ratio" if name.endswith("_ratio") else "count"


def _import_ttsynth():
    """Import ttsynth afresh from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "ttsynth" or m.startswith("ttsynth.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ttsynth.cli

    if Path(ttsynth.cli.__file__).resolve().parent != SRC / "ttsynth":
        raise ImportError(f"ttsynth imported from {ttsynth.cli.__file__}, not from {SRC}")
    return ttsynth.cli


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _call(main, argv):
    """One CLI call with stdout and stderr captured. Returns the exit code
    (None when it raised), stdout, stderr, wall seconds and CPU seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu = time.perf_counter(), _cpu_s()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - start, _cpu_s() - cpu
    return code, out.getvalue(), err.getvalue(), wall, cpu


class Bench:
    """Runs checked pairs and counts the operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def prepare(self, workload: workloads.Workload, workdir: Path) -> None:
        """Write the workload's input; later pairs run in `workdir`."""
        self.w = workload
        self.input = workdir / workload.filename
        self.pnml = workdir / "out.pnml"
        self.dot = workdir / "out.dot"
        self.input.write_text(workload.text, encoding="utf-8")

    def _record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def pair(self, cli, tracer=None) -> dict:
        """One checked synth/check pair; spans go to `tracer` when given."""
        synth_main = check_main = cli.main
        if tracer is not None:
            synth_main = tracer.span("cli.synth", cli.main)
            check_main = tracer.span("cli.check", cli.main)
        for path in (self.pnml, self.dot):
            path.unlink(missing_ok=True)

        if tracer is not None:
            tracer.op = len(tracer.spans)
        argv = ["synth", "-k", str(self.w.k), "-o", str(self.pnml), "--dot", str(self.dot), str(self.input)]
        code, _, err, synth_s, synth_cpu_s = _call(synth_main, argv)
        pnml = self.pnml.read_bytes() if self.pnml.exists() else b""
        dot = self.dot.read_text(encoding="utf-8") if self.dot.exists() else ""
        problems = oracle.check_synth(self.w, code, pnml, dot)
        self._record("synth", problems + ([err.strip()] if problems else []))
        places = oracle.model_places(pnml)

        if tracer is not None:
            tracer.op = len(tracer.spans)
        argv = ["check", "--model", str(self.pnml), str(self.input)]
        code, out, err, check_s, _ = _call(check_main, argv)
        problems = oracle.check_check(self.w, code, out, places)
        self._record("check", problems + ([err.strip()] if problems else []))
        return {"synth_s": synth_s, "synth_cpu_s": synth_cpu_s, "check_s": check_s}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ttsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    began = time.perf_counter()
    generate = workloads.GENERATORS[workload_name]
    bench = Bench()
    setup_times = []
    for i in range(SETUPS):
        start = time.perf_counter()
        w = generate(seed)
        workdir = outdir / f"setup{i}"
        workdir.mkdir(parents=True)
        bench.prepare(w, workdir)
        cli = _import_ttsynth()
        bench.pair(cli)
        setup_times.append(time.perf_counter() - start)

    tracer = tracing.Tracer() if trace else None
    samples: dict = {"untraced": [], "traced": []}
    pair_s: list = []
    window = time.perf_counter()
    while True:
        traced = trace and len(pair_s) % 2 == 0
        start = time.perf_counter()
        if traced:
            tracer.install()
            try:
                samples["traced"].append(bench.pair(cli, tracer))
            finally:
                tracer.uninstall()
        else:
            samples["untraced"].append(bench.pair(cli))
        now = time.perf_counter()
        pair_s.append(now - start)
        if now - began > HARD_STOP_S:
            break
        if len(pair_s) >= MIN_PAIRS and now - window + statistics.median(pair_s) > seconds:
            break

    untraced = samples["untraced"]
    median = lambda rows, key: statistics.median(r[key] for r in rows)
    if trace:
        values = tracing.layer_metrics(tracer.spans)
        values["trace.untraced_synth_s"] = median(untraced, "synth_s")
        values["trace.overhead_ratio"] = values["trace.synth_s"] / values["trace.untraced_synth_s"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
        (outdir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "synth_s": {"value": median(untraced, "synth_s"), "unit": "s"},
            "synth_cpu_s": {"value": median(untraced, "synth_cpu_s"), "unit": "s"},
            "check_s": {"value": median(untraced, "check_s"), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "success_rate": {
                "value": (bench.attempted - bench.failed) / bench.attempted,
                "unit": "ratio",
            },
        }
    return {
        "workload": workload_name,
        "seed": seed,
        "params": w.params,
        "trace": trace,
        "pairs": {"untraced": len(untraced), "traced": len(samples["traced"])},
        "samples": samples,
        "setup_s_each": setup_times,
        "problems": bench.problems,
        "environment": environment(),
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ttsynth" / "cli.py").is_file():
        print(f"error: no ttsynth sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    (outdir / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for problem in report["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {report['workload']} seed {report['seed']} params {json.dumps(report['params'])}")
    print(f"pairs {json.dumps(report['pairs'])} (synth_s, synth_cpu_s and check_s are medians over them)")
    for name, metric in report["result"]["metrics"].items():
        print(f"{name:36} {metric['value']:12.6g} {metric['unit']}")
    print(f"environment {json.dumps(report['environment'])}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
