#!/usr/bin/env python3
"""The repository's benchmark: the program run the way its users run it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bench-fast --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all               # every workload
    python3 perfbench/run.py --workload cluster-mixed --repeat 10  # steadiness

One run makes its inputs from ``--seed``, measures, checks every output
apart from the program, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` traces every
program process and reports the per-layer metrics instead.  Details,
reference figures and bounds are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pbstats  # noqa: E402
from procs import HOOK, ROOT, SRC, Processes, program_env  # noqa: E402

WORKLOADS = ("bench-fast", "bench-exact", "cluster-mixed")
RUNS_DIR = os.path.join(ROOT, ".perfbench")


def spec() -> Dict:
    """``BENCHMARK.json``: metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Run:
    """The state of one run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.trace_dir = os.path.join(run_dir, "trace") if traced else None
        self.home = self.subdir("home")
        #: picks free ports only; inputs come from the seed alone
        self.rng = random.Random()
        self.procs = Processes()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.info: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: largest peak RSS (KiB) of a timed pass or the served cluster
        self.peak_rss_kb = 0
        self.layer_inputs: Dict = {}
        self._pbtrace = None
        if traced:
            os.makedirs(self.trace_dir)
            sys.path.insert(0, HOOK)
            import pbtrace

            pbtrace.install(self.trace_dir, "bench")
            pbtrace.set_active(False)
            self._pbtrace = pbtrace

    def subdir(self, name: str) -> str:
        path = os.path.join(self.run_dir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def env(self, cache: str, label: str,
            traced: Optional[bool] = None) -> Dict[str, str]:
        """Environment of a program process; traced like the run by default."""
        traced = self.traced if traced is None else traced
        return program_env(cache, self.home,
                           self.trace_dir if traced else None, label)

    def trace_active(self, active: bool) -> None:
        """Record this process's own calls (the clients) or stop."""
        if self._pbtrace is not None:
            self._pbtrace.set_active(active)

    def finish_trace(self) -> None:
        if self._pbtrace is not None:
            self._pbtrace.finish()


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            **scale) -> Dict:
    """Run one workload in this process; returns the result object.

    ``scale`` is passed to the workload's ``run_workload``; the tests use
    it to make a workload smaller.  The run directory is removed unless
    a check or an operation failed.
    """
    names = spec()
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = os.path.join(RUNS_DIR, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(workload, seed, seconds, traced, run_dir)
    try:
        if workload.startswith("bench-"):
            import bench_wl

            bench_wl.run_workload(run, **scale)
        else:
            import serve_wl

            serve_wl.run_workload(run, **scale)
    finally:
        run.procs.close()
        run.finish_trace()
    run.metrics["peak_rss_mb"] = run.peak_rss_kb / 1024.0

    if traced:
        import layers

        values = layers.metrics(layers.load(run.trace_dir), run.layer_inputs)
        for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb"):
            values[f"traced.{name}"] = run.metrics[name]
        wanted = names["per_layer"]
    else:
        values = run.metrics
        wanted = names["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for line in run.info:
        print(f"[{workload}] {line}", file=sys.stderr)
    for line in run.failures:
        print(f"[{workload}] CHECK FAILED: {line}", file=sys.stderr)
    if run.failures or run.failed:
        print(f"[{workload}] run directory kept: {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                    "unit": m["unit"]} for m in wanted}}


def run_child(workload: str, seed: int, seconds: float, trace: int
              ) -> Dict:
    """One run in a fresh process, as the command line makes it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, seconds: float, trace: int,
           count: int) -> Dict:
    """``count`` runs on seeds ``seed..``; medians, quartiles, spreads.

    With ``--trace 1`` the untraced runs are made too, and each traced
    end-to-end figure is set against their median: the tracing overhead.
    """
    names = spec()
    bounds = {m["name"]: m.get("bound") for m in names["end_to_end"]}
    kinds = [0, 1] if trace else [0]
    runs: Dict[int, List[Dict]] = {k: [] for k in kinds}
    for i in range(count):
        for kind in kinds:
            runs[kind].append(run_child(workload, seed + i, seconds, kind))
    report: Dict = {"workload": workload, "runs": count, "metrics": {}}
    steady = True
    for kind in kinds:
        for name in runs[kind][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[kind]]
            stats = pbstats.summary(values)
            stats["values"] = values
            bound = bounds.get(name) if kind == 0 else None
            if bound is not None:
                stats["bound"] = bound
                stats["steady"] = stats["spread"] < bound / 3
                steady = steady and stats["steady"]
            report["metrics"][name] = stats
    if trace:
        for name in ("setup_s", "cold_s", "warm_s", "peak_rss_mb"):
            base = report["metrics"][name]["median"]
            traced = report["metrics"][f"traced.{name}"]["median"]
            report["metrics"][f"overhead.{name}"] = {
                "traced_minus_untraced": traced - base,
                "share": traced / base - 1}
    report["correct"] = all(r["correct"] for k in kinds for r in runs[k])
    report["failed_share"] = sorted({r["failed"] / r["attempted"]
                                     for r in runs[0]})
    report["steady"] = steady
    return report


def _print_repeat(report: Dict) -> None:
    for name, stats in report["metrics"].items():
        if "median" in stats:
            line = (f"{name:<24} median {stats['median']:.6g}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                    f"spread {stats['spread']:.4f}")
            if "bound" in stats:
                line += (f"  bound {stats['bound']}"
                         f"  {'ok' if stats['steady'] else 'UNSTEADY'}")
        else:
            line = (f"{name:<24} {stats['traced_minus_untraced']:+.6g} "
                    f"({stats['share']:+.1%})")
        print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="make N runs on seeds SEED.. and print each "
                             "metric's median and quartiles")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # byte-compile once, untimed, so no run pays for it
    compileall.compile_dir(SRC, quiet=1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        reports = []
        for workload in workloads:
            report = repeat(workload, args.seed, args.seconds, args.trace,
                            args.repeat)
            _print_repeat(report)
            reports.append(report)
        print(json.dumps(reports if len(reports) > 1 else reports[0]))
        return 0 if all(r["correct"] and r["steady"] for r in reports) \
            else 1
    if len(workloads) > 1:
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            result = run_child(workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"workload": workload, **result}))
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = value
        print(json.dumps(total))
        return 0
    try:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
