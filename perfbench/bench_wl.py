"""The ``repro-bench`` workloads: a cold pass, then warm passes.

``bench-fast`` runs ``repro-bench all --tier fast`` and ``bench-exact``
runs ``repro-bench tab11 abl_lock_cost --tier exact``, first into an
empty cache directory (cold) and then, each in a fresh process, over
the filled one (warm).  A round is one cold pass and the workload's
number of warm passes; rounds repeat until ``--seconds`` have passed, so a run always
attempts whole rounds.  Every target of every pass is one operation.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List

import checks
from procs import cli

#: workload -> (targets, tier, warm passes per round; their median is
#: warm_s).  An exact warm pass is short (~1 s), so it takes more of them.
WORKLOADS = {
    "bench-fast": (["all"], "fast", 3),
    "bench-exact": (["tab11", "abl_lock_cost"], "exact", 5),
}
#: launches of a target that simulates nothing; their median is setup_s
SETUP_LAUNCHES = 3


def target_names(targets: List[str]) -> List[str]:
    """The target names a ``repro-bench`` argument list expands to."""
    from repro.bench.cli import TARGETS

    return sorted(TARGETS) if "all" in targets else list(targets)


def _pass(run, name: str, argv: List[str], cache: str, label: str,
          timed: bool = True) -> Dict:
    """One ``repro-bench`` process; a timed pass counts toward peak RSS."""
    cwd = run.subdir(name)
    t0 = time.perf_counter()
    code, peak_kb = run.procs.run(argv, cwd, run.env(cache, label),
                                  os.path.join(cwd, "stdout.txt"),
                                  os.path.join(cwd, "stderr.txt"))
    seconds = time.perf_counter() - t0
    if timed:
        run.peak_rss_kb = max(run.peak_rss_kb, peak_kb)
    if code != 0:
        run.info.append(f"{name}: exit {code}; see "
                        f"{os.path.join(cwd, 'stderr.txt')}")
    return {"dir": cwd, "seconds": seconds, "code": code,
            "csv": os.path.join(cwd, "csv")}


def _produced(step: Dict, names: List[str]) -> set:
    """Targets whose CSV the pass wrote (none when the pass failed)."""
    if step["code"] != 0:
        return set()
    return {n for n in names
            if os.path.exists(os.path.join(step["csv"], f"{n}.csv"))}


def run_workload(run, targets=None, tier=None) -> None:
    """Run one bench workload; ``targets``/``tier`` override its table."""
    default_targets, default_tier, warm_passes = WORKLOADS[run.workload]
    targets = targets or default_targets
    tier = tier or default_tier
    names = target_names(targets)
    argv = cli(*targets, "--tier", tier, "--csv", "csv")

    setup_times = []
    for i in range(SETUP_LAUNCHES):
        step = _pass(run, f"setup{i}", cli("tab01", "--tier", tier),
                     run.subdir("setup-cache"), "setup", timed=False)
        if step["code"] != 0:
            raise RuntimeError(f"set-up launch exited {step['code']}")
        setup_times.append(step["seconds"])

    rounds: List[Dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < run.seconds:
        index = len(rounds)
        cache = run.subdir(f"cache{index}")
        cold = _pass(run, f"cold{index}", argv, cache, "cold")
        warm = [_pass(run, f"warm{index}.{i}", argv, cache, "warm")
                for i in range(warm_passes)]
        rounds.append({"cold": cold, "warm": warm, "cache": cache})

    from repro.bench import paper_data

    failed = 0
    rho = None
    for index, one in enumerate(rounds):
        cold = one["cold"]
        cold_ok = _produced(cold, names)
        failed += len(names) - len(cold_ok)
        for warm in one["warm"]:
            warm_ok = _produced(warm, names)
            failed += len(names) - len(warm_ok)
            both = sorted(cold_ok & warm_ok)
            run.failures += checks.same_output(
                cold["csv"], warm["csv"], [f"{n}.csv" for n in both])
            if len(both) == len(names):
                run.failures += checks.same_output(
                    cold["dir"], warm["dir"], ["stdout.txt"])
        if "abl_lock_cost" in cold_ok:
            run.failures += checks.lock_order(cold["csv"])
        scores, floor_failures = checks.fidelity(
            cold["csv"], sorted(cold_ok), paper_data)
        run.failures += floor_failures
        rho = checks.mean_rho(scores)
        if index == 0:
            for table, (table_rho, ratio) in sorted(scores.items()):
                shown = "-" if table_rho is None else f"{table_rho:.3f}"
                run.info.append(f"{table}: rank corr {shown}, "
                                f"median ratio {ratio:.3f}")
        if tier == "exact" and cold_ok == set(names):
            run.failures += _exact_vs_fast(run, index, targets, one)
    if rho is not None:
        run.info.append(f"mean rank correlation vs paper {rho:.4f}")
    run.layer_inputs["fidelity_rho"] = rho or 0.0
    run.layer_inputs["warm_passes"] = warm_passes * len(rounds)

    run.attempted += len(names) * (1 + warm_passes) * len(rounds)
    run.failed += failed
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.metrics["cold_s"] = statistics.median(
        one["cold"]["seconds"] for one in rounds)
    run.metrics["warm_s"] = statistics.median(
        warm["seconds"] for one in rounds for warm in one["warm"])


def _exact_vs_fast(run, index: int, targets: List[str], one: Dict
                   ) -> List[str]:
    """Exact cells against the fast tier's for the same targets.

    The fast pass runs after the timed passes, in its own cache
    directory, with tracing off so it adds nothing to the layer counts.
    """
    fast_cache = run.subdir(f"fast-cache{index}")
    cwd = run.subdir(f"fast{index}")
    code, _peak_kb = run.procs.run(
        cli(*targets, "--tier", "fast", "--csv", "csv"),
        cwd, run.env(fast_cache, "check", traced=False),
        os.path.join(cwd, "stdout.txt"), os.path.join(cwd, "stderr.txt"))
    if code != 0:
        return [f"fast-tier check pass exited {code}"]
    failures = checks.same_counts(one["cache"], fast_cache)
    rho, rank_failures = checks.tier_ranks(
        one["cold"]["csv"], os.path.join(cwd, "csv"), targets)
    if index == 0:
        run.info.append(f"exact vs fast wall-time rank corr {rho:.4f}")
    return failures + rank_failures
