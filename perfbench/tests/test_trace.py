"""Traced runs repeat their counts; runs leave no process behind.

Each run is made in a fresh interpreter, as the command line makes it,
on a workload scaled down so the test stays short.
"""

import json
import os
import subprocess
import sys

import pytest

import procs

RUN = """
import json, sys
sys.path.insert(0, {bench!r})
sys.path.insert(0, {src!r})
import run
result = run.run_one({workload!r}, 7, 1.0, {traced!r}, **{scale!r})
print(json.dumps(result))
"""

#: counts that depend on timing, not on the inputs: the session batches
#: whatever arrived within its batch window
TIMING_COUNTS = {"parallel.batches"}


def _run(workload, traced, **scale):
    code = RUN.format(bench=procs.HERE,
                      src=procs.SRC, workload=workload, traced=traced,
                      scale=scale)
    out = subprocess.run([sys.executable, "-c", code], cwd=procs.ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" and name not in TIMING_COUNTS}


@pytest.mark.parametrize("workload, scale", [
    ("bench-exact", {"targets": ["abl_lock_cost"], "tier": "fast"}),
    ("cluster-mixed", {"pool_size": 12}),
])
def test_two_traced_runs_give_identical_counts(workload, scale):
    first = _run(workload, True, **scale)
    second = _run(workload, True, **scale)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())


def test_program_env_is_isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", "/elsewhere")
    monkeypatch.setenv("REPRO_BENCH_JOBS", "4")
    env = procs.program_env(str(tmp_path / "c"), str(tmp_path / "h"))
    assert env["REPRO_BENCH_CACHE_DIR"] == str(tmp_path / "c")
    assert env["HOME"] == str(tmp_path / "h")
    assert "REPRO_BENCH_JOBS" not in env
    assert env["PYTHONPATH"] == procs.SRC


def test_stopped_group_leaves_no_process(tmp_path):
    runner = procs.Processes()
    child = runner.start([sys.executable, "-c",
                          "import subprocess, sys, time; "
                          "subprocess.Popen([sys.executable, '-c', "
                          "'import time; time.sleep(60)']); time.sleep(60)"],
                         str(tmp_path), dict(os.environ),
                         str(tmp_path / "log"))
    runner.close()
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)


def test_peak_rss_includes_children_the_process_reaped(tmp_path):
    runner = procs.Processes()
    code, peak_kb = runner.run(
        [sys.executable, "-c",
         "import subprocess, sys; subprocess.run([sys.executable, '-c', "
         "'b = bytearray(64 << 20); b[::4096] = b\"x\" * len(b[::4096])'])"],
        str(tmp_path), dict(os.environ), str(tmp_path / "out"),
        str(tmp_path / "err"))
    assert code == 0
    assert peak_kb >= 64 << 10
