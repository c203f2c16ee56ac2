"""Each correctness check passes on good output and fails on doctored output."""

import json
import math
import os

import pytest

import checks

CELL = {"system": "longs", "workload": "stream", "ntasks": 4,
        "scheme": "default", "tier": "fast"}


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


@pytest.fixture(scope="module")
def served():
    from repro.service.protocol import cell_from_wire

    result = cell_from_wire(CELL).to_job().execute().to_dict()
    return json.loads(json.dumps(result))


def test_served_result_matches_in_process_run(served):
    assert checks.served_matches([CELL], [served]) == []


def test_flipped_float_in_served_result_fails(served):
    doctored = json.loads(json.dumps(served))
    doctored["wall_time"] = math.nextafter(doctored["wall_time"], math.inf)
    assert checks.served_matches([CELL], [doctored])


def test_warm_pass_that_differs_fails(tmp_path):
    for name, text in (("cold", "1.000000\n"), ("warm", "1.000000\n")):
        os.makedirs(tmp_path / name)
        _write(tmp_path / name / "t.csv", text)
    assert checks.same_output(str(tmp_path / "cold"), str(tmp_path / "warm"),
                              ["t.csv"]) == []
    _write(tmp_path / "warm" / "t.csv", "1.000001\n")
    assert checks.same_output(str(tmp_path / "cold"), str(tmp_path / "warm"),
                              ["t.csv"])


LOCK_HEADER = "lock layer,lock cost (us),MPI RA (MUP/s)\n"


def test_lock_layer_order(tmp_path):
    _write(tmp_path / "abl_lock_cost.csv", LOCK_HEADER
           + "usysv,0.35,9.6\npthread,1.2,9.2\nsysv,11.0,4.8\n")
    assert checks.lock_order(str(tmp_path)) == []


def test_swapped_lock_layer_rows_fail(tmp_path):
    _write(tmp_path / "abl_lock_cost.csv", LOCK_HEADER
           + "usysv,0.35,4.8\npthread,1.2,9.2\nsysv,11.0,9.6\n")
    assert checks.lock_order(str(tmp_path))


def _table04_csv(path, reverse):
    from repro.bench import paper_data

    lines = ["Benchmark,System,2 cores,4 cores,8 cores,16 cores"]
    for (bench, system), values in sorted(paper_data.TABLE04.items()):
        cells = list(values)
        if reverse:
            present = [v for v in cells if v is not None][::-1]
            cells = [None if v is None else present.pop(0) for v in cells]
        lines.append(",".join([bench, system] + [
            "—" if v is None else f"{v:.6f}" for v in cells]))
    _write(path / "tab04.csv", "\n".join(lines) + "\n")


def test_fidelity_join_on_paper_values(tmp_path):
    from repro.bench import paper_data

    _table04_csv(tmp_path, reverse=False)
    scores, failures = checks.fidelity(str(tmp_path), ["tab04"], paper_data)
    assert failures == []
    assert scores["Table 4"] == (pytest.approx(1.0), pytest.approx(1.0))


def test_fidelity_floor_fails_on_reversed_rows(tmp_path):
    from repro.bench import paper_data

    _table04_csv(tmp_path, reverse=True)
    _scores, failures = checks.fidelity(str(tmp_path), ["tab04"], paper_data)
    assert any("Table 4: rank correlation" in f for f in failures)


TAB11_HEADER = "MPI tasks,System,Default,Interleave\n"


def test_tier_ranks(tmp_path):
    for tier, rows in (("exact", "2,Longs,3.7,3.6\n4,Longs,2.0,2.1\n"),
                       ("fast", "2,Longs,3.5,3.4\n4,Longs,1.9,2.0\n")):
        os.makedirs(tmp_path / tier)
        _write(tmp_path / tier / "tab11.csv", TAB11_HEADER + rows)
    rho, failures = checks.tier_ranks(str(tmp_path / "exact"),
                                      str(tmp_path / "fast"), ["tab11"])
    assert failures == [] and rho == pytest.approx(1.0)
    _write(tmp_path / "fast" / "tab11.csv",
           TAB11_HEADER + "2,Longs,1.9,2.0\n4,Longs,3.5,3.4\n")
    _rho, failures = checks.tier_ranks(str(tmp_path / "exact"),
                                       str(tmp_path / "fast"), ["tab11"])
    assert failures


def test_exact_and_fast_counts(tmp_path):
    from repro.core.cache import ResultCache
    from repro.core.execution import JobResult
    from repro.service.protocol import cell_from_wire

    job = cell_from_wire(CELL).to_job()
    result = job.execute()
    ResultCache(directory=str(tmp_path / "exact")).put("ab" * 32, result)
    ResultCache(directory=str(tmp_path / "fast")).put("cd" * 32, result)
    assert checks.same_counts(str(tmp_path / "exact"),
                              str(tmp_path / "fast")) == []
    data = result.to_dict()
    data["messages"] += 1
    ResultCache(directory=str(tmp_path / "fast")).put(
        "cd" * 32, JobResult.from_dict(data))
    assert checks.same_counts(str(tmp_path / "exact"),
                              str(tmp_path / "fast"))


def test_counts_swapped_between_task_counts_fail(tmp_path):
    from repro.core.cache import ResultCache
    from repro.core.execution import JobResult
    from repro.service.protocol import cell_from_wire

    def put(tier, key, ntasks, messages):
        data = cell_from_wire(dict(CELL, ntasks=ntasks)).to_job() \
            .execute().to_dict()
        data["messages"], data["bytes_sent"] = messages, 8 * messages
        data["workload"] = "stream"  # a name without the task count
        ResultCache(directory=str(tmp_path / tier)).put(
            key * 32, JobResult.from_dict(data))

    put("exact", "a2", 2, 10)
    put("exact", "a4", 4, 20)
    put("fast", "b2", 2, 20)
    put("fast", "b4", 4, 10)
    failures = checks.same_counts(str(tmp_path / "exact"),
                                  str(tmp_path / "fast"))
    assert len(failures) == 2
