"""The served workload: a cluster of serve daemons behind its router.

``cluster-mixed`` runs ``repro-bench cluster up --shards 2`` over a
shared store.  Set-up launches the cluster ``SETUP_LAUNCHES`` times
(each until the router answers ``ping``; the last one stays up).  The
cold pass then submits the hit pool once, split between the clients,
into the empty store.  The warm phase runs ``nproc`` closed-loop
clients, each on one persistent ``repro.service.transport.Connection``
to the router.  A client's pass is the whole pool in a seeded order with
one first-seen cell after every ``REPEATS_PER_MISS`` repeats.  Clients
start new passes until ``--seconds`` have passed (a traced run makes
exactly ``TRACE_PASSES`` so its counts repeat), so every run attempts
whole passes.  Every submit is one operation.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import checks
from procs import cli, free_ports

SHARDS = 2
POOL_SIZE = 150
SYSTEMS = ("tiger", "dmz", "longs")
NTASKS = (2, 4, 8, 16)
SCHEMES = ("default", "one-local", "one-membind", "two-local",
           "two-membind", "interleave")
#: repeats between two first-seen cells: ~10% of submits are misses
REPEATS_PER_MISS = 9
SETUP_LAUNCHES = 3
TRACE_PASSES = 4
#: first-seen cells per run re-run in this process to check the answer
MISS_SAMPLE = 24
HOST = "127.0.0.1"


def hit_pool() -> List[Dict]:
    """The fixed hit pool: feasible fast-tier cells, thinned evenly.

    Every system x registered workload x task count x Table 5 scheme
    that fits the machine and that the placement rules accept, in a
    fixed order, of which ``POOL_SIZE`` evenly spaced ones are kept.
    The pool does not depend on the seed, so its cold pass costs the
    same in every run.
    """
    from repro.core.affinity import resolve_scheme
    from repro.errors import InfeasibleSchemeError
    from repro.service.protocol import cell_from_wire
    from repro.service.registry import WORKLOADS as REGISTERED

    cells = []
    for system in SYSTEMS:
        for workload in sorted(REGISTERED):
            for ntasks in NTASKS:
                for scheme in SCHEMES:
                    cell = {"system": system, "workload": workload,
                            "ntasks": ntasks, "scheme": scheme,
                            "tier": "fast"}
                    job = cell_from_wire(cell).to_job()
                    if ntasks > job.spec.total_cores:
                        continue
                    try:
                        resolve_scheme(job.scheme, job.spec, ntasks)
                    except InfeasibleSchemeError:
                        continue
                    cells.append(cell)
    step = len(cells) / POOL_SIZE
    return [cells[int(i * step)] for i in range(POOL_SIZE)]


def miss_cell(rng: random.Random, tag: str) -> Dict:
    """A first-seen fast-tier synthetic cell drawn from ``rng``.

    Registered workloads ignore ``params``, so only a distinct synthetic
    spec (its name is part of the cell) makes a distinct cell.
    """
    ntasks = rng.choice((2, 4, 8))
    spec = {"name": f"pb-{tag}", "ntasks": ntasks, "steps": 80,
            "simulated_steps": 16,
            "ops": [{"kind": "compute", "flops": rng.uniform(2e8, 4e8),
                     "dram_bytes": rng.uniform(1e8, 2e8),
                     "working_set": 6e7, "reuse": 0.3, "phase": "compute"},
                    {"kind": "halo",
                     "nbytes": rng.choice((8192, 32768, 131072)),
                     "phase": "halo"},
                    {"kind": "allreduce", "nbytes": 8, "phase": "dots"}]}
    return {"system": "longs", "workload": "synthetic", "ntasks": ntasks,
            "scheme": "default", "tier": "fast", "params": {"spec": spec}}


def client_passes(pool: List[Dict], seed: str, count: int
                  ) -> Iterator[List[Tuple[Optional[int], Dict]]]:
    """A client's passes, made on demand from its own seeded stream.

    A pass is the pool in a fresh order as (pool index, cell) pairs,
    with a first-seen cell (index ``None``) after every
    ``REPEATS_PER_MISS`` repeats.
    """
    rng = random.Random(seed)
    for number in range(count):
        order = list(range(len(pool)))
        rng.shuffle(order)
        plan: List[Tuple[Optional[int], Dict]] = []
        for position, index in enumerate(order, 1):
            plan.append((index, pool[index]))
            if position % REPEATS_PER_MISS == 0:
                plan.append((None, miss_cell(
                    rng, f"{seed}-{number}-{position}")))
        yield plan


# -- the endpoint ----------------------------------------------------------

def _ping(address) -> bool:
    from repro.service.transport import request

    try:
        return request(address, {"op": "ping"}, timeout=2.0).get(
            "status") == "ok"
    except (OSError, ValueError):
        return False


def _launch(run, cache: str, label: str, index: int):
    """Start the cluster; returns (process, router address, seconds)."""
    base = free_ports(SHARDS + 1, run.rng)
    address = (HOST, base)
    argv = cli("cluster", "up", "--shards", str(SHARDS),
               "--router", f"{HOST}:{base}", "--base-port", str(base + 1),
               "--cache-dir", cache,
               "--state", os.path.join(run.subdir(f"state{index}"),
                                       "cluster.json"))
    cwd = run.subdir(f"{label}{index}")
    t0 = time.perf_counter()
    proc = run.procs.start(argv, cwd, run.env(cache, label),
                           os.path.join(cwd, "log.txt"))
    deadline = t0 + 60.0
    while not _ping(address):
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError(f"cluster {label}{index} did not come up; "
                               f"see {os.path.join(cwd, 'log.txt')}")
        time.sleep(0.005)
    return proc, address, time.perf_counter() - t0


def _shutdown(run, proc, address) -> int:
    """Graceful stop: the ``shutdown`` op drains, then the process exits.

    Returns the peak RSS (KiB) of the cluster's processes.
    """
    from repro.service.transport import request

    try:
        request(address, {"op": "shutdown"}, timeout=60.0)
    except (OSError, ValueError) as exc:
        run.info.append(f"shutdown request failed: {exc}")
    return run.procs.stop(proc, timeout=60.0)


# -- clients ----------------------------------------------------------------

class Client(threading.Thread):
    """One closed-loop client on one persistent connection."""

    def __init__(self, address, plans, start: threading.Barrier,
                 stop_after: Optional[float], reference: Dict[int, Dict],
                 sample_misses: float, rng: random.Random):
        super().__init__(daemon=True)
        from repro.service.transport import Connection

        self.conn = Connection(address, timeout=120.0)
        self.plans = plans
        self.start_barrier = start
        self.stop_after = stop_after
        self.reference = reference
        self.sample_misses = sample_misses
        self.rng = rng
        self.hit_ms: List[float] = []
        self.miss_ms: List[float] = []
        self.pass_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.results: Dict[int, Dict] = {}
        self.sampled: List[Tuple[Dict, Dict]] = []

    def run(self) -> None:
        try:
            self.start_barrier.wait()
            t_start = time.perf_counter()
            for plan in self.plans:
                t_pass = time.perf_counter()
                for index, cell in plan:
                    self._submit(index, cell)
                self.pass_s.append(time.perf_counter() - t_pass)
                if self.stop_after is not None and \
                        time.perf_counter() - t_start >= self.stop_after:
                    break
        except Exception as exc:  # reported as a failed check
            self.errors.append(f"client stopped: {exc!r}")
        finally:
            self.conn.close()

    def _submit(self, index: Optional[int], cell: Dict) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            reply = self.conn.request({"op": "submit", "cell": cell})
        except (OSError, ValueError):
            self.failed += 1  # the connection is gone: the client stops
            raise
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if reply.get("status") != "ok" or "result" not in reply:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{checks.cell_label(cell)}: "
                                   f"{reply.get('code')} "
                                   f"{reply.get('message') or reply.get('error')}")
            return
        result = reply["result"]
        if index is None:
            self.miss_ms.append(elapsed_ms)
            if self.rng.random() < self.sample_misses:
                self.sampled.append((cell, result))
            return
        self.hit_ms.append(elapsed_ms)
        # the cold pass (empty reference) records each pool cell's answer;
        # every later repeat must match it
        expected = self.reference.get(index)
        if expected is None:
            self.results[index] = result
        elif result != expected and \
                checks.canonical(result) != checks.canonical(expected):
            self.errors.append(f"{checks.cell_label(cell)} answered "
                               "differently than before")


def _drive(address, plans_by_client, stop_after, reference, sample,
           seed: int) -> Tuple[List[Client], float]:
    """Run one client per plan list; returns the clients and wall time."""
    barrier = threading.Barrier(len(plans_by_client) + 1)
    clients = [Client(address, plans, barrier, stop_after, reference, sample,
                      random.Random(f"{seed}-sample-{i}"))
               for i, plans in enumerate(plans_by_client)]
    for client in clients:
        client.start()
    barrier.wait()
    t0 = time.perf_counter()
    for client in clients:
        client.join(timeout=170.0)
    return clients, time.perf_counter() - t0


# -- the workload -----------------------------------------------------------

def run_workload(run, pool_size: Optional[int] = None) -> None:
    """Run the served workload; ``pool_size`` shrinks the pool (tests)."""
    pool = hit_pool()[:pool_size]
    nclients = max(1, os.cpu_count() or 1)
    cache = run.subdir("cache")

    setup_times = []
    proc = address = None
    for i in range(SETUP_LAUNCHES):
        last = i == SETUP_LAUNCHES - 1
        launch_cache = cache if last else run.subdir(f"setup-cache{i}")
        proc, address, seconds = _launch(run, launch_cache,
                                         "server" if last else "setup", i)
        setup_times.append(seconds)
        if not last:
            _shutdown(run, proc, address)

    try:
        # cold pass: the pool once, split between the clients
        split = [[[(i, pool[i]) for i in range(c, len(pool), nclients)]]
                 for c in range(nclients)]
        run.trace_active(True)
        fill, cold_s = _drive(address, split, None, {}, 0.0, run.seed)
        reference: Dict[int, Dict] = {}
        for client in fill:
            reference.update(client.results)

        passes = TRACE_PASSES if run.traced else 1_000_000
        plans = [client_passes(pool, f"{run.workload}-{run.seed}-{c}",
                               passes) for c in range(nclients)]
        # about twice MISS_SAMPLE misses in a window of ~40 passes
        sample = 2 * MISS_SAMPLE / (
            40 * nclients * max(1, len(pool) // REPEATS_PER_MISS))
        window, window_s = _drive(address, plans,
                                  None if run.traced else run.seconds,
                                  reference, sample, run.seed)
        run.trace_active(False)
    finally:
        run.peak_rss_kb = _shutdown(run, proc, address)

    clients = fill + window
    for client in clients:
        if client.is_alive():
            run.failures.append("a client did not finish")
        run.failures += client.errors
        run.attempted += client.attempted
        run.failed += client.failed
    if len(reference) != len(pool):
        run.failures.append(f"{len(pool) - len(reference)} pool cells "
                            "got no result")

    sampled = [pair for client in window
               for pair in client.sampled[:MISS_SAMPLE // nclients]]
    run.failures += checks.served_matches(
        [pool[i] for i in sorted(reference)],
        [reference[i] for i in sorted(reference)])
    run.failures += checks.served_matches([c for c, _ in sampled],
                                          [r for _, r in sampled])
    if not sampled:
        run.failures.append("no first-seen cell was sampled for checking")

    hit_ms = [ms for client in window for ms in client.hit_ms]
    miss_ms = [ms for client in window for ms in client.miss_ms]
    done = sum(client.attempted - client.failed for client in window)
    pass_s = [s for client in window for s in client.pass_s]
    run.metrics["setup_s"] = statistics.median(setup_times)
    run.metrics["cold_s"] = cold_s
    run.metrics["warm_s"] = statistics.median(pass_s)
    run.layer_inputs.update({"hit_ms": hit_ms, "miss_ms": miss_ms,
                             "req_per_s": done / window_s})
    run.info.append(
        f"{nclients} clients, {done} submits in {window_s:.2f} s "
        f"({done / window_s:.0f}/s), {len(pass_s)} passes; "
        f"hit p50 {_pct(hit_ms, 50):.3f} ms p99 {_pct(hit_ms, 99):.3f} ms "
        f"(n={len(hit_ms)}); miss p50 {_pct(miss_ms, 50):.3f} ms "
        f"(n={len(miss_ms)}), {len(sampled)} checked")


def _pct(values: List[float], q: float) -> float:
    from pbstats import percentile

    return percentile(values, q) if values else 0.0
