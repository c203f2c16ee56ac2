"""Per-layer metrics from the aggregates that traced processes write.

Each traced process (see ``hook/pbtrace.py``) leaves one JSON file in
the run's trace directory.  This module sums them by wrapped name and
derives the layer metrics listed in ``BENCHMARK.json``.  A layer the
workload does not reach reads 0.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, Iterable, List

from pbstats import percentile

#: reply classes of ops other than submit, or failed requests
_NOT_SUBMIT = ("error", "other")


def load(trace_dir: str) -> List[Dict]:
    """Every process's aggregates, in a stable order."""
    files = sorted(glob.glob(os.path.join(trace_dir, "*.json")))
    procs = []
    for path in files:
        with open(path) as handle:
            procs.append(json.load(handle))
    return procs


def is_shard(proc: Dict) -> bool:
    """A cluster shard (``python -m repro.service.daemon``)."""
    return bool(proc["argv"]) and proc["argv"][0].endswith(
        os.path.join("service", "daemon.py"))


class Totals:
    """Sums of the aggregates of a set of processes."""

    def __init__(self, procs: Iterable[Dict]):
        self.stats: Dict[str, Dict] = {}
        self.counts: Dict[str, int] = {}
        self.rerouted = 0
        for proc in procs:
            for key, agg in proc["stats"].items():
                mine = self.stats.setdefault(
                    key, {"n": 0, "s": 0.0, "cov": {}, "x": {}})
                mine["n"] += agg["n"]
                mine["s"] += agg["s"]
                for group, value in agg["cov"].items():
                    mine["cov"][group] = mine["cov"].get(group, 0.0) + value
                for name, value in agg["x"].items():
                    mine["x"][name] = mine["x"].get(name, 0) + value
            for name, value in proc["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value
            self.rerouted += sum(r["rerouted"] for r in proc["routers"])

    def _keys(self, name: str, classes=None, submits=False) -> List[str]:
        out = []
        for key in self.stats:
            base, _, cls = key.partition(":")
            if base != name:
                continue
            if classes is not None and cls not in classes:
                continue
            if submits and (cls in _NOT_SUBMIT or cls.startswith("op-")):
                continue
            out.append(key)
        return out

    def n(self, name: str, **select) -> int:
        return sum(self.stats[k]["n"] for k in self._keys(name, **select))

    def s(self, name: str, **select) -> float:
        return sum(self.stats[k]["s"] for k in self._keys(name, **select))

    def cov(self, name: str, group: str, **select) -> float:
        return sum(self.stats[k]["cov"].get(group, 0.0)
                   for k in self._keys(name, **select))

    def x(self, name: str, field: str, **select) -> float:
        return sum(self.stats[k]["x"].get(field, 0)
                   for k in self._keys(name, **select))

    def mean(self, name: str, scale: float, **select) -> float:
        count = self.n(name, **select)
        return self.s(name, **select) / count * scale if count else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(procs: List[Dict], inputs: Dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``inputs`` carries what the benchmark measured itself: client
    latencies, the warm-pass count, the fidelity score and the traced
    run's own end-to-end figures.
    """
    every = Totals(procs)
    warm = Totals(p for p in procs if p["label"] == "warm")
    client = Totals(p for p in procs if p["label"] == "bench")
    # the process that answers the clients: the router, else the daemon
    front = Totals(p for p in procs
                   if p["label"] == "server" and not is_shard(p))
    fingerprints = [p["stats"]["cache.fingerprint"]["s"] for p in procs
                    if "cache.fingerprint" in p["stats"]]

    events = every.counts.get("sim.events", 0)
    run_s = every.s("surrogate.run")
    gets = every.n("cache.get")
    requests = client.n("transport.request", submits=True)
    handle = "router.handle" if every.n("router.handle") \
        else "protocol.handle"
    out = {
        "sim.cells": every.n("sim.run"),
        "sim.cell_ms": every.mean("sim.run", 1e3),
        "sim.events": events,
        "sim.us_per_event": _ratio(every.s("sim.run"), events) * 1e6,
        "sim.transfers": every.counts.get("sim.transfers", 0),
        "surrogate.cells": every.n("surrogate.run"),
        "surrogate.run_ms": every.mean("surrogate.run", 1e3),
        "surrogate.build_ms": every.mean("surrogate.build", 1e3),
        "surrogate.msgs_per_s": _ratio(
            every.x("surrogate.run", "messages"), run_s),
        "cache.fingerprint_ms": _ratio(sum(fingerprints),
                                       len(fingerprints)) * 1e3,
        "cache.key_us": every.mean("cache.key", 1e6),
        "cache.gets": gets,
        "cache.get_us": every.mean("cache.get", 1e6),
        "cache.hit_ratio": _ratio(every.n("cache.get", classes=("hit",)),
                                  gets),
        "cache.puts": every.n("cache.put"),
        "cache.put_us": every.mean("cache.put", 1e6),
        "parallel.batches": every.n("parallel.submit_cells"),
        "parallel.dispatched": every.x("parallel.submit_cells", "cells"),
        "parallel.overhead_s": every.s("parallel.run_requests")
        - every.s("cell.execute", classes=("batch",)),
        "bench.self_s": every.s("bench.target")
        - every.cov("bench.target", "cell")
        - every.cov("bench.target", "cache"),
        "bench.warm_executions": _ratio(
            warm.n("sim.run") + warm.n("surrogate.run"),
            inputs.get("warm_passes", 0)),
        "wire.encode_mb_s": _ratio(every.x("wire.encode", "bytes"),
                                   every.s("wire.encode")) / 1e6,
        "wire.decode_mb_s": _ratio(every.x("wire.decode", "bytes"),
                                   every.s("wire.decode")) / 1e6,
        "wire.bytes_per_req": _ratio(
            client.x("wire.encode", "bytes")
            + client.x("wire.decode", "bytes"), requests),
        "transport.rtt_us": (client.mean("transport.request", 1e6,
                                         classes=("cache",))
                             - front.mean(handle, 1e6, classes=("cache",)))
        if requests else 0.0,
        "session.submit_us": every.mean("session.submit", 1e6,
                                        classes=("hit",)),
        "session.miss_ms": every.mean("session.resolve", 1e3,
                                      classes=("computed",)),
        "session.hits": every.n("session.submit", classes=("hit",)),
        "session.queued": every.n("session.submit", classes=("queued",)),
        "session.coalesced": every.n("session.resolve",
                                     classes=("coalesced",)),
        "protocol.handle_us": every.mean("protocol.handle", 1e6,
                                         classes=("cache",)),
        "router.handle_us": every.mean("router.handle", 1e6,
                                       classes=("cache",)),
        "router.self_us": _ratio(
            every.s("router.handle", classes=("cache",))
            - every.cov("router.handle", "forward", classes=("cache",)),
            every.n("router.handle", classes=("cache",))) * 1e6,
        "router.forwards": every.n("router.forward", submits=True),
        "router.reroutes": every.rerouted,
    }
    hit_ms = inputs.get("hit_ms") or []
    miss_ms = inputs.get("miss_ms") or []
    out.update({
        "client.req_per_s": inputs.get("req_per_s", 0.0),
        "client.hit_p50_ms": percentile(hit_ms, 50) if hit_ms else 0.0,
        "client.hit_p99_ms": percentile(hit_ms, 99) if hit_ms else 0.0,
        "client.miss_p50_ms": percentile(miss_ms, 50) if miss_ms else 0.0,
        "model.fidelity_rho": inputs.get("fidelity_rho", 0.0),
    })
    return out
