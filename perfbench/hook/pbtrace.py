"""Spans and counts around public functions of ``repro``, kept in memory.

Installed in every program process of a traced benchmark run by the
``sitecustomize`` module beside this file (the benchmark puts this
directory on ``PYTHONPATH`` only when tracing).  :func:`install`
replaces the listed public functions and methods with wrappers that
time each call and, once the process exits, write one JSON file of
aggregates into the trace directory.  No program file is changed.

Per wrapped name the aggregate holds the call count ``n``, the summed
wall time ``s``, extra counters ``x`` (bytes, messages, cells) and the
time ``cov`` covered by *descendant* wrapped calls, by group.  A group
is counted once per covering interval: a cache lookup nested inside
another cache call adds to ``cov["cache"]`` only through the outer
one, so ``s - cov[g]`` is the time a call spent outside group ``g``.
The two hottest engine methods are counted without timing.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import re
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_LOCK = threading.Lock()
_TLS = threading.local()
_STATS: Dict[str, Dict[str, Any]] = {}
_COUNTS: Dict[str, List[int]] = {}
_ROUTERS: List[Any] = []
#: ``run_requests`` calls in flight in any thread of this process
_IN_BATCH = [0]
_STATE = {"active": True, "dir": None, "label": "proc"}
#: the bench target builders behind ``repro-bench`` target names
_TARGET_NAME = re.compile(
    r"^(table\d\d|figure\d\d(_latency)?|ablation_\w+|ext_\w+|fidelity_table)$")


def set_active(active: bool) -> None:
    """Turn recording on or off in this process (wrappers stay in place)."""
    _STATE["active"] = active


def snapshot() -> Dict[str, Any]:
    """The aggregates recorded so far, in their file form."""
    with _LOCK:
        stats = {key: {"n": agg["n"], "s": agg["s"], "cov": dict(agg["cov"]),
                       "x": dict(agg["x"])} for key, agg in _STATS.items()}
    routers = []
    for router in _ROUTERS:
        snap = router.snapshot()
        routers.append({"routed": snap["routed"],
                        "rerouted": snap["rerouted"]})
    return {"pid": os.getpid(), "label": _STATE["label"],
            "argv": list(sys.argv), "stats": stats,
            "counts": {name: cell[0] for name, cell in _COUNTS.items()},
            "routers": routers}


def _record(key: str, dt: float, cov: Dict[str, float],
            extra: Optional[Dict[str, float]]) -> None:
    with _LOCK:
        agg = _STATS.get(key)
        if agg is None:
            agg = _STATS[key] = {"n": 0, "s": 0.0, "cov": {}, "x": {}}
        agg["n"] += 1
        agg["s"] += dt
        for group, value in cov.items():
            agg["cov"][group] = agg["cov"].get(group, 0.0) + value
        if extra:
            for name, value in extra.items():
                agg["x"][name] = agg["x"].get(name, 0) + value


def _frames() -> List[Dict[str, float]]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
        _TLS.depth = {}
    return stack


def timed(name: str, group: str, fn: Callable,
          classify: Optional[Callable[[Any, tuple, dict], str]] = None,
          extra: Optional[Callable[[Any, tuple, dict], Dict]] = None,
          outermost: bool = False,
          on_result: Optional[Callable[[Any], None]] = None) -> Callable:
    """Wrap ``fn`` so each call is timed and aggregated under ``name``.

    ``classify(result, args, kwargs)`` appends ``:<class>`` to the key;
    ``extra`` returns counters to add; ``outermost`` records only calls
    with no enclosing call of the same group; ``on_result`` sees every
    successful result (used to follow futures).
    """
    def wrapper(*args, **kwargs):
        if not _STATE["active"]:
            return fn(*args, **kwargs)
        stack = _frames()
        depth = _TLS.depth
        depth[group] = depth.get(group, 0) + 1
        frame: Dict[str, float] = {}
        stack.append(frame)
        t0 = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            depth[group] -= 1
            if depth[group] == 0:
                for outer in stack:
                    outer[group] = outer.get(group, 0.0) + dt
            if not (outermost and depth[group] > 0):
                key = name
                if ok and classify is not None:
                    key = f"{name}:{classify(result, args, kwargs)}"
                elif not ok:
                    key = f"{name}:error"
                _record(key, dt, frame,
                        extra(result, args, kwargs) if ok and extra else None)
                if ok and on_result is not None:
                    on_result(result)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def counted(name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` with a bare call counter (for per-event hot paths).

    The increment takes no lock: the counted engine methods run on one
    thread per process (the exact tier runs inline in the CLI).
    """
    cell = _COUNTS.setdefault(name, [0])

    def wrapper(*args, **kwargs):
        if _STATE["active"]:
            cell[0] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def batch_scope(fn: Callable) -> Callable:
    """Wrap ``run_requests`` so cells it waits for count as batch cells.

    Cells run on backend threads, outside the caller's span stack; this
    process-wide count is how their time is set against the batch's.
    """
    def wrapper(*args, **kwargs):
        with _LOCK:
            _IN_BATCH[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _LOCK:
                _IN_BATCH[0] -= 1

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", "run_requests")
    return wrapper


# -- classifiers -------------------------------------------------------------

def _in_batch(result, args, kwargs) -> str:
    return "batch" if _IN_BATCH[0] else "direct"


def _source(reply: Any) -> str:
    """``cache``/``computed``/... of a submit reply, ``op-<op>`` otherwise."""
    if isinstance(reply, dict):
        if reply.get("status") != "ok":
            return "error"
        if reply.get("source"):
            return str(reply["source"])
        return f"op-{reply.get('op', 'other')}"
    return "other"


def _handled(reply, args, kwargs) -> str:
    return _source(reply)


def _get_class(result, args, kwargs) -> str:
    return "miss" if result is None else "hit"


def _submit_class(future, args, kwargs) -> str:
    if future.done() and future.exception() is None \
            and future.result().source == "cache":
        return "hit"
    return "queued"


def _follow_submit(future) -> None:
    """Time a queued submit until its future resolves."""
    if future.done():
        return
    t0 = time.perf_counter()

    def done(fut) -> None:
        dt = time.perf_counter() - t0
        source = "error"
        if fut.exception() is None:
            source = fut.result().source
        _record(f"session.resolve:{source}", dt, {}, None)

    future.add_done_callback(done)


def _batch_len(result, args, kwargs) -> Dict[str, float]:
    batch = args[1] if len(args) > 1 else kwargs.get("batch", ())
    return {"cells": len(batch)}


def _messages(result, args, kwargs) -> Dict[str, float]:
    return {"messages": int(getattr(result, "messages", 0) or 0)}


def _out_bytes(result, args, kwargs) -> Dict[str, float]:
    return {"bytes": len(result)}


def _in_bytes(result, args, kwargs) -> Dict[str, float]:
    data = args[0] if args else kwargs.get("data", b"")
    return {"bytes": len(data)}


# -- installation -------------------------------------------------------------

def _patch(originals: Dict[int, Callable], owner: Any, attr: str,
           make: Callable[[Callable], Callable]) -> None:
    fn = getattr(owner, attr)
    wrapped = make(fn)
    originals[id(fn)] = wrapped
    setattr(owner, attr, wrapped)


def _rebind(originals: Dict[int, Callable]) -> None:
    """Point ``from x import f`` copies of patched functions at the wrappers."""
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and wrapped is not value:
                setattr(module, attr, wrapped)


def install(directory: str, label: str = "proc") -> None:
    """Wrap the traced functions and write aggregates at process exit."""
    if _STATE["dir"] is not None:
        return
    _STATE["dir"] = directory
    _STATE["label"] = label
    mod = importlib.import_module
    engine = mod("repro.sim.engine")
    resources = mod("repro.sim.resources")
    execution = mod("repro.core.execution")
    parallel = mod("repro.core.parallel")
    cache = mod("repro.core.cache")
    evaluator = mod("repro.surrogate.evaluator")
    local = mod("repro.backends.local")
    remote = mod("repro.backends.remote")
    codec = mod("repro.wire.codec")
    transport = mod("repro.service.transport")
    session = mod("repro.service.session")
    protocol = mod("repro.service.protocol")
    router = mod("repro.cluster.router")
    bench = [mod(f"repro.bench.{name}") for name in
             ("tables", "figures", "ablations", "extensions", "fidelity")]

    originals: Dict[int, Callable] = {}
    engine.Engine.step = counted("sim.events", engine.Engine.step)
    resources.BandwidthResource.transfer = counted(
        "sim.transfers", resources.BandwidthResource.transfer)

    def t(name, group, **kw):
        return lambda fn: timed(name, group, fn, **kw)

    _patch(originals, execution.JobRunner, "run", t("sim.run", "cell"))
    _patch(originals, parallel.JobRequest, "execute",
           t("cell.execute", "cell", classify=_in_batch))
    _patch(originals, evaluator.SurrogateEvaluator, "__init__",
           t("surrogate.build", "cell"))
    _patch(originals, evaluator.SurrogateEvaluator, "run",
           t("surrogate.run", "cell", extra=_messages))
    _patch(originals, cache, "model_fingerprint",
           t("cache.fingerprint", "cache"))
    _patch(originals, cache, "job_key", t("cache.key", "cache"))
    _patch(originals, cache.ResultCache, "get",
           t("cache.get", "cache", classify=_get_class))
    _patch(originals, cache.ResultCache, "put", t("cache.put", "cache"))
    _patch(originals, parallel, "run_requests",
           lambda fn: batch_scope(timed("parallel.run_requests",
                                        "parallel", fn)))
    for backend in (local.ProcessBackend, local.ThreadBackend,
                    remote.RemoteBackend):
        _patch(originals, backend, "submit_cells",
               t("parallel.submit_cells", "dispatch", extra=_batch_len))
    _patch(originals, remote.RemoteBackend, "forward",
           t("router.forward", "forward", classify=_handled))
    _patch(originals, codec, "encode",
           t("wire.encode", "wire", extra=_out_bytes))
    _patch(originals, codec, "decode",
           t("wire.decode", "wire", extra=_in_bytes))
    _patch(originals, transport.Connection, "request",
           t("transport.request", "transport", classify=_handled))
    _patch(originals, session.Session, "submit",
           t("session.submit", "session", classify=_submit_class,
             on_result=_follow_submit))
    _patch(originals, protocol, "handle_request",
           t("protocol.handle", "handle", classify=_handled))
    _patch(originals, router.Router, "handle_message",
           t("router.handle", "handle", classify=_handled))
    router_init = router.Router.__init__

    def remember_router(self, *args, **kwargs):
        router_init(self, *args, **kwargs)
        _ROUTERS.append(self)

    router.Router.__init__ = remember_router
    for module in bench:
        for attr, value in list(vars(module).items()):
            if _TARGET_NAME.match(attr) and callable(value) \
                    and getattr(value, "__module__", None) == module.__name__:
                _patch(originals, module, attr,
                       t("bench.target", "bench", outermost=True))
    _rebind(originals)
    atexit.register(dump)


def finish() -> Optional[str]:
    """Write the aggregates now instead of at exit (the benchmark's own)."""
    atexit.unregister(dump)
    _STATE["active"] = False
    return dump()


def dump() -> Optional[str]:
    """Write this process's aggregates into the trace directory."""
    directory = _STATE["dir"]
    if directory is None:
        return None
    path = os.path.join(directory, f"{_STATE['label']}-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(snapshot(), handle, sort_keys=True)
    os.replace(tmp, path)
    return path
