"""Program processes: environment, launch, shutdown and clean-up.

Every program process is started as ``python -m repro.bench.cli ...``
with ``src/`` of the checkout on ``PYTHONPATH``, in its own session so
the whole process group (a cluster's shards included) can be stopped
together.  The environment drops every ``REPRO_*`` variable, points the
result cache into the run's own directory and replaces ``HOME``.
"""

from __future__ import annotations

import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(HERE, "hook")


def program_env(cache_dir: str, home: str, trace_dir: Optional[str] = None,
                label: str = "proc") -> Dict[str, str]:
    """The environment of one program process.

    ``home`` replaces ``HOME`` so nothing the program writes under ``~``
    (its default cache, for one) leaves the run directory.  With a
    ``trace_dir`` the hook directory joins ``PYTHONPATH``; its
    ``sitecustomize`` then traces the process (see ``hook/pbtrace.py``).
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_", "PYTHON"))}
    env["REPRO_BENCH_CACHE_DIR"] = cache_dir
    env["HOME"] = home
    env["PYTHONPATH"] = SRC
    if trace_dir is not None:
        env["PYTHONPATH"] = SRC + os.pathsep + HOOK
        env["PERFBENCH_TRACE_DIR"] = trace_dir
        env["PERFBENCH_TRACE_LABEL"] = label
    return env


def cli(*args: str) -> List[str]:
    """argv of one ``repro-bench`` invocation."""
    return [sys.executable, "-m", "repro.bench.cli", *args]


def _ephemeral_low() -> int:
    """Lowest port the kernel hands out to outgoing connections."""
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 32768


def free_ports(count: int, rng: random.Random) -> int:
    """First of ``count`` consecutive TCP ports on 127.0.0.1 that are free.

    The ports lie below the ephemeral range, so no outgoing connection
    (a client's, or one in TIME_WAIT) can take one between this check
    and the program's bind.
    """
    high = min(_ephemeral_low(), 60000) - count
    for _ in range(200):
        base = rng.randrange(10000, high)
        socks = []
        try:
            for offset in range(count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(sock)
                sock.bind(("127.0.0.1", base + offset))
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
        return base
    raise RuntimeError(f"no {count} consecutive free ports found")


class Processes:
    """Tracks every program process of a run and stops them all."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def start(self, argv: Sequence[str], cwd: str, env: Dict[str, str],
              log: str) -> subprocess.Popen:
        """Start a background process, its output appended to ``log``."""
        with open(log, "ab") as out:
            proc = subprocess.Popen(list(argv), cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
        self._procs.append(proc)
        return proc

    def run(self, argv: Sequence[str], cwd: str, env: Dict[str, str],
            stdout: str, stderr: str, timeout: float = 170.0
            ) -> Tuple[int, int]:
        """Run one command to completion; its exit code and peak RSS (KiB)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(list(argv), cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, start_new_session=True)
        self._procs.append(proc)
        try:
            peak_kb = _reap(proc, timeout)
            if peak_kb is None:
                raise subprocess.TimeoutExpired(list(argv), timeout)
            return proc.returncode, peak_kb
        finally:
            self.stop(proc, sig=signal.SIGKILL)

    def stop(self, proc: subprocess.Popen, sig: int = signal.SIGTERM,
             timeout: float = 30.0) -> int:
        """Signal ``proc`` unless it has exited, wait, clear its group.

        Returns the peak RSS (KiB) of ``proc`` and of the children it
        reaped itself, or 0 when it had been reaped before.
        """
        peak_kb = None
        if proc.returncode is None:
            # not proc.send_signal: it polls, and a poll that reaps the
            # process loses its resource usage
            try:
                os.kill(proc.pid, sig)
            except ProcessLookupError:
                pass
            peak_kb = _reap(proc, timeout)
        cleared_kb = _clear_group(proc)
        return peak_kb or cleared_kb

    def close(self) -> None:
        """Kill whatever is still running (the failure path)."""
        for proc in self._procs:
            _clear_group(proc)
        self._procs.clear()


def _reap(proc: subprocess.Popen, timeout: float) -> Optional[int]:
    """Wait up to ``timeout`` s for ``proc`` to exit, and reap it.

    Returns the peak RSS in KiB that ``os.wait4`` reports: the largest
    of ``proc`` and of every child that ``proc`` itself waited for (a
    cluster's shards).  ``None`` if ``proc`` is still running.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        return None
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def _clear_group(proc: subprocess.Popen) -> int:
    """SIGKILL the process group of ``proc`` and wait until it is empty.

    Returns the peak RSS (KiB) of ``proc`` if it is reaped here, else 0.
    """
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    peak_kb = 0
    if proc.returncode is None:
        peak_kb = _reap(proc, 10) or 0
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            break
        time.sleep(0.02)
    return peak_kb
