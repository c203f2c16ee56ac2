"""Turns on benchmark tracing in a program process (see ``pbtrace``).

The benchmark puts this directory on ``PYTHONPATH`` only for traced
runs, with ``PERFBENCH_TRACE_DIR`` naming where each process writes
its aggregates at exit.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import pbtrace

    pbtrace.install(os.environ["PERFBENCH_TRACE_DIR"],
                    os.environ.get("PERFBENCH_TRACE_LABEL", "proc"))
