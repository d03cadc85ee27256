"""Host-speed references for timings taken on a shared host.

On a host shared with other tenants the whole CPU slows down and speeds up
by up to ~1.5x for tens of seconds at a time, which swamps the differences
between two commits. The benchmark therefore measures a fixed reference
next to its operations and scales each measured time by
nominal / (reference time): a time is reported as it would read on a host
where the reference takes exactly its nominal time. A reference is part of
the benchmark or of the environment, never of econamp, so no change to the
program can move it. Raw wall-clock times are kept in the result files.

Two references, each the one that tracked its workloads best on a noisy
2-core host (ratio to the workload steadiest across 3-second windows):

- `kernel_factor`: a pure-Python allocation kernel, for in-process workloads;
- `startup_factor`: one `python -c pass` process, for subprocess workloads.
"""

import statistics
import subprocess
import sys
import time

KERNEL_NOMINAL_NS = 1_000_000
STARTUP_NOMINAL_NS = 50_000_000


def _kernel():
    # Small-object allocation, the work that tracked both in-process
    # workloads best: one dict, tuple and str per row, as in CSV parsing.
    rows = [{"label": i, "cells": (i, str(i))} for i in range(3500)]
    return len(rows)


def kernel_factor() -> float:
    """KERNEL_NOMINAL_NS over the median of three kernel runs, measured now."""
    samples = []
    for _ in range(3):
        start = time.perf_counter_ns()
        _kernel()
        samples.append(time.perf_counter_ns() - start)
    return KERNEL_NOMINAL_NS / statistics.median(samples)


def startup_factor() -> float:
    """STARTUP_NOMINAL_NS over the wall time of one `python -c pass`, measured now."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return STARTUP_NOMINAL_NS / (time.perf_counter_ns() - start)
