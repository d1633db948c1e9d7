"""The host-speed probe that puts the benchmark's times at reference speed.

The reference machine is a shared VM whose cores slow down by up to 2x
for seconds at a time while neighbours contend for them (steal time
stays near zero, so the slowdown is not visible as lost time). A fixed
pure-Python loop timed next to the work measures how slow the core is
right now; dividing the work's time by that slowdown, raised to the
work's sensitivity to it, removes most of the host's swing and none of
a change to the package.

The sensitivity is the exponent b in: time of the work ~ slowdown ** b.
Interpreter-bound work follows the loop closely (b near 1); work spent
in numpy's array loops follows it less. Each workload states its own b
(workloads.py), fitted on the reference machine; with b = 1 for all of
them, the numpy-heavy workload's throughput at reference speed rose by
about 45% from a run on a calm host to one on a busy host; with 0.6
for the threaded sweep, its throughput fell by 11% from a calm host to
a busy one.

The two cores of the reference machine slow down nearly independently
(their slowdowns correlate at about 0.3), so work that runs on both, as
the CLI's threaded sweep does, is set against the mean slowdown of all
the cores it may use.
"""

from __future__ import annotations

import math
import os
import statistics
import time

# The host-speed probe: the median of REF_REPEATS timings of ref_chunk,
# each REF_N loop steps; REF_S is one chunk's time on the reference
# machine when no neighbour contends (about its 5th percentile).
REF_N = 2500
REF_REPEATS = 7
REF_S = 1.1e-3


def ref_chunk() -> float:
    """Fixed interpreter work of the kind the package does: calls, float
    arithmetic and dict lookups."""
    acc: dict[int, float] = {}
    x = 0.0
    for i in range(REF_N):
        key = i & 63
        x = max(x * 0.5, math.sqrt(i + 1.0)) + acc.get(key, 0.0)
        acc[key] = x - int(x)
    return x


def slowdown(all_cores: bool = False) -> float:
    """How much slower than the uncontended reference machine the host
    runs right now: median ref_chunk time / REF_S, on the calling
    thread's core or, with `all_cores`, the mean over the cores this
    process may use, each probed with the thread pinned to it. The
    median keeps a chunk that was preempted outright from counting as a
    slow host."""
    if not all_cores:
        return _probe()
    cores = os.sched_getaffinity(0)
    try:
        slow = []
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            slow.append(_probe())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(slow)


def _probe() -> float:
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        ref_chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_S


def at_reference_speed(seconds: float, slow: float, sensitivity: float) -> float:
    return seconds / slow**sensitivity
