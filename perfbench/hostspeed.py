"""Host-speed probe, for timings that hold still on a shared host.

The benchmark runs on a few cores of a shared machine whose speed drifts by
tens of percent over minutes as other tenants load it; a fixed loop timed
between CLI invocations drifts as much as the invocations do.  So every
timed operation sits between two probes, a fixed pure-Python task of the
kind the program does (dict updates, tuple building, a sort, a set), and its
time is reported calibrated::

    raw seconds * REF_S / (mean of the probe before and the probe after)

that is, the time the operation would have taken on a host where the probe
takes ``REF_S``.  A change to the program moves the calibrated time as it
moves the raw one; a change in the host's speed moves the probe alike and
cancels.  A workload that runs on several cores at once is calibrated by
as many probes run at once, one per core, since it meets the contention of
all of them.  Raw times and probe times are kept in each run's record.
"""

from __future__ import annotations

import os
import time

REF_S = 0.12  # the probe time calibrated seconds refer to, near its time on a quiet 2-vCPU Xeon
PROBE_ITEMS = 100_000


def probe() -> float:
    """Seconds the fixed probe task takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    pairs = []
    for i in range(PROBE_ITEMS):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    distinct = {key for key, _ in pairs}
    if len(distinct) != len(table):
        raise AssertionError("host probe miscounted")
    return time.perf_counter() - start


def parallel_probe(procs: int) -> float:
    """Mean seconds of ``procs`` probes run at once in forked processes."""
    if procs == 1:
        return probe()
    children = []
    try:
        for _ in range(procs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                try:
                    os.write(write_fd, repr(probe()).encode())
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        times = []
        for _, read_fd in children:
            with os.fdopen(read_fd, closefd=False) as pipe:
                times.append(float(pipe.read()))
        return sum(times) / len(times)
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)


def calibrated(times: list[float], probes: list[float]) -> list[float]:
    """Each ``times[i]``, taken between ``probes[i]`` and ``probes[i + 1]``,
    scaled to a host where the probe takes ``REF_S``."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} probes, got {len(probes)}")
    return [t * REF_S / ((before + after) / 2) for t, before, after in zip(times, probes, probes[1:])]
