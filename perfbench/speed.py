"""The machine's current speed, from a fixed pure-Python job.

The 2-vCPU virtual machine this benchmark was written on changes speed by
up to 1.9x for minutes at a time (one process checked the same pushdown
corpus in 4.1 s a round, and in 7.5-8.0 s a round three minutes later, with
no other process of its own running and almost no steal time).  A 50 s run
cannot average that out, so every timed check is followed by one run of
``reference_seconds``, and check times are reported scaled to a machine on
which that job takes ``REFERENCE_S`` seconds (see ``scale``).

The job touches nothing of paramck, so a change to the program moves the
checks and not the job.  It was chosen by how well its time follows that of
the checks: over 61 rounds of the pushdown corpus (six minutes, one process)
round times varied with a coefficient of variation of 0.17, and 0.058 once
scaled by this job; over 33 rounds of the fsm corpus, 0.099 and 0.049.
Dict lookups, Fraction sums and a worklist closure alone followed the checks
less well: their times moved 1.3 to 2.3 times as much as the checks'.  The
collector is off while the job runs, so that its time does not depend on the
heap the checks left behind.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.005


def reference_seconds():
    """Seconds one run of the fixed job takes now: integer arithmetic in
    the interpreter loop, then building small tuples and frozensets."""
    gc.disable()
    try:
        start = time.perf_counter()
        x = 0
        for i in range(30_000):
            x = (x * 31 + i) & 0xFFFFF
        [(i, frozenset((i, i & 3)), ("a", i)) for i in range(4_000)]
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(references):
    """Factor that turns seconds measured while the job took
    ``references`` (seconds of runs of it) into seconds at reference
    speed."""
    return REFERENCE_S / statistics.median(references)
