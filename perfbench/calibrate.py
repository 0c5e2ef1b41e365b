"""Host-speed calibration, so timings from a drifting shared host compare.

On a shared 2-core virtual machine the speed of the whole host drifts by
20-30% over minutes: set-up time and CLI wall time of back-to-back runs
rise and fall together.  A median over invocations within one run cannot
remove a drift that lasts longer than the run, so every timed invocation
is bracketed by a fixed pure-Python job and its time is scaled to the
host speed at which that job takes ``REFERENCE_S``:

    normalized = raw * REFERENCE_S / calibration

The job does what tropcm's hot paths do (sparse polynomial products over
exact rationals, held in dicts keyed by exponent tuples) but imports
nothing from tropcm.  The benchmark's parent process runs it right before
it spawns an invocation and right after the invocation exits, never inside
the measured process, so neither the program's code nor the heap it leaves
behind can move it.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.045     # the job's median time on the reference host
REPEATS = 7             # job runs per measurement; their median is used


def _job():
    # (x0 + 2/3 x1 + ... ) ** k over Q in 5 variables, dict of exponent tuples
    n = 5
    base = {}
    for i in range(n):
        exps = tuple(1 if j == i else 0 for j in range(n))
        base[exps] = Fraction(i + 2, i + 3)
    acc = {(0,) * n: Fraction(1)}
    for _ in range(9):
        out = {}
        for ea, ca in acc.items():
            for eb, cb in base.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        acc = out
    return len(acc)


def measure():
    """Median seconds the calibration job takes now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalize(seconds, calibration_s):
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / calibration_s
