"""Host-speed reference: a fixed pure-Python loop timed throughout each run.

On a shared machine the whole host can run 20-50% slower for minutes at a
time, which moves every timing of a run together (interpreter start-up,
imports and treegrow ops alike).  The benchmark times this loop between
ops, and scales its end-to-end timings by NOMINAL_S / mean(loop time), so
a run made while the host is slow reads like one made at nominal speed.
The loop does not touch treegrow, so no change to treegrow can move it.
"""

from fractions import Fraction
from time import perf_counter

# median loop time on the host the baseline was taken on (2 vCPU Intel Xeon, CPython 3.11.7)
NOMINAL_S = 0.012


def reference_loop() -> float:
    """Seconds for one fixed mix of exact-rational arithmetic and small-container churn.

    Runs the loop twice and times the second pass, so a caller whose caches
    another process just evicted measures the host, not the refill.
    """
    _loop()
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def _loop():
    x = Fraction(1)
    seen = {}
    for i in range(1, 1500):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        seen[(i, i % 7)] = frozenset((i, x.denominator % 97))


def speed(samples) -> float:
    """Host speed relative to nominal (below 1 when slow) from the loop times of one run.

    The mean, not the median: throughput integrates the slow stretches of a
    run, so the reference must weigh them too.
    """
    return NOMINAL_S / (sum(samples) / len(samples)) if samples else 1.0
