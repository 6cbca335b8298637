"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts: other
tenants slow the whole CPU down in phases that last from seconds to minutes,
by 30 to 70 %.  No repetition inside one run removes a phase that lasts
longer than the run.  So the worker times this fixed kernel between jobs and,
every quarter of a CPU second, inside them (off their clocks), and reports
each job in reference seconds:

    reference seconds = job seconds * REFERENCE_S / mean kernel seconds

where the mean is over the kernel runs during the job and within a second
of it: that is the time the job would take on a machine where the kernel
takes REFERENCE_S.  The kernel does the kinds of work covsig does (fraction-free
Bareiss elimination on Python ints, Fraction row reduction, and Horner
evaluation of a big-integer polynomial at dyadic Fractions), in code of its
own: it never calls covsig, so no change to the program moves it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Kernel time on the machine the bounds were set on (two cores of an Intel
# Xeon VM at 2.1 GHz, Python 3.11.7), in its faster phases.
REFERENCE_S = 0.016
ROUNDS = 3  # kernel rounds per measurement, about 20-30 ms in all
INT_N = 24
FRACTION_N = 10
# a degree-40 integer polynomial with 27-digit coefficients, evaluated at
# dyadic points as root isolation by bisection does
HORNER_POLY = [((i * 7919) % 1000003 - 500000) * 10**20 + i for i in range(41)]
HORNER_BITS = 192


def _bareiss_det(k: int) -> int:
    n = INT_N
    m = [[(i * 37 + j * 101 + k) % 23 - 11 + 5 * (i == j) for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if m[i][c]), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, n):
            mic, mi, mc = m[i][c], m[i], m[c]
            for j in range(c + 1, n):
                mi[j] = (p * mi[j] - mic * mc[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def _fraction_rank(k: int) -> int:
    n = FRACTION_N
    a = [[Fraction((i * 7 + j * 13 + k) % 17 - 8, 1 + (i + 2 * j) % 5) for j in range(n)]
         for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, n):
            f = a[r][c] / a[rank][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _horner_signs(k: int) -> int:
    positive = 0
    for j in range(1, 6):
        x = Fraction(2 ** (HORNER_BITS - 2) + k * 12345 + j, 2 ** HORNER_BITS)
        acc = 0
        for c in reversed(HORNER_POLY):
            acc = acc * x + c
        positive += acc > 0
    return positive


def kernel() -> int:
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    return sum(_bareiss_det(k) % 1000003 + _fraction_rank(k) + _horner_signs(k)
               for k in range(ROUNDS))


CHECKSUM = kernel()


def measure() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    checksum = kernel()
    elapsed = perf_counter() - t0
    if checksum != CHECKSUM:
        raise RuntimeError("calibration kernel gave a different checksum")
    return elapsed
