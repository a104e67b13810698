"""Harrell-Davis quantile estimates.

A plain sample quantile is one order statistic.  Where the call mix leaves
a gap in the sorted latencies, a few calls more or less, or a little timing
noise, moves it from one side of the gap to the other.  The Harrell-Davis
estimate is a Beta-weighted mean of all order statistics, so it moves
smoothly instead (Harrell and Davis, Biometrika 69, 1982).
"""

from __future__ import annotations

import math


def betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by the continued
    fraction of Numerical Recipes (section 6.4) in Lentz's form."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return math.exp(log_front) * h / a


def hd_quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        cur = betainc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total
