"""Numeric helpers for simulation output analysis.

Plain functions over sequences of floats; no numpy dependency here so
the collector stays importable in minimal environments (numpy is used
by the analysis extras instead).
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1); 0.0 for a single value."""
    n = len(values)
    if n == 0:
        raise ValueError("stddev of empty sequence")
    if n == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of an already-sorted, non-empty sequence."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    value = ordered[lo] * (1 - frac) + ordered[hi] * frac
    # Float interpolation can overshoot the bracketing order statistics
    # by one ulp (e.g. frac ~ 1); clamp so p99 never exceeds the max.
    return min(max(value, ordered[lo]), ordered[hi])


#: t-distribution 97.5% quantiles for small degrees of freedom; beyond
#: the table the normal approximation (1.96) is close enough.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    15: 2.131, 20: 2.086, 30: 2.042,
}


def _t_quantile(dof: int) -> float:
    if dof in _T_975:
        return _T_975[dof]
    for known in sorted(_T_975, reverse=True):
        if dof >= known:
            return _T_975[known]
    return _T_975[1]  # pragma: no cover


def batch_means(
    values: Sequence[float], batches: int = 10
) -> tuple[float, float]:
    """Mean and 95% confidence half-width via the batch-means method.

    Consecutive observations are grouped into ``batches`` equal batches;
    the batch averages are treated as (approximately) independent.  The
    standard remedy for autocorrelated steady-state simulation output.
    """
    if batches < 2:
        raise ValueError("need at least two batches")
    if len(values) < batches:
        raise ValueError(
            f"need at least {batches} observations, got {len(values)}"
        )
    size = len(values) // batches
    batch_avgs = [
        mean(values[i * size : (i + 1) * size]) for i in range(batches)
    ]
    m = mean(batch_avgs)
    s = stddev(batch_avgs)
    half = _t_quantile(batches - 1) * s / math.sqrt(batches)
    return m, half
