"""Property-based tests of the statistics layer (Hypothesis).

Randomized inputs certify the algebraic contracts the example-based
suites cannot sweep:

* :class:`repro.obs.histogram.LatencyHistogram` -- chunked recording +
  ``merge`` equals bulk recording (associativity/commutativity of the
  monoid), percentiles are monotone in ``q``, and every quantile
  estimate stays within the documented ``2**-sub_bucket_bits`` bounded
  relative error of the exact rank statistic;
* :class:`repro.metrics.summary.LatencySummary` -- order statistics
  are ordered (p50 <= p95 <= p99 <= max), summaries are permutation
  invariant (modulo the order-sensitive CI), and the histogram-backed
  constructor agrees with the exact one on the exact fields.

The suite skips cleanly when Hypothesis is absent (it ships in the dev
environment but is not a runtime dependency).
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.metrics.summary import LatencySummary  # noqa: E402
from repro.obs.histogram import LatencyHistogram  # noqa: E402

#: Latencies are cycle counts: non-negative, finite, up to "huge run".
latencies = st.lists(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=200,
)

bits = st.integers(min_value=0, max_value=8)


def _hist(values, sub_bucket_bits: int = 5) -> LatencyHistogram:
    h = LatencyHistogram(sub_bucket_bits=sub_bucket_bits)
    h.record_many(values)
    return h


def _state(h: LatencyHistogram):
    """Observable state of a histogram for equality checks.

    ``total`` is a float accumulator, so different summation orders can
    differ in the last ulp -- it is compared with a tolerance instead of
    bit-for-bit (the integer fields and bucket counts must match exactly).
    """
    return (h.count, h.min_value, h.max_value, dict(h._counts))


def _exact_rank(ordered, q: float) -> float:
    """The exact order statistic under the histogram's rank convention
    (first value whose cumulative count reaches ``q% * n``)."""
    target = q / 100.0 * len(ordered)
    return ordered[max(0, math.ceil(target) - 1)]


# ------------------------------------------------------------- histogram


@given(latencies, st.integers(min_value=1, max_value=5), bits)
@settings(max_examples=60, deadline=None)
def test_chunked_merge_equals_bulk_record(values, chunks, b) -> None:
    """Splitting a stream into chunks and merging loses nothing."""
    bulk = _hist(values, b)
    merged = LatencyHistogram(sub_bucket_bits=b)
    size = max(1, -(-len(values) // chunks))  # ceil division
    for i in range(0, len(values), size):
        merged.merge(_hist(values[i : i + size], b))
    assert _state(merged) == _state(bulk)
    assert merged.total == pytest.approx(bulk.total, rel=1e-12, abs=1e-9)


@given(latencies, latencies, latencies)
@settings(max_examples=40, deadline=None)
def test_merge_is_associative_and_commutative(xs, ys, zs) -> None:
    """(x + y) + z == x + (y + z) == (z + y) + x, state for state."""
    left = _hist(xs)
    left.merge(_hist(ys))
    left.merge(_hist(zs))
    right = _hist(ys)
    right.merge(_hist(zs))
    pre = _hist(xs)
    pre.merge(right)
    flipped = _hist(zs)
    flipped.merge(_hist(ys))
    flipped.merge(_hist(xs))
    assert _state(left) == _state(pre) == _state(flipped)
    assert left.total == pytest.approx(pre.total, rel=1e-12, abs=1e-9)
    assert left.total == pytest.approx(flipped.total, rel=1e-12, abs=1e-9)


@given(latencies, st.lists(st.floats(min_value=0, max_value=100),
                           min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_percentiles_are_monotone_in_q(values, qs) -> None:
    """q1 <= q2 implies percentile(q1) <= percentile(q2)."""
    h = _hist(values)
    qs = sorted(qs)
    estimates = [h.percentile(q) for q in qs]
    assert estimates == sorted(estimates)
    assert h.min_value <= estimates[0]
    assert estimates[-1] <= h.max_value


@given(latencies, st.floats(min_value=0, max_value=100), bits)
@settings(max_examples=80, deadline=None)
def test_percentile_bounded_relative_error(values, q, b) -> None:
    """Any quantile is within one bucket width of the exact rank
    statistic: absolute error <= max(1, value * 2**-bits)."""
    h = _hist(values, b)
    exact = _exact_rank(sorted(values), q)
    estimate = h.percentile(q)
    bound = max(1.0, exact * 2.0 ** -b) + 1e-9
    assert abs(estimate - exact) <= bound, (
        f"p{q}: estimate {estimate} vs exact {exact} "
        f"(bound {bound}, bits {b})"
    )


@given(latencies)
@settings(max_examples=60, deadline=None)
def test_mean_and_extrema_are_exact(values) -> None:
    """The histogram keeps sum/min/max exactly, not bucketed."""
    h = _hist(values)
    assert h.count == len(values)
    assert h.min_value == min(values)
    assert h.max_value == max(values)
    assert h.mean == pytest.approx(math.fsum(values) / len(values),
                                   rel=1e-9, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                 allow_infinity=False), bits)
@settings(max_examples=80, deadline=None)
def test_bucket_index_bounds_its_value(value, b) -> None:
    """_lower_bound/_bucket_width invert _index: every value lands in
    the half-open bucket that claims it."""
    h = LatencyHistogram(sub_bucket_bits=b)
    i = h._index(value)
    lo = h._lower_bound(i)
    width = h._bucket_width(i)
    assert lo <= value < lo + width + 1.0  # +1 absorbs the int() floor


# --------------------------------------------------------------- summary


@given(latencies)
@example([0.0] * 6 + [1e7, 9999999.999999998])  # interpolated p95 > p99
@settings(max_examples=60, deadline=None)
def test_summary_order_statistics_are_ordered(values) -> None:
    s = LatencySummary.from_values(values)
    assert s.count == len(values)
    # The mean is a float sum: allow one ulp of slack at the endpoints.
    slack = 1e-9 * max(1.0, s.max)
    assert min(values) - slack <= s.mean <= s.max + slack
    assert s.p50 <= s.p95 <= s.p99 <= s.max
    assert s.max == max(values)


@given(latencies, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_summary_is_permutation_invariant(values, rnd) -> None:
    """Shuffling the samples changes nothing but the (order-sensitive,
    batch-means) confidence interval."""
    shuffled = list(values)
    rnd.shuffle(shuffled)
    a = LatencySummary.from_values(values)
    b = LatencySummary.from_values(shuffled)
    assert (a.count, a.mean, a.p50, a.p95, a.p99, a.max) == (
        b.count, b.mean, b.p50, b.p95, b.p99, b.max
    )


@given(latencies)
@settings(max_examples=40, deadline=None)
def test_summary_from_histogram_matches_exact_fields(values) -> None:
    """The histogram-backed summary agrees on every exact field and
    keeps percentile estimates inside the observed range."""
    exact = LatencySummary.from_values(values)
    approx = LatencySummary.from_histogram(_hist(values))
    assert approx.count == exact.count
    assert approx.max == exact.max
    assert approx.mean == pytest.approx(exact.mean, rel=1e-9, abs=1e-9)
    for q_est in (approx.p50, approx.p95, approx.p99):
        assert min(values) <= q_est <= max(values)


def test_summary_empty_is_all_nan() -> None:
    s = LatencySummary.from_values([])
    assert s == LatencySummary.empty()
    assert s.count == 0
    for field in ("mean", "p50", "p95", "p99", "max", "ci_half"):
        assert math.isnan(getattr(s, field)), field
