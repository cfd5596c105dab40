"""One summary dataclass + one column registry for the stats paths.

Before this module, latency statistics were computed in
``metrics/collector.py`` and then *named again* in three places --
``experiments/report.py`` (table headers), ``experiments/export.py``
(CSV field list + type conversions), and the JSON exporter.  Adding one
field meant editing four files in lockstep.

Now:

* :class:`LatencySummary` is the single place latency aggregates
  (mean/p50/p95/p99/max + CI half-width) are computed -- from raw
  values (exact, linear-interpolated percentiles) or from a merged
  :class:`repro.obs.histogram.LatencyHistogram` (bounded-error
  percentiles for production-scale / parallel runs);
* :data:`MEASUREMENT_COLUMNS` is the single registry of exported
  :class:`~repro.metrics.collector.Measurement` columns.  The CSV
  writer, the CSV reader's type conversions, the JSON exporter and the
  report table all iterate this list, so a new column is added in
  exactly one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.metrics.stats import _sorted_percentile, batch_means, mean

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import Measurement
    from repro.obs.histogram import LatencyHistogram

_NAN = float("nan")


@dataclass(frozen=True)
class LatencySummary:
    """Latency aggregates of one measurement window (cycles)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    ci_half: float  # 95% CI half-width (batch means); nan if < 20 samples

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(0, _NAN, _NAN, _NAN, _NAN, _NAN, _NAN)

    @classmethod
    def from_values(
        cls, values: Sequence[float], batches: int = 10
    ) -> "LatencySummary":
        """Exact summary of in-memory samples (sorted once)."""
        if not values:
            return cls.empty()
        ordered = sorted(values)
        if len(ordered) >= 2 * batches:
            _, ci = batch_means(values, batches=batches)
        else:
            ci = _NAN
        # percentile()'s interpolation is not monotone in q under
        # rounding; capping each by the next one up keeps them ordered.
        p99 = _sorted_percentile(ordered, 99)
        p95 = min(_sorted_percentile(ordered, 95), p99)
        return cls(
            count=len(ordered),
            mean=mean(ordered),
            p50=min(_sorted_percentile(ordered, 50), p95),
            p95=p95,
            p99=p99,
            max=ordered[-1],
            ci_half=ci,
        )

    @classmethod
    def from_histogram(
        cls, hist: "LatencyHistogram", ci_half: float = _NAN
    ) -> "LatencySummary":
        """Bounded-relative-error summary of an HDR histogram.

        The histogram keeps the exact sum and extrema, so ``mean`` and
        ``max`` are exact; percentiles carry the histogram's
        ``2**-sub_bucket_bits`` relative error.  Use for merged
        parallel-sweep points where raw samples were never centralized.
        """
        if hist.count == 0:
            return cls.empty()
        return cls(
            count=hist.count,
            mean=hist.mean,
            p50=hist.percentile(50),
            p95=hist.percentile(95),
            p99=hist.percentile(99),
            max=hist.max_value,
            ci_half=ci_half,
        )

    def to_dict(self) -> dict:
        def clean(v: float) -> "float | None":
            return None if isinstance(v, float) and math.isnan(v) else v

        return {
            "count": self.count,
            "mean": clean(self.mean),
            "p50": clean(self.p50),
            "p95": clean(self.p95),
            "p99": clean(self.p99),
            "max": clean(self.max),
            "ci_half": clean(self.ci_half),
        }


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class ColumnSpec:
    """One exported Measurement column, declared exactly once.

    ``attr`` is the :class:`~repro.metrics.collector.Measurement`
    attribute (or property) the value comes from; ``kind`` drives CSV
    round-trip conversion; the ``report_*`` fields place the column in
    the text table of :func:`repro.experiments.report.render_sweep`
    (``report_header=None`` keeps it CSV/JSON-only).
    """

    name: str                 # row key / CSV column name
    attr: str                 # Measurement attribute or property
    kind: str                 # "float" | "int" | "bool"
    report_header: str | None = None
    report_width: int = 9
    report_fmt: str = ".1f"   # format spec for the table cell
    fault_only: bool = False  # shown only when the series degraded
    transport_only: bool = False  # shown only when a transport ran

    def __post_init__(self) -> None:
        if self.kind not in ("float", "int", "bool"):
            raise ValueError(f"unknown column kind {self.kind!r}")

    def convert(self, raw: str) -> "float | int | bool":
        """Parse a CSV cell back to the Python value."""
        if self.kind == "float":
            return float(raw) if raw not in ("", "None") else _NAN
        if self.kind == "int":
            return int(raw or 0)
        return raw == "True"

    def cell(self, m: "Measurement") -> str:
        """Render the aligned text-table cell for one measurement."""
        value = getattr(m, self.attr)
        if self.kind == "bool":
            return f"{'yes' if value else 'NO':>{self.report_width}}"
        if isinstance(value, float) and math.isnan(value):
            return f"{'-':>{self.report_width}}"
        return f"{value:{self.report_width}{self.report_fmt}}"


#: Every exported Measurement column, in CSV order.  Extend HERE (only).
MEASUREMENT_COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("throughput_percent", "throughput_percent", "float",
               report_header="thr %", report_width=7, report_fmt=".2f"),
    ColumnSpec("avg_latency", "avg_latency", "float",
               report_header="avg lat", report_width=9, report_fmt=".1f"),
    ColumnSpec("avg_network_latency", "avg_network_latency", "float",
               report_header="net lat", report_width=9, report_fmt=".1f"),
    ColumnSpec("p50_latency", "p50_latency", "float",
               report_header="p50", report_width=8, report_fmt=".0f"),
    ColumnSpec("p95_latency", "p95_latency", "float",
               report_header="p95", report_width=8, report_fmt=".0f"),
    ColumnSpec("p99_latency", "p99_latency", "float",
               report_header="p99", report_width=8, report_fmt=".0f"),
    ColumnSpec("max_latency", "max_latency", "float"),
    ColumnSpec("latency_ci_half", "latency_ci_half", "float"),
    ColumnSpec("delivered_packets", "delivered_packets", "int",
               report_header="pkts", report_width=6, report_fmt="d"),
    ColumnSpec("delivered_flits", "delivered_flits", "int"),
    ColumnSpec("offered_packets", "offered_packets", "int"),
    ColumnSpec("max_queue_len", "max_queue_len", "int",
               report_header="maxq", report_width=5, report_fmt="d"),
    ColumnSpec("sustainable", "sustainable", "bool",
               report_header="sust", report_width=4),
    ColumnSpec("cycles", "cycles", "float"),
    ColumnSpec("failed_packets", "failed_packets", "int", fault_only=True,
               report_header="fail", report_width=5, report_fmt="d"),
    ColumnSpec("retried_packets", "retried_packets", "int", fault_only=True,
               report_header="retry", report_width=5, report_fmt="d"),
    ColumnSpec("dropped_packets", "dropped_packets", "int", fault_only=True,
               report_header="drop", report_width=5, report_fmt="d"),
    ColumnSpec("shed_packets", "shed_packets", "int", fault_only=True,
               report_header="shed", report_width=5, report_fmt="d"),
    ColumnSpec("throttled_packets", "throttled_packets", "int",
               fault_only=True,
               report_header="thrtl", report_width=5, report_fmt="d"),
    ColumnSpec("stall_aborted_packets", "stall_aborted_packets", "int",
               fault_only=True,
               report_header="stall", report_width=5, report_fmt="d"),
    ColumnSpec("goodput_percent", "goodput_percent", "float",
               transport_only=True,
               report_header="good %", report_width=7, report_fmt=".2f"),
    ColumnSpec("retransmitted_packets", "retransmitted_packets", "int",
               transport_only=True,
               report_header="retx", report_width=5, report_fmt="d"),
    ColumnSpec("rto_fires", "rto_fires", "int", transport_only=True,
               report_header="rto", report_width=5, report_fmt="d"),
    ColumnSpec("dup_acks", "dup_acks", "int", transport_only=True,
               report_header="dup", report_width=5, report_fmt="d"),
    ColumnSpec("flows_aborted", "flows_aborted", "int", transport_only=True,
               report_header="fabrt", report_width=5, report_fmt="d"),
    ColumnSpec("ack_packets", "ack_packets", "int"),
    ColumnSpec("goodput_flits", "goodput_flits", "int"),
)


def measurement_row(m: "Measurement") -> dict:
    """Measurement -> {column name: value} for every registry column."""
    return {c.name: getattr(m, c.attr) for c in MEASUREMENT_COLUMNS}


def report_columns(degraded: bool, transport: bool = False) -> list[ColumnSpec]:
    """Registry columns shown in the text table (in order)."""
    return [
        c
        for c in MEASUREMENT_COLUMNS
        if c.report_header is not None
        and (degraded or not c.fault_only)
        and (transport or not c.transport_only)
    ]
