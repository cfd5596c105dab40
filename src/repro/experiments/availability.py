"""Degradation experiments: throughput & latency vs. channel fault rate.

The paper motivates the DMIN and BMIN over the TMIN by fault tolerance
(Section 2: a unique-path network loses (src, dst) pairs on any single
channel fault).  This module quantifies that argument: sweep the
per-channel *unavailability* (the steady-state downtime fraction of an
MTBF/MTTR churn process, :class:`~repro.faults.mtbf.MTBFChurn`) and
measure, for each of the four networks under uniform traffic with
source-side retry (:class:`~repro.faults.recovery.SourceRetry`):

* sustained throughput and latency of the measurement window;
* failed / retried / dropped counts (via
  :class:`~repro.metrics.collector.Measurement`);
* the *eventual delivery ratio* -- the fraction of unique messages the
  retry layer eventually lands, the availability headline.

Expected shape (and what ``availability_checks`` asserts): the TMIN's
delivery ratio collapses with the fault rate (any fabric fault on a
worm's unique path is fatal until repaired, and every retry re-rolls
the same dice), while the DMIN's and BMIN's multi-path fabric keeps
the ratio near 1 at low fault rates.

Run it::

    python -m repro.experiments --availability --mode smoke
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.report import ShapeCheck
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.mtbf import MTBFChurn
from repro.faults.recovery import RetryPolicy, SourceRetry
from repro.metrics.collector import Measurement
from repro.traffic.workload import Workload

#: Per-channel unavailability ladder the availability figure sweeps.
FAULT_RATES = (0.0, 0.002, 0.005, 0.01, 0.02, 0.05)

#: Offered load the degradation sweep holds fixed: mid-range, below
#: every network's fault-free saturation point, so the degradation seen
#: is the faults' doing, not congestion's.
DEFAULT_LOAD = 0.3

#: Mean repair time in cycles; MTBF is derived per fault rate so that
#: mttr / (mtbf + mttr) equals the requested unavailability.
DEFAULT_MTTR = 1_500.0


@dataclass(frozen=True)
class AvailabilityPoint:
    """One (network, fault-rate) sample of the degradation sweep."""

    fault_rate: float             # per-channel steady-state unavailability
    measurement: Measurement      # window metrics incl. fail/retry/drop
    delivered_ratio: float        # unique messages eventually delivered
    failures_injected: int        # churn fail events over the whole run
    repairs: int                  # churn repair events over the whole run
    recovered: int                # messages delivered on attempt >= 2
    dropped: int                  # messages whose retry budget ran out


@dataclass(frozen=True)
class AvailabilityResult:
    """The degradation curve of one network."""

    label: str
    points: tuple[AvailabilityPoint, ...]

    def delivered_ratio_at(self, fault_rate: float) -> float:
        for p in self.points:
            if p.fault_rate == fault_rate:
                return p.delivered_ratio
        raise KeyError(f"no point at fault rate {fault_rate}")


def availability_point(
    network: NetworkConfig,
    run_cfg: RunConfig,
    fault_rate: float,
    load: float = DEFAULT_LOAD,
    mttr: float = DEFAULT_MTTR,
    policy: Optional[RetryPolicy] = None,
    severity: str = "hard",
) -> AvailabilityPoint:
    """Measure one network at one per-channel unavailability level."""
    workload = WorkloadSpec(k=network.k, n=network.n).builder(run_cfg)(load)
    policy = policy if policy is not None else RetryPolicy()
    return faulted_point(
        network, fault_rate, run_cfg, workload, fault_rate, mttr, policy, severity
    )


def faulted_point(
    network: NetworkConfig,
    key: object,
    run_cfg: RunConfig,
    workload: Workload,
    fault_rate: float,
    mttr: float,
    policy: RetryPolicy,
    severity: str,
    engine: Optional[str] = None,
) -> AvailabilityPoint:
    """Run ``workload`` under MTBF channel churn with source retry.

    The body of every faulted point: the availability sweep keys its
    RNG forks by fault rate, a sweep-service point
    (:func:`repro.serve.compute.run_point_spec`) by offered load.
    """
    if not 0.0 <= fault_rate < 1.0:
        raise ValueError("fault_rate is an unavailability fraction in [0, 1)")
    env, sim_engine, root = build_point(network, key, run_cfg, engine)
    label = network.label
    retry = SourceRetry(sim_engine, policy, root.fork(f"retry/{label}/{key}"))
    churn = None
    if fault_rate > 0.0:
        churn = MTBFChurn.from_unavailability(
            env, sim_engine.network, root.fork(f"faults/{label}/{key}"),
            fault_rate, mttr, engine=sim_engine, severity=severity,
        )
    install_workload(sim_engine, workload, root.fork(f"workload/{label}/{key}"))
    warm_up(sim_engine, run_cfg)
    measurement, _ = measure(sim_engine, run_cfg)
    return AvailabilityPoint(
        fault_rate=fault_rate,
        measurement=measurement,
        delivered_ratio=retry.delivered_ratio(),
        failures_injected=churn.failures if churn is not None else 0,
        repairs=churn.repairs if churn is not None else 0,
        recovered=retry.recovered,
        dropped=retry.dropped,
    )


def availability_sweep(
    network: NetworkConfig,
    run_cfg: RunConfig,
    fault_rates: Sequence[float] = FAULT_RATES,
    load: float = DEFAULT_LOAD,
    mttr: float = DEFAULT_MTTR,
    policy: Optional[RetryPolicy] = None,
) -> AvailabilityResult:
    """One network's degradation curve over the fault-rate ladder."""
    points = tuple(
        availability_point(
            network, run_cfg, rate, load=load, mttr=mttr, policy=policy
        )
        for rate in fault_rates
    )
    return AvailabilityResult(network.label, points)


def availability_comparison(
    run_cfg: RunConfig,
    fault_rates: Sequence[float] = FAULT_RATES,
    load: float = DEFAULT_LOAD,
    kinds: Sequence[str] = ("tmin", "dmin", "vmin", "bmin"),
) -> list[AvailabilityResult]:
    """The four networks' degradation curves (the paper's §2 argument)."""
    return [
        availability_sweep(
            NetworkConfig(kind), run_cfg, fault_rates, load=load
        )
        for kind in kinds
    ]


def render_availability(results: Sequence[AvailabilityResult]) -> str:
    """Aligned text tables, one block per network."""
    lines = ["=== availability: throughput & delivery vs. fault rate ==="]
    for r in results:
        lines.append("")
        lines.append(f"## {r.label}")
        lines.append(
            f"{'u':>6} | {'thr %':>7} | {'avg lat':>9} | {'deliv':>6} "
            f"| {'fail':>5} | {'retry':>5} | {'drop':>5} | {'churn':>5}"
        )
        lines.append("-" * 68)
        for p in r.points:
            m = p.measurement
            lines.append(
                f"{p.fault_rate:6.3f} | {m.throughput_percent:7.2f} | "
                f"{m.avg_latency:9.1f} | {p.delivered_ratio:6.3f} | "
                f"{m.failed_packets:5d} | {m.retried_packets:5d} | "
                f"{m.dropped_packets:5d} | {p.failures_injected:5d}"
            )
    return "\n".join(lines)


def availability_checks(
    results: Sequence[AvailabilityResult],
) -> list[ShapeCheck]:
    """Qualitative claims: multi-path fabrics degrade gracefully."""
    by_label = {r.label.split("(")[0]: r for r in results}
    checks: list[ShapeCheck] = []

    def check(claim: str, passed: bool, detail: str) -> None:
        checks.append(ShapeCheck(claim, passed, detail))

    probe = max(p.fault_rate for p in results[0].points)

    def at(label: str) -> AvailabilityPoint:
        for p in by_label[label].points:
            if p.fault_rate == probe:
                return p
        raise KeyError(probe)

    # Per-worm failure probability is the discriminator: on the TMIN a
    # fabric fault on the unique path is always fatal; DMIN needs both
    # lanes of a slot down.  (Delivery *ratios* converge to 1 whenever
    # faults are transient and retries patient, so compare with >=.)
    tmin, dmin, bmin = at("TMIN"), at("DMIN"), at("BMIN")
    check(
        f"fault tolerance at u={probe}: TMIN kills more worms than DMIN",
        tmin.measurement.failed_packets > dmin.measurement.failed_packets,
        f"TMIN fail={tmin.measurement.failed_packets} "
        f"vs DMIN fail={dmin.measurement.failed_packets}",
    )
    check(
        f"fault tolerance at u={probe}: DMIN delivery ratio >= TMIN's",
        dmin.delivered_ratio >= tmin.delivered_ratio,
        f"DMIN {dmin.delivered_ratio:.3f} vs TMIN {tmin.delivered_ratio:.3f}",
    )
    check(
        f"fault tolerance at u={probe}: BMIN delivery ratio >= TMIN's",
        bmin.delivered_ratio >= tmin.delivered_ratio,
        f"BMIN {bmin.delivered_ratio:.3f} vs TMIN {tmin.delivered_ratio:.3f}",
    )
    for label, r in by_label.items():
        clean = r.points[0]
        check(
            f"{label}: fault-free point is undegraded",
            clean.fault_rate == 0.0
            and clean.measurement.failed_packets == 0
            and clean.dropped == 0,
            f"fail={clean.measurement.failed_packets} drop={clean.dropped}",
        )
    return checks
