"""Post-saturation stability sweep: what happens *past* the knee.

The paper stops at the saturation knee (its §5 sustainability
criterion); this sweep deliberately drives each network **through** it
and reports what the fabric settles into, using the full overload
toolkit of :mod:`repro.stability`:

* each point runs with **bounded admission**
  (:class:`~repro.stability.BoundedQueue`), an **AIMD governor**
  (:class:`~repro.stability.AIMDGovernor`) closing the injection loop,
  a **progress watchdog** (:class:`~repro.stability.ProgressWatchdog`)
  recovering stalled worms through
  :class:`~repro.faults.recovery.SourceRetry`, so overload never means
  unbounded queue memory or a wedged run;
* the measurement window is cut into fixed-cycle **batches**; the
  per-batch delivered-throughput series is MSER-truncated and
  classified *stable / metastable / collapsed*
  (:mod:`repro.stability.steady`) against the knee throughput the
  saturation search measured;
* offered loads are expressed as **multiples of the knee load** found
  by :func:`~repro.experiments.saturation.find_saturation`, so "1.2x
  saturation" means the same thing on every network.

Run it::

    python -m repro.experiments --stability --mode smoke
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.report import ShapeCheck
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.saturation import SaturationPoint, find_saturation
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.recovery import RetryPolicy, SourceRetry
from repro.metrics.collector import Measurement
from repro.stability import (
    AIMDConfig,
    AIMDGovernor,
    BoundedQueue,
    ProgressWatchdog,
    SteadyState,
    analyze_series,
    classify,
)

#: Knee multiples the stability figure sweeps: below, at, and past
#: saturation (the acceptance floor is 1.2x; 1.5x probes deeper).
LOAD_FACTORS = (0.8, 1.0, 1.2, 1.5)

#: Per-window batch count for the steady-state series.  32 batches keep
#: MSER meaningful (>= 4 samples even after half-series truncation)
#: without shrinking batches below the transient time scale.
DEFAULT_BATCHES = 32


@dataclass(frozen=True)
class StabilityPoint:
    """One (network, knee-multiple) sample of the overload sweep."""

    load_factor: float        # offered load as a multiple of the knee load
    offered_load: float       # absolute offered load (flits/node-cycle)
    measurement: Measurement  # window metrics incl. shed/throttle/stall
    steady: SteadyState       # MSER-truncated throughput series summary
    stability: str            # "stable" | "metastable" | "collapsed"
    mean_rate: float          # governor's fleet-average rate multiplier
    stall_events: int         # watchdog interventions during the window
    sheds: int                # admission drops during the window
    throttles: int            # admission refusals during the window


@dataclass(frozen=True)
class StabilityResult:
    """One network's overload profile: the knee plus the points past it."""

    label: str
    knee: SaturationPoint
    points: tuple[StabilityPoint, ...]

    def stability_at(self, load_factor: float) -> str:
        for p in self.points:
            if p.load_factor == load_factor:
                return p.stability
        raise KeyError(f"no point at load factor {load_factor}")


def stability_point(
    network: NetworkConfig,
    run_cfg: RunConfig,
    offered_load: float,
    knee_throughput: Optional[float],
    load_factor: float = float("nan"),
    admission: Optional[BoundedQueue] = None,
    aimd: Optional[AIMDConfig] = None,
    governed: bool = True,
    watchdog: bool = True,
    batches: int = DEFAULT_BATCHES,
    engine: Optional[str] = None,
) -> StabilityPoint:
    """Measure one overloaded point with the full stability toolkit.

    ``knee_throughput`` is the saturation-knee throughput in flits per
    node-cycle (None skips the collapse classification).  The run is
    bounded in *memory* by the admission capacity and in *time* by
    ``run_cfg.max_cycles`` of measurement after at most a quarter of
    that again in warmup -- overload can no longer stretch either.
    """
    if batches < 8:
        raise ValueError("need >= 8 batches for a classifiable series")
    _, sim_engine, root = build_point(network, offered_load, run_cfg, engine)

    # Overload toolkit: bounded queues, AIMD loop, watchdog + retry.
    (admission if admission is not None else BoundedQueue()).install(
        sim_engine
    )
    governor = (
        AIMDGovernor(sim_engine, aimd) if governed else None
    )
    if watchdog:
        SourceRetry(
            sim_engine,
            RetryPolicy(max_attempts=4, base_delay=64.0, max_delay=1024.0),
            root.fork(f"retry/{network.label}/{offered_load}"),
        )
        sim_engine.watchdog = ProgressWatchdog(
            sim_engine,
            check_every=64,
            stall_age=2048,
            deadlock_after=512,
            recover=True,
        )

    spec = WorkloadSpec(k=network.k, n=network.n)
    workload = spec.builder(run_cfg)(offered_load)
    workload.governor = governor
    install_workload(
        sim_engine,
        workload,
        root.fork(f"workload/{network.label}/{offered_load}"),
    )
    # Past the knee the warm-up's cycle bound is the binding one, which
    # is exactly the point (bounded time).
    warm_up(sim_engine, run_cfg)
    measurement, series = measure(sim_engine, run_cfg, batches)

    steady = analyze_series(series)
    label = classify(steady, knee_throughput)
    return StabilityPoint(
        load_factor=load_factor,
        offered_load=offered_load,
        measurement=measurement,
        steady=steady,
        stability=label,
        mean_rate=governor.mean_rate() if governor is not None else 1.0,
        stall_events=measurement.stall_aborted_packets,
        sheds=measurement.shed_packets,
        throttles=measurement.throttled_packets,
    )


def stability_sweep(
    network: NetworkConfig,
    run_cfg: RunConfig,
    load_factors: Sequence[float] = LOAD_FACTORS,
    admission: Optional[BoundedQueue] = None,
    aimd: Optional[AIMDConfig] = None,
    governed: bool = True,
    watchdog: bool = True,
    batches: int = DEFAULT_BATCHES,
    engine: Optional[str] = None,
) -> StabilityResult:
    """One network's overload profile over the knee-multiple ladder.

    The knee is located first (:func:`find_saturation`); each ladder
    entry then offers ``factor * knee.load``.  A knee search that ended
    ``lo_saturated`` / ``hi_sustainable`` still yields usable absolute
    loads (the boundary probe's load), just with the caveat the status
    records.
    """
    spec = WorkloadSpec(k=network.k, n=network.n)
    knee = find_saturation(network, spec.builder(run_cfg), run_cfg)
    knee_thr = knee.throughput_percent / 100.0
    points = tuple(
        stability_point(
            network,
            run_cfg,
            offered_load=factor * knee.load,
            knee_throughput=knee_thr,
            load_factor=factor,
            admission=admission,
            aimd=aimd,
            governed=governed,
            watchdog=watchdog,
            batches=batches,
            engine=engine,
        )
        for factor in load_factors
    )
    return StabilityResult(network.label, knee, points)


def stability_comparison(
    run_cfg: RunConfig,
    load_factors: Sequence[float] = LOAD_FACTORS,
    kinds: Sequence[str] = ("tmin", "dmin", "vmin", "bmin"),
    batches: int = DEFAULT_BATCHES,
) -> list[StabilityResult]:
    """The four networks' overload profiles, side by side."""
    return [
        stability_sweep(
            NetworkConfig(kind), run_cfg, load_factors, batches=batches
        )
        for kind in kinds
    ]


def render_stability(results: Sequence[StabilityResult]) -> str:
    """Aligned text tables, one block per network."""
    lines = ["=== stability: steady state past the saturation knee ==="]
    for r in results:
        lines.append("")
        lines.append(f"## {r.label} -- {r.knee}")
        lines.append(
            f"{'xknee':>6} | {'load':>6} | {'thr %':>7} | {'class':>10} "
            f"| {'cv':>6} | {'drift':>6} | {'rate':>5} | {'shed':>5} "
            f"| {'thrtl':>5} | {'stall':>5} | {'maxq':>5}"
        )
        lines.append("-" * 92)
        for p in r.points:
            m = p.measurement
            cv = "-" if math.isnan(p.steady.cv) else f"{p.steady.cv:6.3f}"
            drift = (
                "-" if math.isnan(p.steady.drift)
                else f"{p.steady.drift:+6.2f}"
            )
            lines.append(
                f"{p.load_factor:6.2f} | {p.offered_load:6.3f} | "
                f"{m.throughput_percent:7.2f} | {p.stability:>10} | "
                f"{cv:>6} | {drift:>6} | {p.mean_rate:5.2f} | "
                f"{p.sheds:5d} | {p.throttles:5d} | {p.stall_events:5d} | "
                f"{m.max_queue_len:5d}"
            )
    return "\n".join(lines)


def stability_checks(
    results: Sequence[StabilityResult],
    capacity: int = 128,
) -> list[ShapeCheck]:
    """Qualitative claims the overload toolkit must deliver."""
    checks: list[ShapeCheck] = []

    def check(claim: str, passed: bool, detail: str) -> None:
        checks.append(ShapeCheck(claim, passed, detail))

    for r in results:
        name = r.label
        # Bounded memory: admission keeps every source queue at or
        # under capacity even at the deepest overload point.
        worst_q = max(p.measurement.max_queue_len for p in r.points)
        check(
            f"{name}: queue memory bounded by admission",
            worst_q <= capacity,
            f"max queue {worst_q} vs capacity {capacity}",
        )
        # Every point classified -- the run settled into *something*
        # measurable rather than wedging or diverging.
        unclassified = [
            p.load_factor
            for p in r.points
            if p.stability not in ("stable", "metastable", "collapsed")
        ]
        check(
            f"{name}: every overload point classified",
            not unclassified,
            f"unclassified factors: {unclassified or 'none'}",
        )
        # Overload must not collapse delivered throughput: with bounded
        # admission + AIMD the fabric holds (or oscillates around) its
        # knee throughput instead of tree-saturating to a trickle.
        overload = [p for p in r.points if p.load_factor > 1.0]
        collapsed = [p.load_factor for p in overload if p.stability == "collapsed"]
        check(
            f"{name}: no post-knee throughput collapse",
            not collapsed,
            f"collapsed factors: {collapsed or 'none'}",
        )
    return checks
