"""Loss-storm sweep: fabric governor vs. end-to-end transport.

PR 5's stability sweep asks what the *fabric* does past the knee; this
sweep asks what the *endpoints* get.  Every point runs under a seeded
loss storm -- bounded shed-newest admission plus MTBF channel churn at
a target unavailability -- at knee-multiple offered loads, in one of
three recovery modes:

* ``"governor"`` -- the fabric-level answer: AIMD injection governor
  plus exponential-backoff source retry (PR 1/5 wiring, no transport);
* ``"transport"`` -- the end-to-end answer:
  :class:`repro.transport.ReliableTransport` (acks, retransmit with
  backoff, AIMD windows), raw ungoverned sources;
* ``"both"`` -- governor and transport stacked, the congestion-control
  study ROADMAP item 5 promises.

Each point's per-batch delivered-throughput series is MSER-classified
(stable / metastable / collapsed) exactly like the stability sweep, and
the transport modes additionally report goodput (first-time end-to-end
payload) against raw delivered throughput, retransmission pressure and
flow aborts.

Run it::

    python -m repro.experiments --transport --mode smoke
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.report import ShapeCheck
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.saturation import SaturationPoint, find_saturation
from repro.experiments.stability import DEFAULT_BATCHES, LOAD_FACTORS
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.mtbf import MTBFChurn
from repro.faults.recovery import RetryPolicy, SourceRetry
from repro.metrics.collector import Measurement
from repro.stability import (
    AIMDGovernor,
    BoundedQueue,
    ProgressWatchdog,
    SteadyState,
    analyze_series,
    classify,
)
from repro.stability.admission import SHED_NEWEST
from repro.transport import ReliableTransport, TransportConfig

#: Recovery modes the sweep compares at every (network, knee-multiple).
MODES = ("governor", "transport", "both")

#: The acceptance drill's storm: 10% per-channel unavailability.
DEFAULT_FAULT_RATE = 0.1
DEFAULT_MTTR = 400.0

#: Admission bound during the storm (shed-newest: fresh offers drop).
DEFAULT_CAPACITY = 16


@dataclass(frozen=True)
class TransportPoint:
    """One (network, knee-multiple, mode) sample of the storm sweep."""

    mode: str                 # "governor" | "transport" | "both"
    load_factor: float        # offered load as a multiple of the knee load
    offered_load: float       # absolute offered load (flits/node-cycle)
    measurement: Measurement  # window metrics incl. transport counters
    steady: SteadyState       # MSER-truncated throughput series summary
    stability: str            # "stable" | "metastable" | "collapsed"
    mean_rate: float          # governor fleet-average rate (1.0 ungoverned)
    messages_sent: int        # transport sends over the whole run
    messages_delivered: int   # unique end-to-end deliveries
    messages_aborted: int     # messages in aborted flows
    delivered_ratio: float    # settled-delivered fraction (nan w/o transport)


@dataclass(frozen=True)
class TransportResult:
    """One network's storm profile: the knee plus every (factor, mode)."""

    label: str
    knee: SaturationPoint
    points: tuple[TransportPoint, ...]

    def point_at(self, load_factor: float, mode: str) -> TransportPoint:
        for p in self.points:
            if p.load_factor == load_factor and p.mode == mode:
                return p
        raise KeyError(f"no point at factor {load_factor} mode {mode!r}")


def transport_point(
    network: NetworkConfig,
    run_cfg: RunConfig,
    offered_load: float,
    knee_throughput: Optional[float],
    load_factor: float = float("nan"),
    mode: str = "both",
    capacity: int = DEFAULT_CAPACITY,
    fault_rate: float = DEFAULT_FAULT_RATE,
    mttr: float = DEFAULT_MTTR,
    transport_config: Optional[TransportConfig] = None,
    batches: int = DEFAULT_BATCHES,
    engine: Optional[str] = None,
) -> TransportPoint:
    """Measure one loss-storm point in one recovery mode.

    The storm is identical across modes at a given seed: bounded
    shed-newest admission at ``capacity`` plus hard MTBF churn at
    ``fault_rate`` unavailability -- fault and engine streams are
    forked under the same labels in every mode, so the comparison
    isolates the recovery machinery.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; valid: {', '.join(MODES)}")
    if not 0.0 <= fault_rate < 1.0:
        raise ValueError("fault_rate is an unavailability fraction in [0, 1)")
    if batches < 8:
        raise ValueError("need >= 8 batches for a classifiable series")
    env, sim_engine, root = build_point(network, offered_load, run_cfg, engine)
    label = network.label

    # The storm: bounded shed-newest admission + hard channel churn.
    BoundedQueue(capacity=capacity, mode=SHED_NEWEST).install(sim_engine)
    if fault_rate > 0.0:
        MTBFChurn.from_unavailability(
            env, sim_engine.network, root.fork(f"faults/{label}/{offered_load}"),
            fault_rate, mttr, engine=sim_engine, severity="hard",
        )
    # The watchdog runs in every mode: "no deadlock/livelock" is part
    # of the claim under test, not an assumption.
    sim_engine.watchdog = ProgressWatchdog(
        sim_engine,
        check_every=64,
        stall_age=2048,
        deadlock_after=512,
        recover=True,
    )

    governor = (
        AIMDGovernor(sim_engine) if mode in ("governor", "both") else None
    )
    transport = None
    if mode in ("transport", "both"):
        transport = ReliableTransport(
            sim_engine,
            transport_config
            if transport_config is not None
            else TransportConfig(),
            root.fork(f"transport/{label}/{offered_load}"),
        )
    else:
        # Governor-only recovery is plain source retry (never stacked
        # with the transport: both re-offering the same loss would
        # double-inject).
        SourceRetry(
            sim_engine,
            RetryPolicy(max_attempts=4, base_delay=64.0, max_delay=1024.0),
            root.fork(f"retry/{label}/{offered_load}"),
        )

    spec = WorkloadSpec(k=network.k, n=network.n)
    workload = spec.builder(run_cfg)(offered_load)
    workload.governor = governor
    workload.transport = transport
    install_workload(
        sim_engine, workload, root.fork(f"workload/{label}/{offered_load}")
    )
    warm_up(sim_engine, run_cfg)
    measurement, series = measure(sim_engine, run_cfg, batches)

    steady = analyze_series(series)
    classification = classify(steady, knee_throughput)
    return TransportPoint(
        mode=mode,
        load_factor=load_factor,
        offered_load=offered_load,
        measurement=measurement,
        steady=steady,
        stability=classification,
        mean_rate=governor.mean_rate() if governor is not None else 1.0,
        messages_sent=transport.messages_sent if transport else 0,
        messages_delivered=transport.messages_delivered if transport else 0,
        messages_aborted=transport.messages_aborted if transport else 0,
        delivered_ratio=(
            transport.delivered_ratio() if transport else float("nan")
        ),
    )


def transport_sweep(
    network: NetworkConfig,
    run_cfg: RunConfig,
    load_factors: Sequence[float] = LOAD_FACTORS,
    modes: Sequence[str] = MODES,
    capacity: int = DEFAULT_CAPACITY,
    fault_rate: float = DEFAULT_FAULT_RATE,
    mttr: float = DEFAULT_MTTR,
    transport_config: Optional[TransportConfig] = None,
    batches: int = DEFAULT_BATCHES,
    engine: Optional[str] = None,
) -> TransportResult:
    """One network's storm profile over the knee-multiple ladder."""
    spec = WorkloadSpec(k=network.k, n=network.n)
    knee = find_saturation(network, spec.builder(run_cfg), run_cfg)
    knee_thr = knee.throughput_percent / 100.0
    points = tuple(
        transport_point(
            network,
            run_cfg,
            offered_load=factor * knee.load,
            knee_throughput=knee_thr,
            load_factor=factor,
            mode=mode,
            capacity=capacity,
            fault_rate=fault_rate,
            mttr=mttr,
            transport_config=transport_config,
            batches=batches,
            engine=engine,
        )
        for factor in load_factors
        for mode in modes
    )
    return TransportResult(network.label, knee, points)


def transport_comparison(
    run_cfg: RunConfig,
    load_factors: Sequence[float] = LOAD_FACTORS,
    kinds: Sequence[str] = ("tmin", "dmin", "vmin", "bmin"),
    modes: Sequence[str] = MODES,
    batches: int = DEFAULT_BATCHES,
    engine: Optional[str] = None,
) -> list[TransportResult]:
    """The four networks' storm profiles, side by side."""
    return [
        transport_sweep(
            NetworkConfig(kind),
            run_cfg,
            load_factors,
            modes=modes,
            batches=batches,
            engine=engine,
        )
        for kind in kinds
    ]


def render_transport(results: Sequence[TransportResult]) -> str:
    """Aligned text tables, one block per network."""
    lines = [
        "=== transport: governor vs end-to-end recovery under loss ==="
    ]
    for r in results:
        lines.append("")
        lines.append(f"## {r.label} -- {r.knee}")
        lines.append(
            f"{'xknee':>6} | {'mode':>9} | {'thr %':>7} | {'good %':>7} "
            f"| {'class':>10} | {'rate':>5} | {'retx':>5} | {'rto':>5} "
            f"| {'dup':>5} | {'fabrt':>5} | {'shed':>5} | {'ratio':>6}"
        )
        lines.append("-" * 104)
        for p in r.points:
            m = p.measurement
            good = (
                "-" if math.isnan(m.goodput_percent)
                else f"{m.goodput_percent:7.2f}"
            )
            ratio = (
                "-" if math.isnan(p.delivered_ratio)
                else f"{p.delivered_ratio:6.3f}"
            )
            lines.append(
                f"{p.load_factor:6.2f} | {p.mode:>9} | "
                f"{m.throughput_percent:7.2f} | {good:>7} | "
                f"{p.stability:>10} | {p.mean_rate:5.2f} | "
                f"{m.retransmitted_packets:5d} | {m.rto_fires:5d} | "
                f"{m.dup_acks:5d} | {m.flows_aborted:5d} | "
                f"{m.shed_packets:5d} | {ratio:>6}"
            )
    return "\n".join(lines)


def transport_checks(
    results: Sequence[TransportResult],
    max_attempts: int = TransportConfig().max_attempts,
) -> list[ShapeCheck]:
    """Qualitative claims the transport study must deliver."""
    checks: list[ShapeCheck] = []

    def check(claim: str, passed: bool, detail: str) -> None:
        checks.append(ShapeCheck(claim, passed, detail))

    for r in results:
        name = r.label
        # Every point settled into something classifiable (no wedge).
        unclassified = [
            (p.load_factor, p.mode)
            for p in r.points
            if p.stability not in ("stable", "metastable", "collapsed")
        ]
        check(
            f"{name}: every storm point classified",
            not unclassified,
            f"unclassified: {unclassified or 'none'}",
        )
        transported = [p for p in r.points if p.mode != "governor"]
        # Goodput can never exceed raw delivered throughput.
        bad_good = [
            (p.load_factor, p.mode)
            for p in transported
            if not math.isnan(p.measurement.goodput_percent)
            and p.measurement.goodput_percent
            > p.measurement.throughput_percent + 1e-9
        ]
        check(
            f"{name}: goodput bounded by raw throughput",
            not bad_good,
            f"violations: {bad_good or 'none'}",
        )
        # Bounded retransmissions: the per-segment attempt cap bounds
        # window retransmissions by max_attempts x offered data.
        unbounded = [
            (p.load_factor, p.mode)
            for p in transported
            if p.measurement.retransmitted_packets
            > max_attempts * max(1, p.measurement.offered_packets)
        ]
        check(
            f"{name}: retransmissions bounded by the attempt cap",
            not unbounded,
            f"violations: {unbounded or 'none'}",
        )
        # End-to-end accounting: settled outcomes are delivered or
        # aborted, nothing silently lost (ratio is a real number once
        # any message settled).
        broken = [
            (p.load_factor, p.mode)
            for p in transported
            if p.messages_sent > 0 and math.isnan(p.delivered_ratio)
        ]
        check(
            f"{name}: end-to-end outcomes settle under the storm",
            not broken,
            f"no-outcome points: {broken or 'none'}",
        )
    return checks
