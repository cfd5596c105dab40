"""Run simulation points and offered-load sweeps.

One *point* = one (network, workload, offered load) simulation:
warm up until ``warmup_packets`` deliveries, open a measurement window,
run until ``measure_packets`` more deliveries (or the cycle budget runs
out -- which near saturation it will; the window is still valid, the
throughput simply reflects what the network sustained).

Every point variant runs this lifecycle: :func:`build_point`, its own
layers, then :func:`install_workload`, :func:`warm_up`, :func:`measure`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.experiments.config import NetworkConfig, RunConfig
from repro.metrics.collector import Measurement, MeasurementWindow
from repro.sim.core import Environment
from repro.sim.rng import RandomStream
from repro.traffic.workload import Workload
from repro.wormhole.engine import WormholeEngine, resolve_engine

#: A workload builder maps an offered load to a ready-to-install Workload.
WorkloadBuilder = Callable[[float], Workload]


def build_point(
    network: NetworkConfig,
    key: object,
    run_cfg: RunConfig,
    engine: Optional[str] = None,
) -> tuple[Environment, WormholeEngine, RandomStream]:
    """Construct the (env, engine, root RNG) triple of one point.

    ``key`` labels the RNG forks: the engine's stream is
    ``engine/<network label>/<key>`` and each layer forks
    ``<layer>/<network label>/<key>`` from the root the same way.

    ``engine`` selects the execution path -- ``"fast"`` runs the
    optimized engine phases, span-sleep clock and prefetched allocation
    stream, ``"reference"`` the reference phases, unit-tick clock and
    stdlib draws, and None defers to ``REPRO_ENGINE`` (default fast;
    ``"batch"`` is an alias of fast).  Both tiers share one event
    queue.  The choice never changes results (``tests/differential``),
    only wall-clock cost.
    """
    kind = resolve_engine(engine)
    env = Environment()
    root = RandomStream(run_cfg.seed, name="root")
    sim_engine = WormholeEngine(
        env,
        network.build(),
        rng=root.fork(f"engine/{network.label}/{key}"),
        engine=kind,
    )
    return env, sim_engine, root

#: env.run() chunk size between progress checks.
_CHUNK = 512


class PointTimeout(TimeoutError):
    """A point exceeded its wall-clock deadline (cooperative check)."""


#: Per-thread wall-clock deadline for the *current* point, as a
#: ``time.monotonic()`` instant.  Thread-local so each thread that runs
#: points (a supervised worker's main thread, or a test's pool thread)
#: times out independently.
_point_deadline = threading.local()


def set_point_deadline(seconds: Optional[float]) -> None:
    """Arm (or with None, disarm) a wall-clock limit for this thread.

    The limit is checked cooperatively inside the simulation loop
    (:func:`warm_up`, :func:`measure`), every ``_CHUNK`` sim-cycles; a point
    past it raises :class:`PointTimeout`.  Wall clock is the right
    clock here: the limit guards the *experiment harness* against hung
    infrastructure, it is not part of the simulated model.
    """
    if seconds is None:
        _point_deadline.at = None
        return
    if seconds <= 0:
        raise ValueError("deadline seconds must be positive")
    _point_deadline.at = time.monotonic() + seconds  # lint-sim: ignore[RPV002]


#: Per-thread liveness callback beaten from the simulation loop at the
#: same cadence as the deadline check (every ``_CHUNK`` sim-cycles), so
#: a supervisor can distinguish "long point, still advancing" from
#: "worker wedged" (see :class:`repro.obs.progress.HeartbeatSlot` and
#: :mod:`repro.serve.supervisor`).
_point_heartbeat = threading.local()


def set_point_heartbeat(beat: Optional[Callable[[], None]]) -> None:
    """Install (or with None, remove) this thread's liveness beat."""
    _point_heartbeat.fn = beat


def _check_point_deadline() -> None:
    beat = getattr(_point_heartbeat, "fn", None)
    if beat is not None:
        beat()
    at = getattr(_point_deadline, "at", None)
    if at is not None and time.monotonic() > at:  # lint-sim: ignore[RPV002]
        _point_deadline.at = None  # disarm: one timeout per arming
        raise PointTimeout("point exceeded its wall-clock deadline")


@dataclass(frozen=True)
class LoadPoint:
    """One sweep point: requested load plus the measured window.

    A point that failed in a parallel run carries ``measurement=None``
    and the worker's error string instead (see
    :func:`repro.experiments.parallel.parallel_sweep`).
    """

    offered_load: float
    measurement: Optional[Measurement]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the point actually measured (no worker error)."""
        return self.measurement is not None


@dataclass(frozen=True)
class SweepResult:
    """A full offered-load sweep for one (network, workload) series.

    ``dispatch`` reports how the parallel runner served the sweep: the
    job manifest's ``counts`` mapping (requested, unique, deduplicated,
    cached, computed, failed and pending points).  It is None for
    sequential sweeps and excluded from equality so a deduplicated
    parallel sweep still compares equal to its sequential twin.
    """

    label: str
    points: tuple[LoadPoint, ...]
    dispatch: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def complete(self) -> bool:
        """True when every point measured (no crashed workers)."""
        return all(p.ok for p in self.points)

    def errors(self) -> list[tuple[float, str]]:
        """(load, error) of every crashed point."""
        return [(p.offered_load, p.error) for p in self.points if not p.ok]

    def max_sustained_throughput(self) -> float:
        """Highest throughput % over the *sustainable* points.

        Falls back to the overall maximum when every point saturated
        (the series' sustainable region lies below the lightest load).
        Crashed points are skipped.
        """
        measured = [p.measurement for p in self.points if p.ok]
        if not measured:
            raise ValueError(f"series {self.label!r} has no measured points")
        sustained = [
            m.throughput_percent for m in measured if m.sustainable
        ]
        if sustained:
            return max(sustained)
        return max(m.throughput_percent for m in measured)

    def latency_at(self, load: float) -> float:
        """Average latency measured at an exact sweep load."""
        for p in self.points:
            if p.offered_load == load:
                if not p.ok:
                    raise ValueError(
                        f"point at load {load} crashed: {p.error}"
                    )
                return p.measurement.avg_latency
        raise KeyError(f"no point at load {load}")


def _run_until_delivered(
    engine: WormholeEngine, target: int, deadline: float
) -> None:
    env = engine.env
    while engine.stats.delivered_packets < target and env.now < deadline:
        _check_point_deadline()
        env.run(until=min(env.now + _CHUNK, deadline))


def install_workload(engine: WormholeEngine, workload: Workload, rng: RandomStream) -> None:
    """Install ``workload``'s sources (refusing none) and start ``engine``."""
    installed = workload.install(engine.env, engine, rng)
    if installed == 0:
        raise RuntimeError("workload installed no traffic sources")
    engine.start()


def warm_up(engine: WormholeEngine, run_cfg: RunConfig) -> None:
    """Run to ``warmup_packets`` deliveries, within max_cycles / 4."""
    deadline = engine.env.now + run_cfg.max_cycles / 4
    _run_until_delivered(engine, run_cfg.warmup_packets, deadline)


def measure(
    engine: WormholeEngine, run_cfg: RunConfig, batches: Optional[int] = None
) -> tuple[Measurement, list[float]]:
    """Run one measurement window; returns it with its batch series.

    Without ``batches`` the window closes at ``measure_packets``
    deliveries or after ``max_cycles``, and the series is empty.  With
    them it runs ``max_cycles`` in ``batches`` equal batches, and the
    series holds each batch's throughput in flits per node-cycle.
    """
    env = engine.env
    stats = engine.stats
    window = MeasurementWindow(engine)
    window.begin()
    series: list[float] = []
    if batches is None:
        deadline = env.now + run_cfg.max_cycles
        _run_until_delivered(engine, run_cfg.measure_packets, deadline)
    else:
        batch_cycles = max(1.0, run_cfg.max_cycles / batches)
        scale = engine.network.N * batch_cycles
        prev_flits = stats.delivered_flits
        for _ in range(batches):
            _check_point_deadline()
            env.run(until=env.now + batch_cycles)
            series.append((stats.delivered_flits - prev_flits) / scale)
            prev_flits = stats.delivered_flits
    return window.finish(), series


def run_point(
    network: NetworkConfig,
    workload_builder: WorkloadBuilder,
    offered_load: float,
    run_cfg: RunConfig,
    engine: Optional[str] = None,
) -> Measurement:
    """Simulate one point and return its measurement window.

    ``engine`` ("fast" / "reference" / None = ``REPRO_ENGINE``)
    picks the execution path; results are identical either way.
    """
    _, sim_engine, root = build_point(network, offered_load, run_cfg, engine)
    workload = workload_builder(offered_load)
    install_workload(sim_engine, workload, root.fork(f"workload/{network.label}/{offered_load}"))
    warm_up(sim_engine, run_cfg)
    return measure(sim_engine, run_cfg)[0]


def sweep(
    network: NetworkConfig,
    workload_builder: WorkloadBuilder,
    run_cfg: RunConfig,
    loads: Sequence[float] | None = None,
    label: str | None = None,
    engine: Optional[str] = None,
) -> SweepResult:
    """Sweep the offered load for one (network, workload) series."""
    loads = tuple(loads) if loads is not None else run_cfg.loads
    points = tuple(
        LoadPoint(
            load, run_point(network, workload_builder, load, run_cfg, engine)
        )
        for load in loads
    )
    return SweepResult(label or network.label, points)
