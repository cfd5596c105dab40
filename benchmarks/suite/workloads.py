"""The suite's five workloads: their inputs and one tier-repetition each.

Every input derives from the workload seed and nothing else.  The
simulated outputs of each point are reduced to a digest (SHA-256 of the
canonical JSON of its ``Measurement`` or payload) so the driver can
check tier agreement, serve/parallel agreement and the pinned outputs
without shipping the outputs themselves.

The engine workloads drive the program through its public API only
(``build_point``, ``WorkloadSpec.builder``, ``MeasurementWindow``,
``Environment.run``), splitting each point into set-up, warm-up and
window phases the way :func:`repro.experiments.runner.run_point` does,
so their measurements are the ones ``run_point`` returns.

Between two units of work (points, or serve jobs) the garbage of the
last one is collected, untimed, so neither the next unit's time nor the
process's peak memory depends on when a full collection happens to run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from probes import Tracer
from refclock import CLOCK, clock, cpu, wall

DEFAULT_SEED = 20250707
LOADS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
#: Serve and parallel worker processes: the machine's two cores.
WORKERS = 2
#: Cold serve jobs per repetition, each into a fresh cache.
COLD_JOBS = 2
WARM_RUNS = 10
#: ``env.run`` chunk between delivery checks -- the value
#: ``repro.experiments.runner`` uses, so measurements match ``run_point``.
CHUNK = 512

KIND = {
    "contended": "engine",
    "streaming": "engine",
    "multilane": "engine",
    "loss_storm": "loss_storm",
    "serve": "serve",
}

#: Modules a repetition imports before its first point (timed as
#: ``setup.import_s``); the batch tier adds numpy through
#: ``repro.wormhole.batch``.
IMPORTS = {
    "engine": (
        "repro.experiments.runner",
        "repro.experiments.workload_spec",
        "repro.metrics.collector",
    ),
    "loss_storm": ("repro.serve.compute",),
    "serve": ("repro.serve", "repro.experiments.parallel"),
}


def digest(obj) -> str:
    """Short stable digest of a JSON-able simulated output."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _scope(tracer: Optional[Tracer], name: str) -> None:
    if tracer is not None:
        tracer.scope(name)


def _summary(points, units, failures, **extra) -> dict:
    """The record one repetition hands back to the driver.

    ``points`` carry each point's digest and delivered window flits;
    ``units`` are the separately timed pieces of work (a point, or a
    whole service job), each with its ``setup_s`` and ``run_s``, so the
    driver can take the median repetition of every unit.
    """
    return {
        "points": points,
        "units": units,
        "attempted": len(points),
        "failures": failures,
        "setup_s": sum(u["setup_s"] for u in units),
        "run_s": sum(u["run_s"] for u in units),
        "flits": sum(p["flits"] for p in points),
        **extra,
    }


# ------------------------------------------------------------ engine inputs


def engine_scenario(name: str, seed: int, smoke: bool):
    """(points, run config, workload spec) of one engine workload."""
    from repro.experiments.config import NetworkConfig, RunConfig
    from repro.experiments.workload_spec import WorkloadSpec
    from repro.traffic.workload import MessageSizeModel

    if name == "contended":
        # Phase A allocation and worm-mode Phase B under contention.
        flits = 64 if smoke else 1024
        sizes = MessageSizeModel("fixed", flits, flits)
        nets = [NetworkConfig("dmin")]
        loads = (0.2, 1.0) if smoke else LOADS
        warmup, measure, max_cycles = (10, 40, 60_000) if smoke else (60, 600, 600_000)
    elif name == "streaming":
        # Long worms in a quiet fabric: free-run ledger and span sleep.
        flits = 256 if smoke else 1024
        sizes = MessageSizeModel("fixed", flits, flits)
        nets = [NetworkConfig(k) for k in (("dmin",) if smoke else ("tmin", "dmin", "bmin"))]
        loads = (0.1,)
        warmup, measure, max_cycles = (5, 20, 200_000) if smoke else (60, 1000, 5_000_000)
    elif name == "multilane":
        # Multi-lane wires: the channel sweep, never the worm walk.
        sizes = MessageSizeModel("uniform", 8, 64) if smoke else MessageSizeModel.paper()
        nets = [NetworkConfig("vmin")]
        loads = (0.2, 1.0) if smoke else LOADS
        warmup, measure, max_cycles = (10, 40, 60_000) if smoke else (30, 80, 600_000)
    else:
        raise ValueError(f"not an engine workload: {name!r}")
    run_cfg = RunConfig(
        name=f"bench-{name}",
        warmup_packets=warmup,
        measure_packets=measure,
        max_cycles=max_cycles,
        sizes=sizes,
        seed=seed,
        loads=loads,
    )
    points = [(net, load) for net in nets for load in loads]
    return points, run_cfg, WorkloadSpec(pattern="uniform")


# ----------------------------------------------------------- ablation rows


class _NullSink:
    """A hot bus sink that does nothing: the bus publishes every
    transmit, and Phase B leaves the worm walk for the channel sweep."""

    def on_transmit(self, t, channel, lane) -> None:
        pass


def _install_ablation(layer: Optional[str], engine) -> None:
    """Install an optional layer that is present but can never act."""
    if layer is None:
        return
    if layer == "bus":
        engine.bus.attach(_NullSink())
    elif layer == "queue":
        from repro.stability import BoundedQueue

        BoundedQueue(capacity=1 << 30).install(engine)
    elif layer == "watchdog":
        from repro.stability import ProgressWatchdog

        engine.watchdog = ProgressWatchdog(
            engine, check_every=64, stall_age=1 << 40,
            deadlock_after=1 << 40, recover=False,
        )
    else:
        raise ValueError(f"unknown ablation layer {layer!r}")


def _ablation_acted(layer: Optional[str], engine) -> Optional[str]:
    """Why the ablated layer is known to have acted, or None."""
    if layer == "queue" and (
        engine.stats.shed_packets or engine.stats.throttled_packets
    ):
        return "bounded queue shed or throttled"
    if layer == "watchdog" and engine.watchdog.events:
        return "watchdog flagged a worm"
    return None


# ------------------------------------------------------------- engine runs


def _run_until(engine, target: int, deadline: float) -> None:
    env = engine.env
    while engine.stats.delivered_packets < target and env.now < deadline:
        env.run(until=min(env.now + CHUNK, deadline))


def run_engine(name, tier, seed, smoke, tracer=None, ablation=None, workdir=None):
    """One tier-repetition of an engine workload."""
    from repro.experiments.runner import build_point
    from repro.metrics.collector import MeasurementWindow, measurement_to_dict

    points, run_cfg, spec = engine_scenario(name, seed, smoke)
    builder = spec.builder(run_cfg)
    out, units, failures = [], [], []
    with _span(tracer, name), _span(tracer, tier):
        for net, load in points:
            label = f"{net.label}@{load:g}"
            with _span(tracer, label):
                _scope(tracer, f"{label}/setup")
                with _span(tracer, "setup"):
                    t0 = clock()
                    env, engine, root = build_point(net, load, run_cfg, tier)
                    _install_ablation(ablation, engine)
                    builder(load).install(
                        env, engine, root.fork(f"workload/{net.label}/{load}")
                    )
                    engine.start()
                    t1 = clock()
                _scope(tracer, f"{label}/run")
                with _span(tracer, "warmup"):
                    _run_until(
                        engine, run_cfg.warmup_packets,
                        env.now + run_cfg.max_cycles / 4,
                    )
                with _span(tracer, "window"):
                    window = MeasurementWindow(engine)
                    window.begin()
                    _run_until(
                        engine, run_cfg.measure_packets,
                        env.now + run_cfg.max_cycles,
                    )
                    m = window.finish()
                t2 = clock()
            acted = _ablation_acted(ablation, engine)
            if acted:
                failures.append(f"{label}: {acted}")
            units.append({"setup_s": t1 - t0, "run_s": t2 - t1})
            out.append({
                "point": label,
                "flits": m.delivered_flits,
                "digest": digest(measurement_to_dict(m)),
            })
            del env, engine, root, window
            gc.collect()
    return _summary(out, units, failures)


# ------------------------------------------------------------- loss storm


def loss_points(seed: int, smoke: bool, tier: str) -> list:
    """The loss-storm PointSpecs: bursty traffic, fault churn, transport.

    The bursts are MMPP (two-state Markov-modulated Poisson): bursty,
    but light-tailed, so the host work of a point hardly depends on the
    seed.  Pareto on-off bursts made it vary by a quarter from seed to
    seed.
    """
    from repro.experiments.config import SCALED, NetworkConfig, RunConfig
    from repro.experiments.workload_spec import WorkloadSpec
    from repro.serve.job import FaultSpec, PointSpec

    nets = [NetworkConfig("dmin")]
    if not smoke:
        nets.append(NetworkConfig("torus3d", k=4, n=3, router="adaptive"))
    run = RunConfig(
        name="bench-loss-storm",
        warmup_packets=50 if smoke else 300,
        measure_packets=200 if smoke else 2000,
        max_cycles=2_000_000,
        sizes=SCALED.sizes,
        seed=seed,
    )
    return [
        PointSpec(
            network=net,
            workload=WorkloadSpec(arrival="mmpp", k=net.k, n=net.n),
            load=load,
            seed=seed,
            run=run,
            engine=tier,
            faults=FaultSpec(rate=0.1, severity="hard"),
            transport={},
        )
        for net in nets
        for load in ((0.6,) if smoke else (0.3, 0.6))
    ]


def run_loss_storm(name, tier, seed, smoke, tracer=None, ablation=None, workdir=None):
    """One tier-repetition of the loss storm (``run_point_spec`` per point)."""
    from repro.serve.compute import run_point_spec

    out, units, failures = [], [], []
    data = first = goodput = delivered = 0
    with _span(tracer, name), _span(tracer, tier):
        for point in loss_points(seed, smoke, tier):
            label = f"{point.network.label}@{point.load:g}"
            _scope(tracer, f"{label}/run")
            with _span(tracer, label):
                t0 = clock()
                payload = run_point_spec(point)
                units.append({"setup_s": 0.0, "run_s": clock() - t0})
            tp, m = payload["transport"], payload["measurement"]
            if tp["messages_aborted"] or tp["flows_aborted"]:
                failures.append(f"{label}: {tp['messages_aborted']} messages aborted")
            offers = m["offered_packets"] - m["ack_packets"]
            data += offers
            first += offers - m["retransmitted_packets"]
            goodput += m["goodput_flits"]
            delivered += m["delivered_flits"]
            out.append({
                "point": label,
                "flits": m["delivered_flits"],
                "digest": digest(payload),
            })
            gc.collect()
    return _summary(
        out, units, failures,
        transport={
            "retransmit_ratio": first / data if data else 0.0,
            "goodput_ratio": goodput / delivered if delivered else 0.0,
        },
    )


# ------------------------------------------------------------------ serve


def serve_spec(seed: int, smoke: bool, tier: str):
    """The sweep-service job: four MINs x six loads x two seeds of small
    points, so per-point service work is not buried under compute."""
    from repro.experiments.config import NetworkConfig, RunConfig
    from repro.serve.job import JobSpec
    from repro.traffic.workload import MessageSizeModel

    kinds = ("tmin", "vmin") if smoke else ("tmin", "dmin", "vmin", "bmin")
    run = RunConfig(
        name="bench-serve",
        warmup_packets=5 if smoke else 10,
        measure_packets=20 if smoke else 40,
        # Every point is one 64-cycle warm-up and one 256-cycle window.
        max_cycles=256,
        sizes=MessageSizeModel("uniform", 4, 16),
        seed=seed,
    )
    return JobSpec(
        networks=tuple(NetworkConfig(k) for k in kinds),
        run=run,
        loads=(0.2,) if smoke else LOADS,
        seeds=(seed, seed + 1),
        engine=tier,
    )


class ComputeTimes:
    """Per-point compute time measured inside forked worker processes.

    The arrays are created before the workers fork and inherited by
    them; each point owns one slot, so workers never write the same
    element, and the payload bytes the workers return stay untouched.

    The parent's reference clock cannot see how fast the workers' CPUs
    ran, so each worker starts its own on its first point and records
    every point's wall and reference seconds.  Their ratio over a job,
    :meth:`speed`, converts the job's wall time to reference seconds.
    """

    def __init__(self, keys: list) -> None:
        self.index = {k: i for i, k in enumerate(keys)}
        self._wall = multiprocessing.RawArray("d", len(keys))
        self._ref = multiprocessing.RawArray("d", len(keys))
        self._clock_pid = os.getpid()

    def measure(self, key, fn, arg):
        """``fn(arg)``, timed into ``key``'s slot."""
        if self._clock_pid != os.getpid():
            # First point in this worker: the parent's timer did not
            # survive the fork.
            CLOCK.start(base=cpu)
            self._clock_pid = os.getpid()
        w0, t0 = wall(), clock()
        out = fn(arg)
        i = self.index[key]
        self._wall[i] = wall() - w0
        self._ref[i] = clock() - t0
        return out

    def values(self) -> list[float]:
        """Reference seconds per point."""
        return list(self._ref)

    def speed(self) -> float:
        """Reference seconds per wall second of the workers' compute."""
        spent = sum(self._wall)
        return sum(self._ref) / spent if spent else 1.0


#: The accumulator the timing runners below write to.  Set by
#: :func:`run_serve` before each phase forks its workers (a runner
#: reaches a pool worker by import path, so it cannot carry it).
_COMPUTE: Optional[ComputeTimes] = None


def timed_point_spec(point):
    """``SweepService`` runner: ``run_point_spec``, timed."""
    from repro.serve.compute import run_point_spec

    key = (point.network.label, point.load, point.seed)
    return _COMPUTE.measure(key, run_point_spec, point)


def timed_parallel_point(task):
    """``parallel_matrix`` point runner, timed."""
    from repro.experiments.runner import LoadPoint, run_point

    def compute(task):
        network, spec, load, run_cfg = task
        return run_point(network, spec.builder(run_cfg), load, run_cfg)

    network, _, load, run_cfg = task
    m = _COMPUTE.measure((network.label, load, run_cfg.seed), compute, task)
    return LoadPoint(load, m)


def _job(service, spec) -> tuple[float, object]:
    t0 = clock()
    manifest = service.run_job_sync(spec)
    return clock() - t0, manifest


def _cold_job(service, spec) -> tuple[float, object]:
    """A cold job's reference seconds: its wall time at the speed its
    workers measured (see :class:`ComputeTimes`)."""
    w0 = wall()
    manifest = service.run_job_sync(spec)
    return (wall() - w0) * _COMPUTE.speed(), manifest


def _read_back(cache_dir, job, points, ids, failures) -> dict:
    """The cold job's served points, read from its cache: id -> entry."""
    from repro.serve import ResultCache

    reader = ResultCache(cache_dir)
    served = {}
    for p, pid in zip(points, ids):
        payload = reader.get(p.key())
        if payload is None:
            failures.append(f"cold job {job} {pid}: missing from the cache")
            continue
        m = payload["measurement"]
        served[pid] = {
            "point": "cold{} {}@{:g}#s{}".format(job, *pid),
            "flits": m["delivered_flits"],
            "digest": digest(m),
        }
    return served


def run_serve(
    name, tier, seed, smoke, tracer=None, ablation=None, workdir=None,
    cold_only=False,
):
    """One tier-repetition of the serve workload.

    Both tiers run the cold job ``COLD_JOBS`` times (once at smoke
    sizes), each time through a new service into a fresh cache.  Unless
    ``cold_only``, the fast tier then re-submits the last one
    ``WARM_RUNS`` times and runs ``parallel_matrix`` over the same grid,
    one call per seed; every parallel point must equal the point the
    service served.  The driver asks for that once per run: it checks
    the service, and the warm and parallel rates are per-layer metrics.
    The per-layer metrics of a traced repetition describe the last cold
    job.

    The cold jobs run their points through :func:`timed_point_spec`,
    which returns ``run_point_spec``'s payload untouched, so that the
    workers measure their own speed.
    """
    global _COMPUTE
    from repro.experiments.parallel import parallel_matrix
    from repro.experiments.workload_spec import WorkloadSpec
    from repro.metrics.collector import measurement_to_dict
    from repro.serve import SweepService
    from repro.serve.supervisor import SupervisePolicy

    spec = serve_spec(seed, smoke, tier)
    points = spec.points()
    ids = [(p.network.label, p.load, p.seed) for p in points]
    jobs = 1 if smoke else COLD_JOBS
    failures: list[str] = []
    attempted = 0
    out, units = [], []
    extra: dict = {"job_points": len(points)}

    with _span(tracer, name), _span(tracer, tier):
        for job in range(jobs):
            cache_dir = Path(workdir) / f"cache{job}"
            shutil.rmtree(cache_dir, ignore_errors=True)
            _COMPUTE = ComputeTimes(ids)
            t0 = clock()
            service = SweepService(
                cache_dir, policy=SupervisePolicy(workers=WORKERS),
                runner=timed_point_spec,
            )
            setup_s = clock() - t0
            _scope(tracer, "cold" if job == jobs - 1 else f"cold{job}")
            with _span(tracer, "cold"):
                cold_s, cold = _cold_job(service, spec)
            units.append({"setup_s": setup_s, "run_s": cold_s})
            attempted += len(points)
            if not cold.complete or cold.counts["computed"] != len(points):
                failures.append(f"cold job {job} incomplete: {cold.counts}")
            _scope(tracer, "verify")
            served = _read_back(cache_dir, job, points, ids, failures)
            out += served.values()
            if job < jobs - 1:
                shutil.rmtree(cache_dir, ignore_errors=True)
            gc.collect()
        extra["cold_compute"] = _COMPUTE.values()

        if tier == "fast" and not cold_only:
            _scope(tracer, "warm")
            warm = []
            with _span(tracer, "warm"):
                for _ in range(2 if smoke else WARM_RUNS):
                    seconds, manifest = _job(service, spec)
                    warm.append(seconds)
                    attempted += len(points)
                    if not manifest.complete or manifest.counts["computed"]:
                        failures.append(f"warm job recomputed: {manifest.counts}")
            extra["warm_s"] = warm
            extra["cache"] = service.cache.stats.to_dict()

            _scope(tracer, "parallel")
            kwargs = {"max_workers": WORKERS, "loads": spec.effective_loads}
            if tracer is not None:
                _COMPUTE = ComputeTimes(ids)
                kwargs["point_runner"] = timed_parallel_point
            t1 = clock()
            with _span(tracer, "parallel"):
                for s in spec.effective_seeds:
                    sweeps = parallel_matrix(
                        list(spec.networks), WorkloadSpec(),
                        spec.run.with_seed(s), **kwargs,
                    )
                    for net, sweep in zip(spec.networks, sweeps):
                        for lp in sweep.points:
                            attempted += 1
                            pid = (net.label, lp.offered_load, s)
                            if not lp.ok:
                                failures.append(f"parallel {pid}: {lp.error}")
                            elif digest(measurement_to_dict(lp.measurement)) != served.get(
                                pid, {}
                            ).get("digest"):
                                failures.append(f"parallel {pid}: differs from serve")
            extra["parallel_s"] = clock() - t1
            if tracer is not None:
                extra["parallel_compute"] = _COMPUTE.values()
    shutil.rmtree(cache_dir, ignore_errors=True)
    summary = _summary(out, units, failures, supervisor=cold.supervisor, **extra)
    summary["attempted"] = attempted
    return summary


RUNNERS = {"engine": run_engine, "loss_storm": run_loss_storm, "serve": run_serve}


# ------------------------------------------------------------------ probes

#: (target, probe key) pairs of the engine layers; keys are per-layer
#: metric stems.  Reference and fast variants of a phase share a key, so
#: the attribution does not depend on the tier.
ENGINE_PROBES = (
    ("repro.sim.core:Environment.run", "sim.run"),
    ("repro.wormhole.engine:WormholeEngine.step_cycle", "wormhole.step"),
    ("repro.wormhole.engine:WormholeEngine._phase_allocate", "wormhole.phase_a"),
    ("repro.wormhole.engine:WormholeEngine._phase_allocate_fast", "wormhole.phase_a"),
    ("repro.wormhole.engine:WormholeEngine._phase_advance", "wormhole.phase_b"),
    ("repro.wormhole.engine:WormholeEngine._phase_advance_fast", "wormhole.phase_b"),
    ("repro.wormhole.engine:WormholeEngine.offer", "wormhole.offer"),
    ("repro.wormhole.engine:WormholeEngine._abort", "wormhole.abort"),
    ("repro.metrics.collector:MeasurementWindow.finish", "metrics.window"),
    ("repro.experiments.config:NetworkConfig.build", "setup.build"),
    ("repro.traffic.workload:Workload.install", "setup.install"),
    ("repro.transport.reliable:ReliableTransport.send", "transport.send"),
    ("repro.transport.reliable:ReliableTransport.on_deliver", "transport.callback"),
    ("repro.transport.reliable:ReliableTransport.on_abort", "transport.callback"),
    ("repro.transport.reliable:ReliableTransport.on_shed", "transport.callback"),
)

BATCH_PROBES = (
    ("repro.wormhole.batch:SoALedger.add", "batch.ledger"),
    ("repro.wormhole.batch:SoALedger.remove", "batch.ledger"),
    ("repro.wormhole.batch:SoALedger.pop_due", "batch.ledger"),
    ("repro.wormhole.batch:SoALedger.next_due", "batch.ledger"),
)

#: (target, probe key, record a span per call).
SERVE_PROBES = (
    ("repro.serve.job:PointSpec.key", "serve.canonical", False),
    ("repro.serve.cache:ResultCache.get", "serve.cache_get", False),
    ("repro.serve.cache:ResultCache.put", "serve.cache_put", False),
    ("repro.serve.service:SweepService.run_job_sync", "serve.job", True),
    ("repro.serve.supervisor:WorkerSupervisor.run", "serve.supervisor", True),
    ("repro.serve.service:summarize_points", "serve.manifest", True),
    ("repro.experiments.parallel:parallel_matrix", "parallel.matrix", True),
)


def install_probes(tracer: Tracer, kind: str, tier: str) -> None:
    """Install the probes of every layer ``kind`` exercises.

    The serve workload computes inside worker processes, which the
    probes cannot see, so it probes only the service layers; its
    compute time comes from the timing runners above.
    """
    if kind == "serve":
        for target, key, span in SERVE_PROBES:
            tracer.probe(target, key, span=span)
        return
    for target, key in ENGINE_PROBES:
        tracer.probe(target, key)
    tracer.probe(
        "repro.wormhole.engine:WormholeEngine.__init__", "setup.engine",
        capture=True,
    )
    tracer.probe(
        "repro.metrics.collector:MeasurementWindow.begin", "metrics.window",
        before=lambda args: tracer.add(
            "wormhole.warmup_flits", args[0].engine.stats.delivered_flits
        ),
    )
    if tier == "batch":
        for target, key in BATCH_PROBES:
            tracer.probe(target, key)
        tracer.probe(
            "repro.wormhole.batch:plan_moves", "batch.plan_moves",
            size=lambda args: len(args[0]),
        )


# ----------------------------------------------------- per-layer metrics


def engine_layers(tracer: Tracer, result: dict, import_s: float) -> dict:
    """Per-layer metrics of a traced engine or loss-storm repetition.

    Every ``_s`` metric is self time, so the run-phase ones add up to
    the run phase without double counting (``trace.coverage``).
    """
    run_scopes = [s for s in tracer.scopes if s.endswith("/run")]
    engines = [e for objs in tracer.captures.values() for e in objs]
    cycles = sum(e.cycles_run for e in engines)
    ticks = tracer.total("wormhole.step", 0)
    run_wall = result["run_s"]
    flits_run = tracer.total("wormhole.warmup_flits", 3) + result["flits"]
    plan_calls = tracer.total("batch.plan_moves", 0)
    covered = sum(
        rec[2] for s in run_scopes for rec in tracer.scopes[s].values()
    )
    transport = result.get("transport", {})
    out = {
        "sim.run_s": tracer.total("sim.run", 1),
        "sim.events_fired": sum(e.env.events_fired for e in engines),
        "wormhole.cycles": cycles,
        "wormhole.ticks": ticks,
        "wormhole.span_skip_ratio": 1.0 - ticks / cycles if cycles else 0.0,
        "wormhole.offer_calls": tracer.total("wormhole.offer", 0),
        "wormhole.abort_calls": tracer.total("wormhole.abort", 0),
        "wormhole.host_ns_per_flit": 1e9 * run_wall / flits_run if flits_run else 0.0,
        "obs.bus_published": sum(e.bus.published for e in engines),
        "setup.import_s": import_s,
        "transport.send_calls": tracer.total("transport.send", 0),
        "transport.retransmit_ratio": transport.get("retransmit_ratio", 0.0),
        "transport.goodput_ratio": transport.get("goodput_ratio", 0.0),
        "trace.coverage": covered / run_wall if run_wall else 0.0,
        "batch.plan_moves_calls": plan_calls,
        "batch.plan_moves_worms_mean": (
            tracer.total("batch.plan_moves", 3) / plan_calls if plan_calls else 0.0
        ),
        "batch.ledger_calls": tracer.total("batch.ledger", 0),
    }
    for metric, key in (
        ("sim.self_s", "sim.run"),
        ("wormhole.phase_a_s", "wormhole.phase_a"),
        ("wormhole.phase_b_s", "wormhole.phase_b"),
        ("wormhole.step_self_s", "wormhole.step"),
        ("wormhole.offer_s", "wormhole.offer"),
        ("metrics.window_s", "metrics.window"),
        ("setup.build_s", "setup.build"),
        ("setup.engine_s", "setup.engine"),
        ("setup.install_s", "setup.install"),
        ("transport.send_s", "transport.send"),
        ("transport.callback_s", "transport.callback"),
        ("batch.plan_moves_s", "batch.plan_moves"),
        ("batch.ledger_s", "batch.ledger"),
    ):
        out[metric] = tracer.total(key, 2)
    return out


def serve_layers(tracer: Tracer, result: dict, import_s: float) -> dict:
    """Per-layer metrics of a traced serve repetition.

    ``trace.coverage`` is the share of the cold job's wall time spent in
    the probed service layers (canonical hashing, cache, supervisor,
    manifest).
    """
    job_s = tracer.total("serve.job", 1, ["cold"])
    out = {
        "setup.import_s": import_s,
        "trace.coverage": (
            (job_s - tracer.total("serve.job", 2, ["cold"])) / job_s
            if job_s else 0.0
        ),
    }
    if "warm_s" not in result:
        return out
    jobs = ["cold", "warm"]
    compute = result["cold_compute"]
    compute_s = sum(compute)
    supervisor_s = tracer.total("serve.supervisor", 1, ["cold"])
    cache = result["cache"]
    lookups = cache["hits"] + cache["misses"]
    par_compute = sum(result["parallel_compute"])
    matrix_s = tracer.total("parallel.matrix", 1, ["parallel"])
    out.update({
        "serve.canonical_calls": tracer.total("serve.canonical", 0, jobs),
        "serve.canonical_s": tracer.total("serve.canonical", 2, jobs),
        "serve.cache_get_calls": tracer.total("serve.cache_get", 0, jobs),
        "serve.cache_get_s": tracer.total("serve.cache_get", 2, jobs),
        "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache_put_calls": tracer.total("serve.cache_put", 0, jobs),
        "serve.cache_put_s": tracer.total("serve.cache_put", 2, jobs),
        "serve.supervisor_s": supervisor_s,
        "serve.compute_s": compute_s,
        "serve.compute_p50_ms": 1e3 * statistics.median(compute),
        "serve.compute_p90_ms": 1e3 * statistics.quantiles(compute, n=10)[8],
        "serve.dispatch_overhead_s": supervisor_s - compute_s / WORKERS,
        "serve.worker_utilization": (
            compute_s / (supervisor_s * WORKERS) if supervisor_s else 0.0
        ),
        "serve.retries": result["supervisor"].get("retries", 0),
        "serve.worker_deaths": result["supervisor"].get("worker_deaths", 0),
        "parallel.matrix_s": matrix_s,
        "parallel.compute_s": par_compute,
        "parallel.worker_utilization": (
            par_compute / (matrix_s * WORKERS) if matrix_s else 0.0
        ),
    })
    return out
