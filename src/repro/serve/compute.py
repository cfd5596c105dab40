"""Executing one :class:`~repro.serve.job.PointSpec` to a cache payload.

This is the module workers import: :func:`run_point_spec` must be a
picklable module-level callable (it crosses the task queue), and its
output must be *canonically serializable* so a cached record is
byte-equal to a fresh recomputation (``tests/serve/test_cache.py``
proves this for every network on both engines).

Fault-free points go through the ordinary
:func:`repro.experiments.runner.run_point` path -- the same code the
figures use, so the service's answers are the repro's answers.  Faulted
points reuse the availability sweep's wiring (MTBF churn + source
retry) with the engine choice honored.
"""

from __future__ import annotations

from repro.experiments.config import RunConfig
from repro.experiments.runner import _run_until_delivered, build_point, run_point
from repro.metrics.collector import Measurement, MeasurementWindow, measurement_to_dict
from repro.serve.job import PointSpec
from repro.traffic.workload import Workload

PAYLOAD_VERSION = 1


def run_point_spec(point: PointSpec) -> dict:
    """Simulate one point; returns the cacheable payload mapping."""
    run_cfg = point.run.with_seed(point.seed)
    if point.stability is not None:
        return _run_stability_point(point, run_cfg)
    if point.transport is not None:
        return _run_transport_point(point, run_cfg)
    if point.faults is None:
        measurement = run_point(
            point.network,
            point.workload.builder(run_cfg),
            point.load,
            run_cfg,
            engine=point.engine,
        )
    else:
        measurement = _run_faulted_point(point, run_cfg)
    return {
        "version": PAYLOAD_VERSION,
        "measurement": measurement_to_dict(measurement),
    }


def _run_stability_point(point: PointSpec, run_cfg: RunConfig) -> dict:
    """The overload-toolkit execution path (bounded admission, AIMD
    governor, watchdog), selected by ``point.stability``.

    The payload carries the ordinary measurement block plus a
    ``stability`` block: the normalized configuration it ran under and
    the steady-state series summary.  ``knee_throughput`` is None --
    one point cannot know its network's knee -- so the classification
    distinguishes stable from metastable but never reports collapse.
    """
    from repro.experiments.stability import stability_point
    from repro.stability import BoundedQueue

    cfg = point.stability
    sp = stability_point(
        point.network,
        run_cfg,
        point.load,
        knee_throughput=None,
        admission=BoundedQueue(capacity=cfg["capacity"], mode=cfg["mode"]),
        governed=cfg["governed"],
        watchdog=cfg["watchdog"],
        batches=cfg["batches"],
        engine=point.engine,
    )
    return {
        "version": PAYLOAD_VERSION,
        "measurement": measurement_to_dict(sp.measurement),
        "stability": {
            "config": dict(cfg),
            "classification": sp.stability,
            "steady": {
                "samples": sp.steady.samples,
                "truncation": sp.steady.truncation,
                "mean": sp.steady.mean,
                "cv": sp.steady.cv,
                "drift": sp.steady.drift,
            },
            "mean_rate": sp.mean_rate,
            "stall_events": sp.stall_events,
            "sheds": sp.sheds,
            "throttles": sp.throttles,
        },
    }


def _run_transport_point(point: PointSpec, run_cfg: RunConfig) -> dict:
    """The end-to-end reliability path, selected by ``point.transport``.

    Sources hand messages to a :class:`ReliableTransport` (its own
    forked stream -- engine and workload draws are untouched) instead
    of offering raw packets; ``point.faults`` may overlay MTBF churn,
    the loss storm the transport exists to survive (no SourceRetry --
    retransmission *is* the recovery layer here).  The payload carries
    the ordinary measurement block plus a ``transport`` block with the
    normalized configuration and the end-to-end tallies.
    """
    from repro.faults.mtbf import MTBFChurn
    from repro.transport import ReliableTransport, TransportConfig

    env, engine, root = build_point(
        point.network, point.load, run_cfg, point.engine
    )
    label = point.network.label
    transport = ReliableTransport(
        engine,
        TransportConfig(**point.transport),
        root.fork(f"transport/{label}/{point.load}"),
    )
    faults = point.faults
    if faults is not None and faults.rate > 0.0:
        mtbf = faults.mttr * (1.0 - faults.rate) / faults.rate
        MTBFChurn(
            env,
            engine.network,
            root.fork(f"faults/{label}/{point.load}"),
            mtbf=mtbf,
            mttr=faults.mttr,
            engine=engine,
            severity=faults.severity,
        )
    workload: Workload = point.workload.builder(run_cfg)(point.load)
    workload.transport = transport
    installed = workload.install(
        env, engine, root.fork(f"workload/{label}/{point.load}")
    )
    if installed == 0:
        raise RuntimeError("workload installed no traffic sources")
    engine.start()

    warmup_deadline = env.now + run_cfg.max_cycles / 4
    _run_until_delivered(engine, run_cfg.warmup_packets, warmup_deadline)
    window = MeasurementWindow(engine)
    window.begin()
    deadline = env.now + run_cfg.max_cycles
    _run_until_delivered(engine, run_cfg.measure_packets, deadline)
    measurement = window.finish()
    settled = sum(
        1 for o in transport.outcomes.values() if o == "delivered"
    )
    return {
        "version": PAYLOAD_VERSION,
        "measurement": measurement_to_dict(measurement),
        "transport": {
            "config": dict(point.transport),
            "messages_sent": transport.messages_sent,
            "messages_delivered": transport.messages_delivered,
            "messages_aborted": transport.messages_aborted,
            "flows_aborted": transport.flows_aborted,
            "acks_lost": transport.acks_lost,
            "delivered_ratio": (
                settled / len(transport.outcomes)
                if transport.outcomes
                else None
            ),
        },
    }


def _run_faulted_point(point: PointSpec, run_cfg: RunConfig) -> Measurement:
    """The availability-style execution path, engine choice included."""
    from repro.faults.mtbf import MTBFChurn
    from repro.faults.recovery import RetryPolicy, SourceRetry

    faults = point.faults
    env, engine, root = build_point(
        point.network, point.load, run_cfg, point.engine
    )
    label = point.network.label
    SourceRetry(
        engine,
        RetryPolicy(max_attempts=faults.max_attempts),
        root.fork(f"retry/{label}/{point.load}"),
    )
    if faults.rate > 0.0:
        mtbf = faults.mttr * (1.0 - faults.rate) / faults.rate
        MTBFChurn(
            env,
            engine.network,
            root.fork(f"faults/{label}/{point.load}"),
            mtbf=mtbf,
            mttr=faults.mttr,
            engine=engine,
            severity=faults.severity,
        )
    workload: Workload = point.workload.builder(run_cfg)(point.load)
    installed = workload.install(
        env, engine, root.fork(f"workload/{label}/{point.load}")
    )
    if installed == 0:
        raise RuntimeError("workload installed no traffic sources")
    engine.start()

    warmup_deadline = env.now + run_cfg.max_cycles / 4
    _run_until_delivered(engine, run_cfg.warmup_packets, warmup_deadline)
    window = MeasurementWindow(engine)
    window.begin()
    deadline = env.now + run_cfg.max_cycles
    _run_until_delivered(engine, run_cfg.measure_packets, deadline)
    return window.finish()
