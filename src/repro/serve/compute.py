"""Executing one :class:`~repro.serve.job.PointSpec` to a cache payload.

This is the module workers import: :func:`run_point_spec` must be a
picklable module-level callable (it crosses the task queue), and its
output must be *canonically serializable* so a cached record is
byte-equal to a fresh recomputation (``tests/serve/test_cache.py``
proves this for every network on both engines).

Fault-free points go through the ordinary
:func:`repro.experiments.runner.run_point` path -- the same code the
figures use, so the service's answers are the repro's answers.  Faulted
points run the availability sweep's body,
:func:`repro.experiments.availability.faulted_point` (MTBF churn +
source retry), keyed by load and with the engine choice honored.
Every path shares the runner's point lifecycle.
"""

from __future__ import annotations

import math
from dataclasses import asdict

# Every module a PointSpec can reach is imported here, at module level:
# the service forks its workers from a parent that has imported this
# module, so a worker finds its whole closure loaded and compiles
# nothing.  ``repro.direct`` is what ``NetworkConfig.build`` reaches
# for the torus and mesh points.
import repro.direct  # noqa: F401
from repro.experiments.availability import faulted_point
from repro.experiments.config import RunConfig
from repro.experiments.runner import build_point, install_workload, measure, run_point, warm_up
from repro.experiments.stability import stability_point
from repro.faults.mtbf import MTBFChurn
from repro.faults.recovery import RetryPolicy
from repro.metrics.collector import measurement_to_dict
from repro.serve.job import PointSpec
from repro.stability.admission import BoundedQueue
from repro.transport.reliable import ReliableTransport, TransportConfig

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
        faults = point.faults
        workload = point.workload.builder(run_cfg)(point.load)
        policy = RetryPolicy(max_attempts=faults.max_attempts)
        measurement = faulted_point(
            point.network, point.load, run_cfg, workload,
            faults.rate, faults.mttr, policy, faults.severity, point.engine,
        ).measurement
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
            "steady": asdict(sp.steady),
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
        MTBFChurn.from_unavailability(
            env, engine.network, root.fork(f"faults/{label}/{point.load}"),
            faults.rate, faults.mttr, engine=engine, severity=faults.severity,
        )
    workload = point.workload.builder(run_cfg)(point.load)
    workload.transport = transport
    install_workload(engine, workload, root.fork(f"workload/{label}/{point.load}"))
    warm_up(engine, run_cfg)
    measurement, _ = measure(engine, run_cfg)
    ratio = transport.delivered_ratio()
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
            "delivered_ratio": None if math.isnan(ratio) else ratio,
        },
    }
