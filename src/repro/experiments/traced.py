"""Run one simulation point with the observability subsystem attached.

:func:`run_traced_point` runs the point lifecycle of
:func:`repro.experiments.runner.run_point` -- same seeds, same
warmup/measure protocol, bit-identical
:class:`~repro.metrics.collector.Measurement` -- but opens an
:class:`~repro.obs.session.ObsSession` aligned with the measurement
window.  The sinks attach between warm-up and the window, in the
cycle the window opens, so the contention
ledgers, latency histograms, and (optionally) the Perfetto trace cover
precisely the cycles the measurement summarizes: the per-channel busy
intervals in the exported trace sum to that channel's reported
utilization by construction.

    measurement, obs = run_traced_point(CUBE_DMIN, spec, 0.8, SMOKE,
                                        trace=True)
    print(obs.report())
    obs.write_trace("point.json")
"""

from __future__ import annotations

from typing import Optional, Union

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import (
    WorkloadBuilder,
    build_point,
    install_workload,
    measure,
    warm_up,
)
from repro.experiments.workload_spec import WorkloadSpec
from repro.metrics.collector import Measurement
from repro.obs.session import ObsSession


def run_traced_point(
    network: NetworkConfig,
    workload: Union[WorkloadSpec, WorkloadBuilder],
    offered_load: float,
    run_cfg: RunConfig,
    trace: bool = False,
    bucket: float = 256.0,
    engine: Optional[str] = None,
) -> tuple[Measurement, ObsSession]:
    """One measured point plus its (closed) observability session.

    ``workload`` accepts either a picklable
    :class:`~repro.experiments.workload_spec.WorkloadSpec` or a raw
    workload-builder closure.  ``trace=True`` additionally records a
    Perfetto timeline (memory scales with flits moved; keep to
    smoke/scaled configs).  The returned session is finished and
    detached -- query or export it freely.
    """
    builder: WorkloadBuilder
    if isinstance(workload, WorkloadSpec):
        builder = workload.builder(run_cfg)
    else:
        builder = workload

    _, sim_engine, root = build_point(network, offered_load, run_cfg, engine)
    install_workload(
        sim_engine,
        builder(offered_load),
        root.fork(f"workload/{network.label}/{offered_load}"),
    )
    warm_up(sim_engine, run_cfg)
    # Attach at the window boundary so the observation and measurement
    # windows coincide (utilization == busy-interval sums by definition).
    obs = ObsSession(sim_engine, trace=trace, bucket=bucket)
    measurement, _ = measure(sim_engine, run_cfg)
    obs.close()
    return measurement, obs
