"""Multi-process offered-load sweeps, served by :mod:`repro.serve`.

Simulation points are pure functions of picklable configuration, so a
sweep -- or a whole figure's worth -- runs as one sweep-service job
(:meth:`repro.serve.SweepService.run_job_sync`), bit-identical to the
sequential runner:

    spec = WorkloadSpec(pattern="uniform")
    result = parallel_sweep(NetworkConfig("dmin"), spec, SCALED)

Sweeps therefore share the service's robustness: a point that raises
or whose worker dies (SIGKILL, OOM) is retried on a fresh worker; a
point that still fails comes back as ``LoadPoint(load, None,
error=...)`` while every other point is kept; identical points simulate
once; and ``cache=`` names a :class:`~repro.serve.ResultCache`
directory from which a re-run resumes, computing only missing points.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.experiments.config import NetworkConfig, RunConfig
from repro.experiments.runner import LoadPoint, SweepResult
from repro.experiments.workload_spec import WorkloadSpec
from repro.metrics.collector import measurement_from_dict, measurement_to_dict
from repro.wormhole.engine import resolve_engine

#: One point for a custom runner: (network, spec, load, run_cfg), where
#: ``run_cfg.seed`` is the point's seed.
PointTask = tuple[NetworkConfig, WorkloadSpec, float, RunConfig]

#: A picklable module-level callable mapping a task to its LoadPoint.
PointRunner = Callable[[PointTask], LoadPoint]

#: ``progress(done, total, label)``, called after every computed point
#: (e.g. a :class:`repro.obs.progress.ProgressMeter`).
ProgressFn = Callable[[int, int, str], None]


def _task_payload(point_runner: PointRunner, point) -> dict:
    """A :class:`PointRunner` as the service's ``PointSpec -> payload``
    runner."""
    from repro.serve.compute import PAYLOAD_VERSION

    run_cfg = point.run.with_seed(point.seed)
    lp = point_runner((point.network, point.workload, point.load, run_cfg))
    return {
        "version": PAYLOAD_VERSION,
        "measurement": measurement_to_dict(lp.measurement),
    }


def parallel_sweep(
    network: NetworkConfig,
    spec: WorkloadSpec,
    run_cfg: RunConfig,
    loads: Optional[Sequence[float]] = None,
    label: Optional[str] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    cache: Union[None, str, Path] = None,
    point_runner: Optional[PointRunner] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Offered-load sweep of one network: :func:`parallel_matrix` with a
    single row, labelled ``label`` when given."""
    (result,) = parallel_matrix(
        [network], spec, run_cfg, loads, max_workers, timeout, retries,
        cache, point_runner, progress,
    )
    return result if label is None else dataclasses.replace(result, label=label)


def parallel_matrix(
    networks: Sequence[NetworkConfig],
    spec: WorkloadSpec,
    run_cfg: RunConfig,
    loads: Optional[Sequence[float]] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    cache: Union[None, str, Path] = None,
    point_runner: Optional[PointRunner] = None,
    progress: Optional[ProgressFn] = None,
) -> list[SweepResult]:
    """Every (network, load) point of a comparison as one service job.

    ``max_workers`` defaults to the CPU count.  ``timeout`` seconds is
    both the cooperative per-point deadline and the heartbeat age at
    which a wedged worker is killed.  ``retries`` extra attempts follow
    the supervisor's backoff.  ``cache`` defaults to a temporary
    directory.  ``SweepResult.dispatch`` is the manifest's ``counts``.
    """
    # repro.serve imports repro.experiments, so it loads on first use.
    from repro.serve import SweepService
    from repro.serve.compute import run_point_spec
    from repro.serve.job import JobSpec
    from repro.serve.supervisor import DEFAULT_RETRY, SupervisePolicy

    job = JobSpec(
        networks=tuple(networks),
        run=run_cfg,
        workload=spec,
        loads=tuple(loads) if loads is not None else run_cfg.loads,
        seeds=(run_cfg.seed,),
        engine=resolve_engine(None),
    )
    policy = SupervisePolicy(
        workers=max_workers or os.cpu_count() or 1,
        retry=dataclasses.replace(DEFAULT_RETRY, max_attempts=1 + retries),
        point_timeout=timeout,
        stall_after=SupervisePolicy.stall_after if timeout is None else timeout,
    )
    runner = (
        run_point_spec if point_runner is None
        else functools.partial(_task_payload, point_runner)
    )
    if cache is None:
        root = tempfile.TemporaryDirectory(prefix="repro-sweep-")
    else:
        root = nullcontext(cache)
    with root as cache_dir:
        service = SweepService(
            cache_dir, policy=policy, runner=runner, progress=progress,
        )
        manifest = service.run_job_sync(job)
        points = []
        for entry in manifest.points:
            payload = service.cache.get(entry["key"])
            if payload is None:
                error = entry.get("error", f"point {entry['status']}")
                points.append(LoadPoint(entry["load"], None, error=error))
            else:
                measurement = measurement_from_dict(payload["measurement"])
                points.append(LoadPoint(entry["load"], measurement))

    width = len(job.effective_loads)
    return [
        SweepResult(
            f"{network.label} / {spec.label}",
            tuple(points[i * width:(i + 1) * width]),
            dispatch=manifest.counts,
        )
        for i, network in enumerate(job.networks)
    ]
