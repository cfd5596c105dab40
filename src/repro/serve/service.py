"""The sweep-job service.

A :class:`SweepService` owns one :class:`~repro.serve.cache.ResultCache`
and serves :class:`~repro.serve.job.JobSpec` requests:

1. **canonicalize + dedupe** -- the spec's grid expands to points, each
   point canonicalizes to its content hash; duplicate points collapse
   to one computation and the manifest reports how many were folded;
2. **cache** -- every unique point is first looked up in the cache
   (corrupt entries quarantine themselves and read as misses);
3. **compute** -- the misses go to the supervised worker pool
   (:mod:`repro.serve.supervisor`); each point that completes is
   written to the cache *immediately* (atomic write-then-rename), so a
   crash at any instant loses at most the in-flight points;
4. **manifest** -- the job settles into a
   :class:`~repro.serve.job.JobManifest` naming every point's serving
   status; a degraded job (poisoned points, interrupted service) yields
   ``complete=False`` with an explicit ``incomplete`` list instead of
   an exception.

**Resume is free**: re-submitting the same spec (e.g. after SIGTERM)
re-canonicalizes to the same hashes and hits the cache for everything
that finished, recomputing only what was in flight.  There is no
separate journal to replay -- the content-addressed cache *is* the
checkpoint, for jobs and for :mod:`repro.experiments.parallel` sweeps
alike.

Usage::

    service = SweepService("cache/", job_root=Path("jobs/"))
    manifest = service.run_job_sync(spec)   # blocks until the job settles

:meth:`SweepService.request_stop` (signal-handler safe) winds a running
job down; the manifest it returns lists the unfinished points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.serve.cache import ResultCache
from repro.serve.compute import run_point_spec
from repro.serve.job import JobManifest, JobSpec, PointSpec, summarize_points
from repro.serve.supervisor import (
    PointOutcome,
    SupervisePolicy,
    WorkerSupervisor,
)


@dataclass
class SweepService:
    """Deduplicating, cache-backed, crash-tolerant sweep serving."""

    cache: Union[ResultCache, str, Path]
    policy: SupervisePolicy = SupervisePolicy()
    job_root: Optional[Path] = None       # manifests land here if set
    runner: Callable = run_point_spec     # picklable point executor
    progress: Optional[Callable[[int, int, str], None]] = None
    _supervisor: Optional[WorkerSupervisor] = field(default=None, repr=False)
    _stop: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.cache, ResultCache):
            self.cache = ResultCache(Path(self.cache))
        if self.job_root is not None:
            self.job_root = Path(self.job_root)

    # ------------------------------------------------------------- control

    def request_stop(self) -> None:
        """Wind the active job down gracefully (signal-handler safe).

        Finished points are already in the cache; the manifest written
        on the way out lists the rest as ``incomplete``.  Re-running
        the same spec resumes from exactly there.
        """
        self._stop = True
        sup = self._supervisor
        if sup is not None:
            sup.request_stop()

    # ----------------------------------------------------------------- run

    def run_job_sync(self, spec: JobSpec) -> JobManifest:
        """Serve one job to completion (or graceful degradation)."""
        t0 = time.monotonic()  # lint-sim: ignore[RPV002] -- harness timing, not sim state
        points = spec.points()

        # Canonicalize + dedupe: identical points collapse to one key.
        unique: dict[str, PointSpec] = {}
        for p in points:
            unique.setdefault(p.key(), p)
        statuses: dict[str, str] = {}
        errors: dict[str, str] = {}

        # Serve from the cache first (corruption reads as a miss).
        to_run = []
        for key, p in unique.items():
            if self.cache.get(key) is not None:
                statuses[key] = "cached"
            else:
                to_run.append((key, p))

        done_counter = {"n": len(statuses)}
        total = len(unique)

        def on_result(key: str, outcome: PointOutcome) -> None:
            # Called in the supervision thread the moment a point
            # settles: persist immediately -- this is the crash-
            # tolerance write barrier.
            if outcome.ok:
                self.cache.put(key, outcome.payload)
            done_counter["n"] += 1
            if self.progress is not None:
                self.progress(done_counter["n"], total, unique[key].label)

        supervisor_counters: dict = {}
        interrupted = False
        if to_run and not self._stop:
            sup = WorkerSupervisor(
                self.runner, self.policy, on_result=on_result,
            )
            self._supervisor = sup
            if self._stop:  # stop raced with construction
                sup.request_stop()
            try:
                report = sup.run(to_run)
            finally:
                self._supervisor = None
            for key, outcome in report.outcomes.items():
                if outcome.ok:
                    statuses[key] = "computed"
                elif outcome.status == "failed":
                    statuses[key] = "failed"
                    errors[key] = outcome.error or "failed"
                # "interrupted" points stay pending in the manifest.
            supervisor_counters = report.counters()
            interrupted = report.interrupted

        incomplete = sorted(
            key
            for key in unique
            if statuses.get(key) not in ("cached", "computed")
        )
        counts = {
            "requested": len(points),
            "unique": total,
            "deduplicated": len(points) - total,
            "cached": sum(1 for s in statuses.values() if s == "cached"),
            "computed": sum(1 for s in statuses.values() if s == "computed"),
            "failed": sum(1 for s in statuses.values() if s == "failed"),
            "pending": len(incomplete)
            - sum(1 for s in statuses.values() if s == "failed"),
        }
        manifest = JobManifest(
            job_id=spec.job_id,
            spec=spec.to_dict(),
            points=summarize_points(points, statuses, errors),
            counts=counts,
            complete=not incomplete,
            incomplete=incomplete,
            cache=self.cache.stats.to_dict(),
            supervisor={**supervisor_counters, "interrupted": interrupted},
            elapsed_s=time.monotonic() - t0,  # lint-sim: ignore[RPV002] -- harness timing, not sim state
        )
        if self.job_root is not None:
            manifest.write(self.manifest_path(spec))
        return manifest

    def manifest_path(self, spec: JobSpec) -> Path:
        """Where this spec's manifest lands (requires ``job_root``)."""
        if self.job_root is None:
            raise ValueError("service has no job_root configured")
        return self.job_root / f"{spec.job_id}.manifest.json"
