"""The resilient sweep service (:mod:`repro.serve`).

Turns the experiment runner into a serving layer: sweep jobs are
canonicalized into content-addressed simulation points, deduplicated,
answered from a checksummed on-disk result cache when possible, and
computed by a supervised pool of worker processes when not.  The whole
pipeline is crash-tolerant end to end -- workers may be SIGKILLed,
cache entries may be corrupted, and the service itself may be SIGTERMed
mid-job; a restart resumes from the cache and loses at most the
in-flight points.

Layers (each importable on its own):

* :mod:`repro.serve.canonical` -- canonical JSON form + SHA-256 config
  hashing (key-order / whitespace / default-materialization invariant);
* :mod:`repro.serve.cache` -- content-addressed result cache with
  per-entry integrity checksums, atomic writes and corruption
  quarantine;
* :mod:`repro.serve.job` -- :class:`PointSpec` / :class:`JobSpec` /
  :class:`JobManifest` records and their (de)serialization;
* :mod:`repro.serve.supervisor` -- heartbeat-supervised worker pool
  with retry/backoff and poison-point quarantine;
* :mod:`repro.serve.service` -- the synchronous job service tying it
  all together (``python -m repro.serve`` is the CLI front).
"""

from repro.serve.cache import CacheStats, ResultCache, open_cache
from repro.serve.canonical import canonical_json, canonical_value, config_hash
from repro.serve.compute import run_point_spec
from repro.serve.export import manifest_rows, write_manifest_csv
from repro.serve.job import FaultSpec, JobManifest, JobSpec, PointSpec
from repro.serve.service import SweepService
from repro.serve.supervisor import (
    PointOutcome,
    SupervisePolicy,
    SupervisorReport,
    WorkerSupervisor,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "open_cache",
    "canonical_json",
    "canonical_value",
    "config_hash",
    "run_point_spec",
    "manifest_rows",
    "write_manifest_csv",
    "FaultSpec",
    "JobManifest",
    "JobSpec",
    "PointSpec",
    "SweepService",
    "PointOutcome",
    "SupervisePolicy",
    "SupervisorReport",
    "WorkerSupervisor",
]
