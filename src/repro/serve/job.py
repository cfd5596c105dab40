"""Job, point and manifest records of the sweep service.

A :class:`JobSpec` names a whole sweep grid (networks x loads x seeds,
one workload, one fidelity preset, one engine, optional fault model).
It expands into :class:`PointSpec` records -- one per simulation point
-- each of which canonicalizes into the content-addressed cache key of
:mod:`repro.serve.canonical`.  A finished (or interrupted) job is
described by a :class:`JobManifest`: the per-point serving status
(``cached`` / ``computed`` / ``failed`` / ``pending``), dedupe and
cache counters, and an explicit ``incomplete`` list when the job was
degraded rather than failed wholesale.

Everything here is plain data: picklable (points cross process
boundaries), JSON-able (specs arrive as files, manifests leave as
files), and deterministic (the same spec always expands to the same
points in the same order).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments.config import PRESETS, NetworkConfig, RunConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.serve.canonical import canonical_value, config_hash
from repro.stability.admission import ADMISSION_MODES, SHED_NEWEST
from repro.traffic.workload import MessageSizeModel
from repro.transport.reliable import TransportConfig
from repro.wormhole.engine import resolve_engine
from repro.wormhole.network import NetworkKind

#: Per-point serving statuses a manifest can record.
POINT_STATUSES = ("cached", "computed", "failed", "pending")

#: Canonical defaults of a stability-config mapping.  ``batches``
#: mirrors :data:`repro.experiments.stability.DEFAULT_BATCHES`;
#: ``capacity``/``mode`` mirror the :class:`BoundedQueue` defaults.
STABILITY_DEFAULTS = {
    "batches": 32,
    "capacity": 128,
    "governed": True,
    "mode": SHED_NEWEST,
    "watchdog": True,
}


def validate_stability(raw: Optional[dict]) -> Optional[dict]:
    """Normalize a stability-config mapping to its canonical form.

    A stability point runs through the overload toolkit
    (:func:`repro.experiments.stability.stability_point`): bounded
    admission (``capacity``/``mode``), optional AIMD governor
    (``governed``), optional progress watchdog + retry (``watchdog``),
    and a ``batches``-sample steady-state series.  Defaults are made
    explicit here so two spellings of the same configuration can never
    hash to different cache keys.  (No cached stability payloads
    predate this normalization: before it, any non-None ``stability``
    refused to run.)
    """
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError(
            f"stability must be a mapping or None, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - set(STABILITY_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown stability key(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(STABILITY_DEFAULTS))}"
        )
    cfg = {**STABILITY_DEFAULTS, **raw}
    cfg["batches"] = int(cfg["batches"])
    cfg["capacity"] = int(cfg["capacity"])
    cfg["governed"] = bool(cfg["governed"])
    cfg["mode"] = str(cfg["mode"])
    cfg["watchdog"] = bool(cfg["watchdog"])
    if cfg["batches"] < 8:
        raise ValueError("stability batches must be >= 8 (classifiable series)")
    if cfg["capacity"] < 1:
        raise ValueError("stability admission capacity must be >= 1")
    if cfg["mode"] not in ADMISSION_MODES:
        raise ValueError(
            f"unknown admission mode {cfg['mode']!r}; "
            f"valid: {', '.join(ADMISSION_MODES)}"
        )
    return dict(sorted(cfg.items()))


#: Canonical defaults of a transport-config mapping; mirror
#: :class:`repro.transport.TransportConfig` exactly (pinned by test).
TRANSPORT_DEFAULTS = {
    "window": 4,
    "max_window": 32,
    "ai_step": 1,
    "rto_base": 256.0,
    "rto_factor": 2.0,
    "rto_max": 8192.0,
    "jitter": 0.25,
    "max_attempts": 8,
    "ack_length": 4,
    "ack_delay": 4.0,
}

_TRANSPORT_INT_KEYS = ("window", "max_window", "ai_step", "max_attempts",
                       "ack_length")
_TRANSPORT_FLOAT_KEYS = ("rto_base", "rto_factor", "rto_max", "jitter",
                         "ack_delay")


def validate_transport(raw: Optional[dict]) -> Optional[dict]:
    """Normalize a transport-config mapping to its canonical form.

    A transport point runs the end-to-end reliability layer
    (:class:`repro.transport.ReliableTransport`) instead of raw source
    injection; defaults are made explicit here so two spellings of the
    same configuration can never hash to different cache keys, and the
    value set is validated eagerly by constructing the
    :class:`~repro.transport.TransportConfig` itself.
    """
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError(
            f"transport must be a mapping or None, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - set(TRANSPORT_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown transport key(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(TRANSPORT_DEFAULTS))}"
        )
    cfg = {**TRANSPORT_DEFAULTS, **raw}
    for k in _TRANSPORT_INT_KEYS:
        cfg[k] = int(cfg[k])
    for k in _TRANSPORT_FLOAT_KEYS:
        cfg[k] = float(cfg[k])
    TransportConfig(**cfg)  # field-level validation, one place
    return dict(sorted(cfg.items()))

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class FaultSpec:
    """Optional fault model of a point (the cache key's ``faults`` part).

    Mirrors the availability sweep's wiring: MTBF channel churn at a
    target per-channel unavailability ``rate`` with mean-time-to-repair
    ``mttr``, plus exponential-backoff source retry capped at
    ``max_attempts`` injections per message.
    """

    rate: float
    mttr: float = 500.0
    severity: str = "hard"
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("fault rate is an unavailability fraction in [0, 1)")
        if self.severity not in ("soft", "hard"):
            raise ValueError("severity must be 'soft' or 'hard'")
        if self.mttr <= 0 or self.max_attempts < 1:
            raise ValueError("need mttr > 0 and max_attempts >= 1")


@dataclass(frozen=True)
class PointSpec:
    """One content-addressed simulation point.

    ``run.seed`` and ``run.loads`` are *ignored* -- the point's own
    ``seed`` and ``load`` fields are authoritative, so a preset's
    incidental defaults never split the cache.  ``stability`` selects
    the overload-toolkit execution path: a canonical mapping validated
    by :func:`validate_stability` (admission capacity/mode, governor,
    watchdog, batch count) that routes the point through
    :func:`repro.experiments.stability.stability_point` and adds a
    ``stability`` block to the payload.  ``transport`` likewise selects
    the end-to-end reliability path (:func:`validate_transport`):
    sources send through :class:`repro.transport.ReliableTransport`,
    optionally combined with ``faults`` (the loss storm the transport
    exists to survive) -- but not with ``stability``, whose toolkit
    wiring owns the sources itself.
    """

    network: NetworkConfig
    workload: WorkloadSpec
    load: float
    seed: int
    run: RunConfig
    engine: str = "fast"
    faults: Optional[FaultSpec] = None
    stability: Optional[dict] = None
    transport: Optional[dict] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "load", float(self.load))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        object.__setattr__(
            self, "stability", validate_stability(self.stability)
        )
        object.__setattr__(
            self, "transport", validate_transport(self.transport)
        )
        if self.stability is not None and self.faults is not None:
            raise ValueError(
                "a point cannot combine stability and faults: the "
                "overload toolkit path has no fault-injection wiring"
            )
        if self.stability is not None and self.transport is not None:
            raise ValueError(
                "a point cannot combine stability and transport: the "
                "overload toolkit owns the sources itself"
            )

    def config(self) -> dict:
        """The canonical configuration mapping this point hashes over."""
        out = {
            # NetworkConfig.canonical() (not the generic expansion):
            # it omits the direct-only fields for MIN kinds, keeping
            # every pre-direct point key byte-stable.
            "network": self.network.canonical(),
            # WorkloadSpec.canonical() likewise omits the arrival
            # fields at their Poisson defaults.
            "workload": self.workload.canonical(),
            "run": {
                "warmup_packets": self.run.warmup_packets,
                "measure_packets": self.run.measure_packets,
                "max_cycles": self.run.max_cycles,
                "sizes": canonical_value(self.run.sizes),
            },
            "load": self.load,
            "seed": self.seed,
            "engine": self.engine,
            "faults": canonical_value(self.faults) if self.faults else None,
            "stability": (
                canonical_value(self.stability) if self.stability else None
            ),
        }
        # Emitted only when set so every pre-transport key stays
        # byte-stable (same precedent as JobSpec.to_dict's stability).
        if self.transport is not None:
            out["transport"] = canonical_value(self.transport)
        return out

    def key(self) -> str:
        """SHA-256 content address of this point's configuration."""
        return config_hash(self.config())

    @property
    def label(self) -> str:
        return (
            f"{self.network.label}/{self.workload.label}"
            f"@{self.load:g}#s{self.seed}"
        )

    def describe(self) -> dict:
        """The manifest's per-point identity block."""
        return {
            "network": self.network.label,
            "workload": self.workload.label,
            "load": self.load,
            "seed": self.seed,
            "engine": self.engine,
            "faults": canonical_value(self.faults) if self.faults else None,
        }


@dataclass(frozen=True)
class JobSpec:
    """A whole sweep request: networks x loads x seeds, one workload."""

    networks: tuple[NetworkConfig, ...]
    run: RunConfig
    workload: WorkloadSpec = WorkloadSpec()
    loads: tuple[float, ...] = ()   # empty -> run.loads
    seeds: tuple[int, ...] = ()     # empty -> (run.seed,)
    engine: str = "fast"
    faults: Optional[FaultSpec] = None
    stability: Optional[dict] = None
    transport: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.networks:
            raise ValueError("a job needs at least one network")
        object.__setattr__(self, "networks", tuple(self.networks))
        object.__setattr__(
            self, "loads", tuple(float(x) for x in self.loads)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not isinstance(self.engine, str):
            raise ValueError(f"unknown engine {self.engine!r}")
        # Never None here, so the environment is not consulted.
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        object.__setattr__(
            self, "stability", validate_stability(self.stability)
        )
        object.__setattr__(
            self, "transport", validate_transport(self.transport)
        )

    @property
    def effective_loads(self) -> tuple[float, ...]:
        return self.loads or self.run.loads

    @property
    def effective_seeds(self) -> tuple[int, ...]:
        return self.seeds or (self.run.seed,)

    def points(self) -> list[PointSpec]:
        """Expand the grid (duplicates preserved -- the service dedupes
        and reports them, so the requester sees the redundancy).

        The workload's geometry follows each network (one workload
        spec serves a grid of mixed-size networks), so its ``k``/``n``
        fields are replaced per point.
        """
        return [
            PointSpec(
                network=network,
                workload=dataclasses.replace(
                    self.workload, k=network.k, n=network.n
                ),
                load=load,
                seed=seed,
                run=self.run,
                engine=self.engine,
                faults=self.faults,
                stability=self.stability,
                transport=self.transport,
            )
            for network in self.networks
            for load in self.effective_loads
            for seed in self.effective_seeds
        ]

    @property
    def job_id(self) -> str:
        """Short stable identifier: hash prefix of the canonical spec."""
        return config_hash(self.to_dict())[:12]

    def to_dict(self) -> dict:
        out = {
            "networks": [n.canonical() for n in self.networks],
            "workload": self.workload.canonical(),
            "run": {
                "mode": self.run.name,
                "warmup_packets": self.run.warmup_packets,
                "measure_packets": self.run.measure_packets,
                "max_cycles": self.run.max_cycles,
                "sizes": canonical_value(self.run.sizes),
                "seed": self.run.seed,
            },
            "loads": list(self.effective_loads),
            "seeds": list(self.effective_seeds),
            "engine": self.engine,
            "faults": canonical_value(self.faults) if self.faults else None,
        }
        # Emitted only when set so plain jobs keep their pre-stability
        # (and pre-transport) job_ids (the id hashes this mapping).
        if self.stability is not None:
            out["stability"] = canonical_value(self.stability)
        if self.transport is not None:
            out["transport"] = canonical_value(self.transport)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "JobSpec":
        """Parse a job spec from its JSON form.

        ``run`` may be a preset name (``{"run": {"mode": "smoke"}}`` or
        simply ``"smoke"``) or a full field mapping; network/workload
        entries are keyword mappings of their dataclasses, so omitted
        fields take the canonical defaults.
        """
        nets_raw = raw.get("networks")
        if isinstance(nets_raw, (str, bytes)) or not isinstance(
            nets_raw, (list, tuple)
        ):
            raise ValueError(
                "spec field 'networks' must be a list of kind names or "
                f"field mappings, got {nets_raw!r}"
            )
        networks = tuple(
            NetworkConfig(**n) if isinstance(n, dict) else NetworkConfig(str(n))
            for n in nets_raw
        )
        for net in networks:
            NetworkKind(net.kind)  # fail fast, before any dispatch
        workload = WorkloadSpec(**raw.get("workload", {}))
        run = _run_from_dict(raw.get("run", "scaled"))
        faults_raw = raw.get("faults")
        faults = FaultSpec(**faults_raw) if faults_raw else None
        return cls(
            networks=networks,
            run=run,
            workload=workload,
            loads=tuple(raw.get("loads", ())),
            seeds=tuple(raw.get("seeds", ())),
            engine=raw.get("engine", "fast"),
            faults=faults,
            stability=raw.get("stability"),
            transport=raw.get("transport"),
        )

    @classmethod
    def read(cls, path: Union[str, Path]) -> "JobSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _run_from_dict(raw: Union[str, dict]) -> RunConfig:
    if isinstance(raw, str):
        return PRESETS[raw]
    raw = dict(raw)
    mode = raw.pop("mode", None)
    base = PRESETS[mode] if mode else PRESETS["scaled"]
    sizes = raw.pop("sizes", None)
    if sizes is not None:
        raw["sizes"] = MessageSizeModel(**sizes)
    if not raw:
        return base
    return dataclasses.replace(base, **raw)


# ----------------------------------------------------------------- manifest


@dataclass
class JobManifest:
    """What one job run actually served, point by point."""

    job_id: str
    spec: dict
    points: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    complete: bool = False
    incomplete: list[str] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    supervisor: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "job_id": self.job_id,
            "spec": self.spec,
            "points": self.points,
            "counts": self.counts,
            "complete": self.complete,
            "incomplete": self.incomplete,
            "cache": self.cache,
            "supervisor": self.supervisor,
            "elapsed_s": self.elapsed_s,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Atomic write-temp-then-rename persistence (crash-safe)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.to_dict(), fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "JobManifest":
        raw = json.loads(Path(path).read_text())
        if raw.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unknown manifest version {raw.get('version')!r}")
        return cls(
            job_id=raw["job_id"],
            spec=raw["spec"],
            points=raw["points"],
            counts=raw["counts"],
            complete=raw["complete"],
            incomplete=list(raw["incomplete"]),
            cache=raw["cache"],
            supervisor=raw.get("supervisor", {}),
            elapsed_s=raw.get("elapsed_s", 0.0),
        )

    def statuses(self) -> dict[str, int]:
        """Status -> point count tally over the manifest."""
        tally = {s: 0 for s in POINT_STATUSES}
        for entry in self.points:
            tally[entry["status"]] = tally.get(entry["status"], 0) + 1
        return tally


def summarize_points(
    points: Sequence[PointSpec],
    statuses: dict[str, str],
    errors: Optional[dict[str, str]] = None,
) -> list[dict]:
    """Manifest ``points`` entries for an expanded grid.

    ``statuses`` maps point key -> status; ``errors`` maps key -> error
    string for failed points.  Duplicate grid entries share their key's
    status (they were served by the same cache entry).
    """
    errors = errors or {}
    out = []
    for p in points:
        key = p.key()
        entry = {"key": key, **p.describe()}
        entry["status"] = statuses.get(key, "pending")
        if key in errors:
            entry["error"] = errors[key]
        out.append(entry)
    return out
