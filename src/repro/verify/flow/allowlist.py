"""The documented allowlist of known-benign ambient sinks.

Every entry is a *justified exception* to the purity certificate: a
function that syntactically touches ambient state but provably cannot
change a cached payload.  The justification string is part of the
certificate output, so a reviewer (or a future PR's CI diff) sees
exactly what is being assumed and why.  Adding an entry without a
justification is impossible by construction -- the mapping value *is*
the justification.

Ground rules for new entries (enforced by review, surfaced by
``python -m repro.verify.flow --list-allowlist``):

* The sink must be **result-neutral**: it may abort a computation
  (deadline), observe it (heartbeat, logging) or pick an execution
  *path* that is proven result-identical (engine selection backed by
  the differential suite) -- it may never alter a completed payload.
* Prefer fixing the code over allowlisting it.  ``resolve_engine`` is
  allowlisted, for example, only because ``PointSpec.__post_init__``
  resolves the engine *before hashing*, so the environment can no
  longer influence a keyed point.
"""

from __future__ import annotations

from typing import Dict

#: Function qualname -> justification.  Kept sorted by qualname.
PURITY_ALLOWLIST: Dict[str, str] = {
    "repro.experiments.runner._check_point_deadline": (
        "wall-clock read drives the cooperative per-point deadline and "
        "heartbeat only; it can abort a run with PointTimeout (no payload "
        "is produced) but never alters a completed measurement"
    ),
    "repro.wormhole.engine.resolve_engine": (
        "reads REPRO_ENGINE only when no explicit engine is passed; "
        "PointSpec.__post_init__ resolves the engine before hashing, so "
        "every cache key pins its engine, and the differential suite "
        "proves fast == reference bit-identical anyway"
    ),
    "repro.wormhole.sanitizer.check_interval": (
        "reads REPRO_SANITIZE_EVERY to pace the opt-in invariant "
        "checker; check frequency can only change how often assertions "
        "run, never the simulated state they assert over"
    ),
    "repro.wormhole.sanitizer.sanitize_enabled": (
        "reads REPRO_SANITIZE to decide whether to install check-only "
        "invariant assertions; the differential suite proves sanitized "
        "and unsanitized runs byte-identical"
    ),
}
