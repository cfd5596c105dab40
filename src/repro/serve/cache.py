"""Content-addressed result cache with integrity checksums.

Layout on disk (two-level fan-out keeps directories small at millions
of entries)::

    <root>/
      ab/
        ab3f...e1.json        # one entry per point hash
      quarantine/
        ab3f...e1.json.corrupt  # entries that failed verification

Each entry is an *envelope*::

    {"version": 1,
     "key": "<sha256 of the canonical point config>",
     "sha256": "<sha256 of payload_json(payload)>",
     "payload": {...}}

:meth:`ResultCache.get` re-canonicalizes the stored payload and
verifies the embedded checksum (and that the entry sits under its own
key), so silent bit-rot, torn writes and hand-edited entries are all
detected.  A bad entry is **quarantined** (moved aside, never deleted
-- forensics may want it) and reported as a miss, which makes the
caller transparently recompute; the rewrite then heals the cache.

Writes are write-temp-then-rename into the entry's final directory, so
a crash mid-write never leaves a torn entry under a valid name.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.serve.canonical import checksum, payload_json

ENTRY_VERSION = 1


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0   # entries quarantined during get()
    writes: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }


class CorruptEntry(ValueError):
    """A cache entry failed structural or checksum verification."""


@dataclass
class ResultCache:
    """Content-addressed point-result store under ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- layout

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        _validate_key(key)
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def __len__(self) -> int:
        """Number of (verified-or-not) entries currently on disk."""
        return sum(
            1
            for d in self.root.iterdir()
            if d.is_dir() and d.name != "quarantine"
            for _ in d.glob("*.json")
        )

    # ------------------------------------------------------------ get/put

    def get(self, key: str) -> Optional[dict]:
        """The verified payload for ``key``, or None (miss).

        A structurally invalid, checksum-mismatched or wrongly-keyed
        entry is moved to ``quarantine/`` and counted in
        ``stats.corrupt``; the call then reports a miss so the caller
        recomputes (and :meth:`put` heals the slot).
        """
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        try:
            payload = self._verify(key, raw)
        except CorruptEntry:
            self._quarantine(path)
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Persist ``payload`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = payload_json(payload)
        envelope = {
            "version": ENTRY_VERSION,
            "key": key,
            "sha256": checksum(body),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload_json(envelope))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.writes += 1
        return path

    # ------------------------------------------------------ verification

    def _verify(self, key: str, raw: str) -> dict:
        """Parse + integrity-check one envelope; raises CorruptEntry."""
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorruptEntry(f"unparseable entry: {exc}") from exc
        if not isinstance(envelope, dict):
            raise CorruptEntry("entry is not an object")
        if envelope.get("version") != ENTRY_VERSION:
            raise CorruptEntry(
                f"unknown entry version {envelope.get('version')!r}"
            )
        if envelope.get("key") != key:
            raise CorruptEntry(
                f"entry filed under {key} claims key {envelope.get('key')!r}"
            )
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise CorruptEntry("entry has no payload object")
        expected = envelope.get("sha256")
        actual = checksum(payload_json(payload))
        if actual != expected:
            raise CorruptEntry(
                f"payload checksum mismatch ({actual} != {expected})"
            )
        return payload

    def _quarantine(self, path: Path) -> Path:
        """Move a bad entry aside (never delete -- keep the evidence)."""
        qdir = self.quarantine_dir
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / f"{path.name}.corrupt"
        serial = 0
        while target.exists():
            serial += 1
            target = qdir / f"{path.name}.corrupt.{serial}"
        os.replace(path, target)
        return target


def _validate_key(key: str) -> None:
    if (
        not isinstance(key, str)
        or len(key) != 64
        or any(c not in "0123456789abcdef" for c in key)
    ):
        raise ValueError(f"not a sha256 content key: {key!r}")


def open_cache(root: Union[str, Path]) -> ResultCache:
    """Convenience constructor accepting a plain path string."""
    return ResultCache(Path(root))
