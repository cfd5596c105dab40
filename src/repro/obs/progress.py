"""Live progress heartbeat for long sweeps.

A :class:`ProgressMeter` is a callable ``meter(done, total, label)``
that the sweep service invokes after every computed point, with the
point's label (see :class:`repro.serve.SweepService` and
:func:`repro.experiments.parallel.parallel_sweep`).  It prints a
throttled one-line heartbeat to stderr -- completed/total, percentage,
points/minute, and an ETA -- so multi-hour sweeps are observable without
tailing the result cache.

Wall-clock reads here are harness-side only (they never feed back into
the simulation), hence the RPV002 lint exemptions.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


def _fmt_eta(seconds: float) -> str:
    """``1h02m`` / ``4m30s`` / ``12s`` rendering of a duration."""
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(round(seconds))}s"


class HeartbeatSlot:
    """One worker's liveness slot in a shared heartbeat array.

    The sweep service's supervisor allocates one ``multiprocessing``
    double array for its pool; each worker owns index ``index`` and
    writes ``time.monotonic()`` into it via :meth:`beat` -- from the
    simulation loop's cooperative check
    (:func:`repro.experiments.runner.set_point_heartbeat`), so a beat
    costs one float store every ``_CHUNK`` sim-cycles.  The supervisor
    reads :meth:`age` to separate a *slow* point (recent beat) from a
    *wedged* worker (stale beat), which is what decides killing and
    re-dispatching.  ``CLOCK_MONOTONIC`` is system-wide on the
    platforms we run on, so parent and child timestamps compare
    directly.
    """

    def __init__(self, array, index: int) -> None:
        self.array = array
        self.index = index

    def beat(self) -> None:
        """Record liveness now (the owning worker, or the supervisor
        as it hands that worker a point)."""
        self.array[self.index] = time.monotonic()  # lint-sim: ignore[RPV002] -- harness liveness, not sim state

    def last(self) -> float:
        """The slot's last beat instant (0.0 = never beaten)."""
        return self.array[self.index]

    def age(self) -> float:
        """Seconds since the last beat (inf if never beaten)."""
        at = self.array[self.index]
        if at <= 0.0:
            return float("inf")
        return time.monotonic() - at  # lint-sim: ignore[RPV002] -- harness liveness, not sim state


class ProgressMeter:
    """Throttled stderr heartbeat: call with ``(done, total, label)``.

    Parameters
    ----------
    interval:
        Minimum wall seconds between printed lines (the final
        ``done == total`` line always prints).
    stream:
        Output stream; defaults to ``sys.stderr`` so heartbeats never
        contaminate piped CSV/JSON on stdout.
    """

    def __init__(
        self,
        interval: float = 5.0,
        stream: Optional[IO[str]] = None,
        prefix: str = "progress",
    ) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.interval = interval
        self.stream = stream if stream is not None else sys.stderr
        self.prefix = prefix
        self.lines_printed = 0
        self._t0 = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness heartbeat, not sim state
        self._last_print = -float("inf")

    def __call__(self, done: int, total: int, label: str = "") -> None:
        now = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness heartbeat, not sim state
        final = total > 0 and done >= total
        if not final and now - self._last_print < self.interval:
            return
        self._last_print = now
        elapsed = now - self._t0
        rate = done / elapsed * 60.0 if elapsed > 0 else 0.0
        if total > 0:
            pct = 100.0 * done / total
            eta = (total - done) / (done / elapsed) if done and elapsed > 0 else 0.0
            line = (
                f"[{self.prefix}] {done}/{total} ({pct:.0f}%) "
                f"{rate:.1f} pts/min elapsed {_fmt_eta(elapsed)} "
                f"eta {_fmt_eta(eta)}"
            )
        else:
            line = (
                f"[{self.prefix}] {done} done "
                f"{rate:.1f} pts/min elapsed {_fmt_eta(elapsed)}"
            )
        if label:
            line += f" -- {label}"
        print(line, file=self.stream, flush=True)
        self.lines_printed += 1
