"""Runtime progress watchdog: deadlock vs. livelock vs. congestion.

The engine's one runtime progress monitor (``engine.watchdog``).  It
tells three states apart and can *recover*:

* **deadlock** -- packets in flight and the whole fabric frozen for
  ``deadlock_after`` consecutive cycles.  Nothing will ever move again
  without intervention.
* **livelock / starvation** -- the fabric moves flits (other worms
  progress) but some worm's own progress signature has not changed for
  ``stall_age`` cycles: it is parked behind a persistent occupancy it
  will not outlive on its own (an adversarial stream holding its only
  next-hop channel, a fault front, a starved allocation).
* **congestion** -- worms stall briefly but every one of them advances
  within ``stall_age``; the watchdog records nothing and touches
  nothing.  Post-saturation queueing is *supposed* to look like this.

Recovery (``recover=True``, the default) aborts the flagged worm
through :meth:`~repro.wormhole.engine.WormholeEngine.abort_packet` --
flits flushed, lanes released, ``failed`` hooks fired -- so a
source-side retry layer (:class:`repro.faults.recovery.SourceRetry`)
re-injects it with backoff exactly like a fault casualty; the message
is delayed, not lost.  With ``recover=False`` the watchdog is a pure
classifier: stall events are recorded and published (cold ``stall``
bus kind) and a *deadlock* raises
:class:`~repro.wormhole.engine.DeadlockError` naming the held channels.

Progress is sampled every ``check_every`` cycles from a per-worm
signature ``(lanes acquired, head-lane flits sent, flits delivered)``
-- pure end-of-cycle engine state, so the watchdog's decisions are
bit-identical across the fast and reference engine paths
(``tests/differential``).  A worm in the fast path's free-run
fast-forward mode is progressing *by construction* (that is what the
mode means) and is exempted without reading its (deliberately stale)
lane counters.

Overhead when armed: one Python call per cycle plus an
O(in-flight-worms) sweep every ``check_every`` cycles; the
benchmark suite's ``ablation.watchdog`` rows (``benchmarks/suite``,
``--trace``) measure it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wormhole.engine import DeadlockError, WormholeEngine
from repro.wormhole.packet import Packet

#: Watchdog verdicts.
DEADLOCK = "deadlock"
LIVELOCK = "livelock"
CONGESTION = "congestion"


@dataclass(frozen=True)
class StallEvent:
    """One watchdog intervention (or observation, with recovery off)."""

    t: float          # sim time of the check that flagged it
    pid: int          # the flagged worm
    age: int          # cycles without progress when flagged
    verdict: str      # DEADLOCK | LIVELOCK
    recovered: bool   # True when the worm was aborted for re-injection


class ProgressWatchdog:
    """Attaches to a live engine; see module docs.

    Parameters
    ----------
    check_every:
        Sampling cadence in cycles.  Signatures, ages, and verdicts
        only change at multiples of this, so it also quantizes
        ``stall_age`` / ``deadlock_after``.
    stall_age:
        Cycles a worm's signature may sit unchanged while the fabric
        moves before it is flagged LIVELOCK.  Size it well above the
        worst legitimate blocking spell (a maximum-length worm holding
        a channel end to end) or congestion will be misread.
    deadlock_after:
        Consecutive zero-progress cycles (packets in flight, nothing
        moving anywhere) before the fabric is declared DEADLOCK.
    recover:
        True aborts flagged worms (one per check) for source-side
        re-injection; False observes only -- livelocks are recorded,
        deadlock raises :class:`DeadlockError`.
    """

    def __init__(
        self,
        engine: WormholeEngine,
        check_every: int = 64,
        stall_age: int = 4096,
        deadlock_after: int = 1024,
        recover: bool = True,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if stall_age < check_every:
            raise ValueError("stall_age must be >= check_every")
        if deadlock_after < 1:
            raise ValueError("deadlock_after must be >= 1")
        self.engine = engine
        self.check_every = check_every
        self.stall_age = stall_age
        self.deadlock_after = deadlock_after
        self.recover = recover
        #: pid -> (signature, cycle the signature last changed).
        self._sig: dict[int, tuple[object, int]] = {}
        #: pids already flagged this stall episode (observe-only mode
        #: records each episode once, not once per check).
        self._flagged: set[int] = set()
        self._no_progress = 0
        self.events: list[StallEvent] = []
        self.aborted = 0
        self.deadlocks = 0
        self.livelocks = 0

    # -- engine hook (called once per cycle) -------------------------------

    def on_cycle(self, engine: WormholeEngine) -> None:
        """Per-cycle tick; cheap unless this is a sampling cycle."""
        if engine._progressed or engine._active_packets == 0:
            self._no_progress = 0
        else:
            self._no_progress += 1
        c = engine.cycles_run
        if c % self.check_every == 0:
            self._check(engine, c)

    # -- the sampled check -------------------------------------------------

    def _check(self, engine: WormholeEngine, c: int) -> None:
        if engine._active_packets == 0:
            if self._sig:
                self._sig.clear()
                self._flagged.clear()
            return
        worms = engine.in_flight_packets()
        sig = self._sig
        seen = set()
        for p in worms:
            pid = p.pid
            seen.add(pid)
            if p._lz_base >= 0:
                # Free-running fast-forward: progressing by definition
                # (its lane counters are deliberately stale -- do not
                # read them).  ``c`` differs every check, so the entry
                # always refreshes, mirroring the reference engine
                # where the same worm's counters visibly advance.
                s: object = c
            else:
                lanes = p.lanes
                if lanes:
                    head = lanes[-1]
                    s = (
                        len(lanes),
                        head.sent if head.owner is p else -1,
                        p.delivered_flits,
                    )
                else:
                    s = (0, -1, p.delivered_flits)
            prev = sig.get(pid)
            if prev is None or prev[0] != s:
                sig[pid] = (s, c)
                self._flagged.discard(pid)
        if len(sig) > len(seen):
            for pid in list(sig):
                if pid not in seen:
                    del sig[pid]
                    self._flagged.discard(pid)

        if self._no_progress >= self.deadlock_after:
            # Total standstill: classic wormhole deadlock (or a fault
            # configuration with every escape cut).  Break the cycle by
            # sacrificing the oldest worm -- deterministic, and the one
            # whose resources the most others are waiting behind.
            victim = min(worms, key=_victim_key)
            age = self._no_progress
            self.deadlocks += 1
            if self.recover:
                self._abort(engine, victim, age, DEADLOCK)
            else:
                self._record(engine, victim, age, DEADLOCK, recovered=False)
                raise DeadlockError(engine._deadlock_report(age))
            return

        # Fabric-wide progress exists; look for individually starved
        # worms (livelock).  One intervention per check keeps recovery
        # gentle -- the next sample handles the next-worst victim.
        worst: Packet | None = None
        worst_age = self.stall_age - 1
        for p in worms:
            pid = p.pid
            age = c - sig[pid][1]
            if age > worst_age or (
                worst is not None and age == worst_age and pid < worst.pid
            ):
                if pid in self._flagged:
                    continue
                worst = p
                worst_age = age
        if worst is None:
            return  # mere congestion: every worm advanced recently
        self.livelocks += 1
        if self.recover:
            self._abort(engine, worst, worst_age, LIVELOCK)
        else:
            self._flagged.add(worst.pid)
            self._record(engine, worst, worst_age, LIVELOCK, recovered=False)

    # -- interventions -----------------------------------------------------

    def _record(
        self,
        engine: WormholeEngine,
        p: Packet,
        age: int,
        verdict: str,
        recovered: bool,
    ) -> None:
        now = engine.env.now
        self.events.append(StallEvent(now, p.pid, age, verdict, recovered))
        if engine.bus.enabled:
            engine.bus.publish_stall(now, p, age, verdict)

    def _abort(
        self, engine: WormholeEngine, p: Packet, age: int, verdict: str
    ) -> None:
        self._record(engine, p, age, verdict, recovered=True)
        engine.stats.stall_aborted_packets += 1
        self.aborted += 1
        engine.abort_packet(p)
        self._sig.pop(p.pid, None)
        self._flagged.discard(p.pid)

    def __repr__(self) -> str:
        return (
            f"<ProgressWatchdog aborted={self.aborted} "
            f"deadlocks={self.deadlocks} livelocks={self.livelocks} "
            f"tracking={len(self._sig)}>"
        )


def _victim_key(p: Packet) -> tuple[float, int]:
    return (p.created, p.pid)
