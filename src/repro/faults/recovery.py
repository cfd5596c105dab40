"""Source-side recovery: retry FAILED packets with exponential backoff.

Wormhole switching drops a worm when its header finds every next-hop
channel faulty (the engine's ``_abort``).  Real machines recover at the
source: the sender times the message out and re-injects it.
:class:`SourceRetry` implements exactly that as a subscriber of the
engine's telemetry bus (:mod:`repro.obs.bus`) -- it listens to the
*cold* packet-lifecycle kinds (``offer``/``deliver``/``abort``) only,
so installing recovery costs the per-flit hot loop nothing:

* every FAILED packet is re-offered after an exponential backoff
  (``base_delay * factor**attempt``, capped, with ± ``jitter``
  randomization to avoid retry synchronization);
* attempts are capped (``max_attempts`` total injections of the same
  message); a message that exhausts them is *dropped* --
  ``stats.dropped_packets`` counts these, the paper-level "permanent
  degradation" signal;
* optionally each injection carries a timeout: a packet neither
  delivered nor failed within ``attempt_timeout`` cycles is aborted
  through :meth:`~repro.wormhole.engine.WormholeEngine.abort_packet`
  and takes the same retry path (guards against worms parked behind a
  persistent fault front).

Every re-injection increments ``stats.retried_packets``, so the
degradation accounting flows into
:class:`~repro.metrics.collector.Measurement` without further wiring.

Bounded admission (:mod:`repro.stability.admission`) interacts with
recovery in two ways, both handled here:

* a **shed** message (cold ``shed`` bus kind, ``PacketState.SHED``) is
  a *deliberate* drop, not a failure -- its outcome settles as
  ``"shed"`` and it is never retried;
* a **refused** re-injection (blocking policy: ``engine.offer``
  returned None, or shed-newest dropped the clone at the door) counts
  as a used attempt and takes another backoff, so the retry layer
  backs off of a saturated source instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.packet import Packet, PacketState


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for source-side re-injection.

    ``max_attempts`` counts total injections (first try included), so
    ``max_attempts=1`` disables retries while keeping the accounting.
    """

    max_attempts: int = 5
    base_delay: float = 64.0      # cycles before the first retry
    factor: float = 2.0           # exponential growth per attempt
    max_delay: float = 4096.0     # backoff cap
    jitter: float = 0.25          # +- fraction randomized per retry
    attempt_timeout: float | None = None  # cycles per injection, None = off

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay <= 0 or self.factor < 1.0 or self.max_delay <= 0:
            raise ValueError("need base_delay > 0, factor >= 1, max_delay > 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def nominal_delay(self, attempt: int) -> float:
        """Jitter-free backoff before attempt number ``attempt`` (1-based).

        The deterministic core of :meth:`delay`; harness-side users
        with no simulation RNG (e.g. the sweep-service supervisor's
        re-dispatch scheduling, where delays are wall seconds rather
        than cycles) reuse exactly this schedule.
        """
        return min(self.base_delay * self.factor ** (attempt - 1), self.max_delay)

    def delay(self, attempt: int, rng: RandomStream) -> float:
        """Backoff before re-injection number ``attempt`` (1-based)."""
        raw = self.nominal_delay(attempt)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(raw, 1.0)


class SourceRetry:
    """Installs retry-with-backoff recovery onto a live engine.

    Usage::

        retry = SourceRetry(engine, RetryPolicy(), RandomStream(7))
        ... offer traffic, run ...
        retry.quiesce()          # drain including pending retries
        retry.delivered_ratio()  # unique messages eventually delivered

    The manager identifies a *message* by its first injection's pid and
    follows it across re-injections; :attr:`outcomes` maps that root pid
    to ``"delivered"``, ``"dropped"`` or ``"shed"`` once settled.
    """

    def __init__(
        self,
        engine: WormholeEngine,
        policy: RetryPolicy | None = None,
        rng: RandomStream | None = None,
    ) -> None:
        self.engine = engine
        self.env = engine.env
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = rng if rng is not None else RandomStream(0, name="retry")
        #: pid -> (root pid, attempts used so far for that message)
        self._attempts: dict[int, tuple[int, int]] = {}
        #: root pid -> final outcome ("delivered" | "dropped")
        self.outcomes: dict[int, str] = {}
        self.pending_retries = 0
        self.retried = 0
        self.dropped = 0
        self.recovered = 0  # delivered on attempt >= 2
        self._reoffering = False  # True inside _reinject's offer call
        # Cold-kind bus subscriber: offer/deliver/abort only, so the
        # per-flit hot path stays untaxed (bus.hot remains False).
        engine.bus.attach(self)

    # -- bus callbacks -----------------------------------------------------

    def on_offer(self, t: float, p: Packet) -> None:
        # Re-injections pre-register themselves; anything else is a
        # fresh message on its first attempt.
        self._attempts.setdefault(p.pid, (p.pid, 1))
        if self.policy.attempt_timeout is not None:
            self.env.call_later(self.policy.attempt_timeout, self._watchdog, p)

    def on_deliver(self, t: float, p: Packet) -> None:
        root, attempts = self._attempts.pop(p.pid, (p.pid, 1))
        if attempts > 1:
            self.recovered += 1
        self.outcomes[root] = "delivered"

    def on_abort(self, t: float, p: Packet) -> None:
        self._on_fail(p)

    def on_shed(self, t: float, p: Packet) -> None:
        # Deliberate admission drop: settle the outcome, never retry.
        # Shed-oldest victims were QUEUED packets registered at offer
        # time (possibly retry clones: pop maps them to their root);
        # shed-newest rejects never entered the queue and -- unless
        # they are the clone a _reinject call is offering right now,
        # whose fate that call settles itself -- are fresh messages
        # whose whole life is this one shed event.
        if p.pid in self._attempts:
            root, _ = self._attempts.pop(p.pid)
            self.outcomes[root] = "shed"
        elif not self._reoffering:
            self.outcomes[p.pid] = "shed"

    def _on_fail(self, p: Packet) -> None:
        self._retry_or_drop(p, *self._attempts.pop(p.pid, (p.pid, 1)))

    # -- timed callbacks ---------------------------------------------------

    def _retry_or_drop(self, p: Packet, root: int, attempts: int) -> None:
        if attempts >= self.policy.max_attempts:
            self.dropped += 1
            self.engine.stats.dropped_packets += 1
            self.outcomes[root] = "dropped"
            return
        self.pending_retries += 1
        self.env.call_later(
            self.policy.delay(attempts, self.rng), self._reinject, p, root, attempts
        )

    def _watchdog(self, p: Packet) -> None:
        if p.state in (PacketState.QUEUED, PacketState.ACTIVE):
            # Abort triggers _on_fail, which schedules the retry.
            self.engine.abort_packet(p)

    def _reinject(self, p: Packet, root: int, attempts: int) -> None:
        self.pending_retries -= 1
        self.retried += 1
        self.engine.stats.retried_packets += 1
        self._reoffering = True
        try:
            clone = self.engine.offer(p.src, p.dst, p.length)
        finally:
            self._reoffering = False
        if clone is None or clone.state is PacketState.SHED:
            # Bounded admission refused the re-injection (blocking
            # policy) or shed it at the door.  The attempt is spent.
            self._retry_or_drop(p, root, attempts + 1)
            return
        # _on_offer already registered attempt 1; overwrite with truth.
        self._attempts[clone.pid] = (root, attempts + 1)

    # -- reporting ---------------------------------------------------------

    def delivered_ratio(self) -> float:
        """Fraction of settled messages that ended delivered."""
        if not self.outcomes:
            return float("nan")
        done = sum(1 for o in self.outcomes.values() if o == "delivered")
        return done / len(self.outcomes)

    def quiesce(self, max_cycles: int = 1_000_000) -> None:
        """Drain the network *and* the retry pipeline.

        Unlike a bare :meth:`WormholeEngine.drain` this keeps running
        while backoff timers hold packets outside the network.
        """
        self.engine.drain(max_cycles, held=lambda: self.pending_retries)

    def __repr__(self) -> str:
        return (
            f"<SourceRetry retried={self.retried} dropped={self.dropped} "
            f"recovered={self.recovered} pending={self.pending_retries}>"
        )
