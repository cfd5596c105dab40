"""The two-phase cycle engine driving a simulated wormhole network.

Each simulation cycle (= the time to move one flit across one channel;
0.05 us at the paper's 20 flits/us):

* **Phase A (allocation)** -- in random order (the paper's asynchronous
  switches), every header waiting at a switch input tries to acquire a
  lane for its next hop: the tag-determined channel (TMIN), a random
  free lane of the tag-determined port (DMIN dilated lanes / VMIN
  virtual channels), or a random free forward channel / the
  deterministic turnaround & backward channel (BMIN).  Nodes whose FCFS
  queue is non-empty start injecting when their injection channel
  frees.
* **Phase B (advance)** -- every busy physical channel, processed in
  the network's ``topo_channels`` order, transmits at most one flit
  (round-robin over its ready lanes, so active virtual channels share
  the wire's bandwidth equally).  On the four MINs that order is
  downstream-first, so a full pipeline moves every flit of a worm one
  hop per cycle -- the paper's synchronized worm transmission.  The
  direct mesh/torus order (delivery channels, then fabric lanes by
  descending dimension and ascending source node, injection last) is
  not downstream-first along a route; see ``docs/topologies.md``.
  The fast tier runs one sweep on every fabric: it visits only the
  channels whose lanes can act, and on the MINs moves the lanes behind
  a worm's newest one in a walk upstream from it, which the
  downstream-first order makes exact (see
  :meth:`WormholeEngine._phase_advance_fast`).

The engine runs inside a :class:`repro.sim.Environment`: a clock process
steps cycles, fast-forwarding across idle gaps, while workload processes
call :meth:`WormholeEngine.offer` to submit messages.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Optional

from repro.obs.bus import EventBus
from repro.sim.core import Environment
from repro.sim.rng import PrefetchStream, RandomStream
from repro.wormhole.channel import PhysChannel
from repro.wormhole.ledger import FAR, FreeRunLedger
from repro.wormhole.network import SimNetwork
from repro.wormhole.packet import Packet, PacketState
from repro.wormhole.sanitizer import Sanitizer, sanitize_enabled

#: Channel bandwidth in the paper's units; one cycle is 1/20 us.
FLITS_PER_MICROSECOND = 20.0

#: Recognised engine paths: the optimized default (span-sleep clock,
#: one pure-Python free-run ledger, prefetched allocation stream) and
#: the simple reference implementation the differential suite
#: certifies it against (one kernel wake per cycle, stdlib draws).
#: Both are bit-identical in every simulation observable.  The retired
#: ``batch`` tier (``fast`` with a numpy-mirrored allocation stream)
#: survives as an alias of ``fast`` in :func:`resolve_engine`.
ENGINE_KINDS = ("fast", "reference")

#: Sort key for the fast path's active channel list.
_TOPO_ORDER = attrgetter("topo_order")


#: Sort key of a free-run action bucket: (channel topo key, action
#: kind).  Kind breaks the tie when one channel's move both drains the
#: upstream buffer (0) and crosses a tail (1) or delivers (2) -- the
#: reference sweep performs them in exactly that order within the move.
_ACT_KEY = itemgetter(0, 1)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the engine-path choice against the ``REPRO_ENGINE`` env var.

    Explicit arguments win; otherwise ``REPRO_ENGINE`` (set e.g. by
    ``python -m repro.experiments --engine=reference``) picks the tier,
    and the default is ``"fast"``.  ``"batch"`` is an alias of
    ``"fast"``, so it resolves -- and a
    :class:`~repro.serve.job.PointSpec` hashes it -- as ``"fast"``.
    The environment variable -- not a thread-local or global -- is the
    carrier so the choice survives into child processes unchanged;
    :func:`repro.experiments.parallel.parallel_matrix` resolves it once
    and records the tier in its sweep-service job.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "") or "fast"
    if engine == "batch":
        engine = "fast"
    if engine not in ENGINE_KINDS:
        raise ValueError(f"engine must be one of {ENGINE_KINDS}, got {engine!r}")
    return engine


class DeadlockError(RuntimeError):
    """Raised by an observe-only progress watchdog
    (:class:`repro.stability.ProgressWatchdog` with ``recover=False``):
    packets in flight but zero progress.

    The paper's four networks cannot reach this state (feed-forward /
    acyclic turnaround dependencies); the watchdog protects users who
    wire custom topologies through :class:`repro.wormhole.network.SimNetwork`.
    """


@dataclass
class DeliveryRecord:
    """Immutable facts about one delivered packet."""

    pid: int
    src: int
    dst: int
    length: int
    created: float
    inject_start: float
    delivered_at: float

    @property
    def latency(self) -> float:
        """Creation to tail delivery, in cycles (queueing included)."""
        return self.delivered_at - self.created

    @property
    def network_latency(self) -> float:
        """Injection start to tail delivery, in cycles."""
        return self.delivered_at - self.inject_start


@dataclass
class EngineStats:
    """Counters the engine maintains; resettable at warmup boundaries."""

    offered_packets: int = 0
    offered_flits: int = 0
    delivered_packets: int = 0
    delivered_flits: int = 0
    failed_packets: int = 0
    #: Failed packets re-injected by a recovery layer (see
    #: :mod:`repro.faults.recovery`; the engine only hosts the counter).
    retried_packets: int = 0
    #: Failed packets a recovery layer gave up on (attempts exhausted).
    dropped_packets: int = 0
    #: Messages dropped by a bounded-admission policy (shed-newest /
    #: shed-oldest; see :mod:`repro.stability.admission`).
    shed_packets: int = 0
    #: Offers refused outright by the *block* admission policy (the
    #: source holds the message and retries -- backpressure).
    throttled_packets: int = 0
    #: Worms aborted by the progress watchdog (livelock / deadlock
    #: recovery; see :mod:`repro.stability.watchdog`).  These also
    #: count in ``failed_packets`` (the abort path is shared).
    stall_aborted_packets: int = 0
    #: Data segments re-offered by the end-to-end transport layer
    #: (see :mod:`repro.transport`; the engine only hosts the counter).
    retransmitted_packets: int = 0
    #: Transport retransmission timers that fired before an ack.
    rto_fires: int = 0
    #: Duplicate data arrivals suppressed by the transport receiver.
    dup_acks: int = 0
    #: Transport flows that exhausted max_attempts and were aborted.
    flows_aborted: int = 0
    #: Acknowledgement packets offered by the transport layer (these
    #: also count in ``offered_packets``/``delivered_packets``).
    ack_packets: int = 0
    #: Flits of *first-time* end-to-end deliveries (excludes duplicate
    #: data and ack traffic) -- goodput, vs. raw ``delivered_flits``.
    goodput_flits: int = 0
    max_queue_len: int = 0
    records: list[DeliveryRecord] = field(default_factory=list)
    window_start: float = 0.0

    def reset_window(self, now: float) -> None:
        """Start a fresh measurement window (keeps nothing)."""
        self.offered_packets = 0
        self.offered_flits = 0
        self.delivered_packets = 0
        self.delivered_flits = 0
        self.failed_packets = 0
        self.retried_packets = 0
        self.dropped_packets = 0
        self.shed_packets = 0
        self.throttled_packets = 0
        self.stall_aborted_packets = 0
        self.retransmitted_packets = 0
        self.rto_fires = 0
        self.dup_acks = 0
        self.flows_aborted = 0
        self.ack_packets = 0
        self.goodput_flits = 0
        self.max_queue_len = 0
        self.records = []
        self.window_start = now


class WormholeEngine:
    """Simulates one network instance under an externally offered load."""

    def __init__(
        self,
        env: Environment,
        network: SimNetwork,
        rng: Optional[RandomStream] = None,
        sanitize: Optional[bool] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.rng = rng if rng is not None else RandomStream(0, name="engine")
        self.stats = EngineStats()
        #: The engine tier (one of :data:`ENGINE_KINDS`; None defers to
        #: ``REPRO_ENGINE``).  ``fast`` runs the optimized per-cycle
        #: phases (cached blocked headers; one sweep over an active
        #: channel list with parked worms and following lanes left off
        #: it; free-run ledger) under the span-sleep clock, with
        #: the allocation stream served by a
        #: :class:`~repro.sim.rng.PrefetchStream`; the reference tier
        #: runs the straightforward phases one cycle per kernel wake on
        #: the stdlib stream.  Both make bit-identical decisions -- see
        #: ``tests/differential``.
        self.fast = resolve_engine(engine) == "fast"
        if self.fast:
            self.rng = PrefetchStream.adopt(self.rng)
        #: Count of pending headers holding a blocked-decision cache.
        #: When it covers the whole routing queue, Phase A's scan is
        #: provably a no-op beyond the service-order shuffle (the
        #: all-blocked exit).  Wakes, grants and aborts keep it exact;
        #: it is never reset wholesale.
        self._blk_valid = 0
        #: Deferred service-order shuffles.  An all-blocked cycle's
        #: shuffle permutes ``_pending_route`` but nothing reads the
        #: order until the next full allocation scan -- and while every
        #: header is blocked and nothing is moving, the queue's
        #: membership cannot change either.  So quiet cycles bump this
        #: counter instead of drawing, and :meth:`_flush_shuffles`
        #: replays the exact draws (``RandomStream.shuffle_k``) right
        #: before the next order-observing shuffle or scan.
        self._shuffle_debt = 0
        #: Cycles the span-sleep clock credited without executing them
        #: (observability only; see :class:`repro.obs.KernelProfiler`).
        self.cycles_skipped = 0
        #: Times the channel sweep parked a blocked worm (observability
        #: only; see :meth:`_park`).
        self.worms_parked = 0
        #: Flits moved by following lanes, and channel-sweep visits
        #: (``len(_active)`` summed over sweeps); observability only,
        #: see :meth:`_phase_advance_fast`.
        self.lanes_followed = 0
        self.sweep_visits = 0
        #: Fisher-Yates draws of the service-order shuffle
        #: (``len(pending) - 1`` per cycle, a deferred cycle counted
        #: when it is owed, so both tiers agree at every cycle
        #: boundary) and full allocation scans (all-blocked exits
        #: excluded); observability only.
        self.shuffle_draws = 0
        self.alloc_scans = 0
        #: Channels with at least one owned lane, in reverse-topological
        #: order, but for the wires of free-running, parked and following
        #: lanes (fast path's working set for Phase B).
        self._active: list[PhysChannel] = []
        #: channel -> [(wake token, packet)] registrations of blocked
        #: headers waiting for one of its lanes to free (fast path).
        self._waiters: dict[PhysChannel, list[tuple[int, Packet]]] = {}
        #: Free-run fast-forward ledger: the due actions the sweep's
        #: action merge replays, and the span horizon.
        self._ledger = FreeRunLedger()
        #: The ledger's live free-running worms (truthy while any
        #: stream; progress/watchdog accounting).
        self._lazy_live = self._ledger.live
        #: Free-run (the ledger plus span sleep) needs no slowed wire
        #: (per-channel cooldown is channel-sweep bookkeeping).  Any
        #: channel order will do: a streaming worm's buffers settle
        #: into the pattern that order sets (see :meth:`_enter_lazy`).
        #: Only worms whose every held wire is solo free-run (see
        #: :meth:`_enter_solo`).
        self._free_run = all(
            ch.slowdown == 1 for ch in network.topo_channels
        )
        #: No wire carries a second lane, so no round robin couples
        #: the worms (the TMIN/DMIN/BMIN and the direct fabrics).
        self._single_lane = single_lane = all(
            len(ch.lanes) == 1 for ch in network.topo_channels
        )
        #: The channel sweep parks blocked, compressed worms (see
        #: :meth:`_park`) where a visit to a wire with no ready lane
        #: changes nothing: no slowed wire counts visits down, and no
        #: round robin shares a wire (the TMIN/DMIN/BMIN and the direct
        #: fabrics).
        self._parking = self._free_run and single_lane
        #: The channel sweep lets body lanes alone on their wire follow
        #: (see :meth:`_phase_advance_fast`) where it visits every
        #: route downstream first (``worm_phase_ok``; the direct
        #: fabrics' routes defy the channel order) and no slowed wire
        #: counts visits down: the four MINs.
        self._following = self._free_run and network.worm_phase_ok
        #: Set by every following sweep; a hot sink attaching then puts
        #: the followers back on ``_active`` (:meth:`_rejoin_followers`).
        self._followed = False
        #: node -> injection channel, resolved once (fast path).
        self._inj = [
            network.injection_channel(i) for i in range(network.N)
        ]
        #: injection channel -> its node (release-site reverse lookup).
        self._node_of_inj: dict[PhysChannel, int] = {
            ch: node for node, ch in enumerate(self._inj)
        }
        #: Backlogged nodes whose injection channel can act this cycle:
        #: lane free (inject) or channel faulty (drain the queue).
        #: Maintained by :meth:`offer`, the fast path's release sites
        #: and injection-channel fault flips; the fast Phase A visits
        #: only these instead of scanning every backlogged node.
        self._inj_ready: set[int] = set()
        #: Channels whose fault state flipped since the last Phase A
        #: (the network's ``FaultEpoch.flips`` log, which only a fast
        #: engine keeps; the reference tier reads ``faulty`` live).
        self._flips: Optional[list[PhysChannel]] = [] if self.fast else None
        network.fault_epoch.flips = self._flips
        #: Opt-in runtime invariant checker (REPRO_SANITIZE=1, or the
        #: explicit ``sanitize=True``); None costs nothing per cycle.
        self.sanitizer = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        if sanitize:
            self.sanitizer = Sanitizer(network)
        #: The sweep may hand delivering worms on solo wires to the
        #: ledger (no hot sink either): the sanitizer reads the lane
        #: counters free-run leaves stale, so it switches this off.
        self._solo = self._free_run and self.sanitizer is None
        #: The structured telemetry bus every state change publishes
        #: into (see :mod:`repro.obs.bus`).  With no sinks attached the
        #: hot path pays one hoisted flag read per cycle, nothing more.
        self.bus = EventBus()
        #: Set whenever a cycle moves a flit or grants a lane; the
        #: progress watchdog reads it to tell standstill from traffic.
        self._progressed = False
        #: Optional bounded-admission policy consulted by :meth:`offer`
        #: (any object with ``capacity`` and ``decide(engine, src)``;
        #: see :mod:`repro.stability.admission`).  None -- the default,
        #: and the paper's model -- grows source queues without bound.
        self.admission = None
        #: Optional runtime progress monitor called once per cycle
        #: (see :class:`repro.stability.watchdog.ProgressWatchdog`).
        #: None costs one ``is`` test per cycle.
        self.watchdog = None

        self.queues: list[deque[Packet]] = [deque() for _ in range(network.N)]
        #: Nodes with a non-empty queue (avoids scanning all N each cycle).
        self._backlogged: set[int] = set()
        self._pending_route: list[Packet] = []
        self._active_packets = 0
        self._next_pid = 0
        self.cycles_run = 0
        self._clock_started = False
        self._wakeup = None  # event the idle clock sleeps on, if any

    # -- workload interface ---------------------------------------------------

    def offer(self, src: int, dst: int, length: int) -> Optional[Packet]:
        """Submit a message at the current simulation time (FCFS queue).

        With :attr:`admission` unset (the default) the message is
        always queued and the engine behaves exactly as the paper
        models it.  With a bounded-admission policy installed and the
        source queue at capacity, the policy decides:

        * ``"block"`` -- the offer is refused; returns None and counts
          in ``stats.throttled_packets`` (the caller should hold the
          message and retry: backpressure);
        * ``"shed-newest"`` -- the new message is dropped; returns the
          packet in :attr:`~repro.wormhole.packet.PacketState.SHED`
          state and counts in ``stats.shed_packets``;
        * ``"shed-oldest"`` -- the head of the source queue is shed to
          make room and the new message is admitted normally.

        Shed packets are *not* failures: they never publish ``abort``
        bus events (a recovery layer must not retry a deliberate
        load-shedding drop); they publish the cold ``shed`` kind
        instead.
        """
        adm = self.admission
        if adm is not None and len(self.queues[src]) >= adm.capacity:
            decision = adm.decide(self, src)
            if decision == "block":
                self.stats.throttled_packets += 1
                if self.bus.enabled:
                    self.bus.publish_throttle(self.env.now, src)
                return None
            if decision == "shed-newest":
                p = Packet(
                    self._next_pid, src, dst, length, created=self.env.now
                )
                self._next_pid += 1
                p.state = PacketState.SHED
                self.stats.shed_packets += 1
                if self.bus.enabled:
                    self.bus.publish_shed(self.env.now, p)
                return p
            if decision != "shed-oldest":
                raise ValueError(
                    f"unknown admission decision {decision!r} "
                    "(expected 'block', 'shed-newest' or 'shed-oldest')"
                )
            victim = self.queues[src].popleft()
            victim.state = PacketState.SHED
            self.stats.shed_packets += 1
            if self.bus.enabled:
                self.bus.publish_shed(self.env.now, victim)
        p = Packet(self._next_pid, src, dst, length, created=self.env.now)
        self._next_pid += 1
        self.queues[src].append(p)
        self._backlogged.add(src)
        inj = self._inj[src]
        if inj.lanes[0].owner is None or inj.faulty:
            self._inj_ready.add(src)
        if self._wakeup is not None:
            self._wakeup.succeed()
            self._wakeup = None
        self.stats.offered_packets += 1
        self.stats.offered_flits += length
        qlen = len(self.queues[src])
        if qlen > self.stats.max_queue_len:
            self.stats.max_queue_len = qlen
        if self.bus.enabled:
            self.bus.publish_offer(self.env.now, p)
        return p

    @property
    def idle(self) -> bool:
        """No packet in the network and no packet queued."""
        return self._active_packets == 0 and not self._backlogged

    @property
    def in_flight(self) -> int:
        """Packets currently inside the network (not queued, not done)."""
        return self._active_packets

    def queue_length(self, node: int) -> int:
        """Messages waiting in one node's FCFS source queue."""
        return len(self.queues[node])

    def in_flight_packets(self) -> list[Packet]:
        """Distinct packets currently inside the network (diagnostics).

        Collected from lane ownership plus the header-routing queue; a
        packet whose every acquired lane has already been released (a
        short worm blocked at its last switch) appears only in the
        latter.
        """
        seen: dict[int, Packet] = {}
        for ch in self.network.topo_channels:
            if ch.owned_count == 0:
                continue
            for lane in ch.lanes:
                if lane.owner is not None:
                    seen.setdefault(lane.owner.pid, lane.owner)
        for p in self._pending_route:
            if p.state is PacketState.ACTIVE:
                seen.setdefault(p.pid, p)
        return list(seen.values())

    # -- the cycle -------------------------------------------------------------

    def step_cycle(self) -> None:
        """Run one cycle: allocation, then flit advance."""
        self._progressed = False
        if self.fast:
            self._phase_allocate_fast()
            self._phase_advance_fast()
        else:
            self._phase_allocate()
            self._phase_advance()
        self.cycles_run += 1
        if self.sanitizer is not None:
            self.sanitizer.check_cycle(self)
        if self.watchdog is not None:
            self.watchdog.on_cycle(self)

    def _deadlock_report(self, stalled_cycles: int) -> str:
        """Diagnostic message for the watchdog (custom-topology debugging)."""
        stalled = self.in_flight_packets()
        header = (
            f"{self._active_packets} packets in flight made no progress "
            f"for {stalled_cycles} cycles at t={self.env.now} "
            f"({len(stalled)} stalled worms)"
        )
        if stalled:
            oldest = min(stalled, key=lambda p: p.created)
            if oldest.lanes:
                last = oldest.lanes[-1]
                where = (
                    f"holding {len(oldest.lanes)} lanes, head at "
                    f"{last.channel.label}.{last.index} "
                    f"(hop {last.route_idx}, sent {last.sent}/{oldest.length})"
                )
            else:
                where = "holding no lanes (header awaiting first allocation)"
            header += (
                f"; oldest: pkt#{oldest.pid} {oldest.src}->{oldest.dst} "
                f"len={oldest.length} created t={oldest.created} {where}"
            )
        held = ", ".join(
            f"{ch.label}(pkt#{lane.owner.pid})"
            for ch in self.network.topo_channels
            for lane in ch.lanes
            if lane.owner is not None
        )
        return f"{header}; held channels: {held}"

    def _phase_allocate(self) -> None:
        # Hoist the bus's hot flag once per cycle: with no hot sink
        # attached, every per-packet publish site below reduces to one
        # local ``is not None`` check.
        bus = self.bus
        obs = bus if bus.hot else None
        # Start injections: one-port nodes begin transmitting the next
        # queued message once their single injection lane frees.
        # Sorted order (not raw set order) keeps the cycle reproducible
        # independent of set-internal layout -- and identical between
        # the fast and reference paths.
        if self._backlogged:
            drained = []
            for node in sorted(self._backlogged):
                inj = self.network.injection_channel(node)
                if inj.faulty:
                    # The node is cut off: every queued message dies.
                    while self.queues[node]:
                        p = self.queues[node].popleft()
                        p.state = PacketState.FAILED
                        self.stats.failed_packets += 1
                        if bus.enabled:
                            bus.publish_abort(self.env.now, p)
                    drained.append(node)
                    continue
                lane = inj.lanes[0]
                if lane.owner is not None:
                    continue
                p = self.queues[node].popleft()
                p.state = PacketState.ACTIVE
                p.inject_start = self.env.now
                self.network.prepare(p)
                lane.acquire(p)
                self._active_packets += 1
                self._progressed = True
                if obs is not None:
                    obs.publish_inject(self.env.now, p)
                    obs.publish_acquire(self.env.now, p, inj, lane.index)
                if not self.queues[node]:
                    drained.append(node)
            for node in drained:
                self._backlogged.discard(node)

        if not self._pending_route:
            return
        # Random service order models switches acting asynchronously.
        self.rng.shuffle(self._pending_route)
        self.shuffle_draws += len(self._pending_route) - 1
        self.alloc_scans += 1
        still_pending = []
        for p in self._pending_route:
            if p.state is not PacketState.ACTIVE or not p.needs_route:
                # Aborted externally (abort_packet / a hard fault) while
                # its header sat in the routing queue: drop the entry.
                continue
            candidates = self.network.candidates(p)
            usable = [ch for ch in candidates if not ch.faulty]
            if not usable:
                # Every possible next hop is faulty: the route is dead.
                # Kill the worm and reclaim its channels and buffers
                # (the paper's fault-tolerance motivation: a unique-path
                # network cannot survive this; DMIN/BMIN rarely get here).
                self._abort(p)
                continue
            free = [lane for ch in usable for lane in ch.lanes if lane.owner is None]
            if not free:
                if obs is not None:
                    obs.publish_block(self.env.now, p, usable)
                still_pending.append(p)
                continue
            if len(free) == 1:
                lane = free[0]
            else:
                # Networks may bias adaptive choices (e.g. the BMIN
                # "properly chosen forward channel" experiment); the
                # default returns None -> uniform random, the paper's
                # policy.
                lane = self.network.preferred_lane(p, free, self.rng)
                if lane is None:
                    lane = self.rng.choice(free)
            lane.acquire(p)
            self.network.advance(p, lane.channel)
            p.needs_route = False
            self._progressed = True
            if obs is not None:
                obs.publish_acquire(self.env.now, p, lane.channel, lane.index)
        self._pending_route = still_pending

    def _phase_advance(self) -> None:
        pending = self._pending_route
        bus = self.bus
        obs = bus if bus.hot else None
        now = self.env.now
        for ch in self.network.topo_channels:
            if ch.owned_count == 0:
                continue
            lane = ch.transmit()
            if lane is None:
                continue
            self._progressed = True
            p = lane.owner
            assert p is not None
            if obs is not None:
                obs.publish_transmit(now, ch, lane)
            if ch.is_delivery:
                if lane.sent == p.length:
                    lane.release()
                    if obs is not None:
                        obs.publish_release(now, p, ch, lane.index)
                    self._finalize(p)
            else:
                if lane.sent == 1 and lane.route_idx == len(p.lanes) - 1:
                    # Header just reached the next switch input buffer.
                    p.needs_route = True
                    pending.append(p)
                if lane.sent == p.length:
                    lane.release()
                    if obs is not None:
                        obs.publish_release(now, p, ch, lane.index)

    # -- the fast path ---------------------------------------------------------
    #
    # The two methods below make *exactly* the decisions of the
    # reference phases above -- same RNG draws in the same order, same
    # bus events, same stats -- but avoid the two scans that dominate
    # the reference cost: recomputing routing candidates for headers
    # that are provably still blocked (Phase A), and visiting every
    # channel of the network when only a few are busy (Phase B).
    # ``tests/differential`` certifies the equivalence end to end.

    def _flush_shuffles(self) -> None:
        """Replay deferred all-blocked service-order shuffles.

        Debt only accrues while the routing queue's membership is
        provably frozen (every header blocked with a valid cache,
        nothing moving, nothing injecting), so replaying the postponed
        Fisher-Yates passes now -- via
        :meth:`~repro.sim.rng.RandomStream.shuffle_k` -- consumes
        exactly the draws the per-cycle shuffles would have, in order.
        """
        debt = self._shuffle_debt
        if debt:
            self._shuffle_debt = 0
            pending = self._pending_route
            if len(pending) > 1:
                self.rng.shuffle_k(pending, debt)

    def _phase_allocate_fast(self) -> None:
        """Phase A with cached blocked headers and active-list upkeep.

        Invariants relied on:

        * A header that found no free lane stays blocked until a lane
          of one of its usable candidate channels is *released* (lanes
          only free via ``Lane.release``) or one of its candidates
          flips fault state (which alters the usable set itself).  The
          header registers on every candidate, and both events wake it
          via :meth:`_wake_waiters`: releases at once, flips when this
          phase drains the network's flip log.
        * The header's candidate set is a pure function of its routing
          state, which does not change while it is blocked -- so the
          cached ``usable`` list republished to the bus is identical
          to what the reference path would recompute.
        * Blocked headers stay in ``_pending_route`` (the cycle's
          shuffle must see the same list in both paths) and consume no
          randomness either way.
        """
        bus = self.bus
        obs = bus if bus.hot else None
        active = self._active
        now = self.env.now
        flips = self._flips
        if flips:
            # Fault flips since the last cycle.  A flip changes only
            # the usable set of the headers listing that channel, and
            # only the node whose injection channel it is can be cut
            # off (or reconnected): wake and re-arm exactly those,
            # as a release of the channel would.
            for ch in flips:
                self._lane_freed(ch)
            flips.clear()
        if self._inj_ready:
            # Exactly the backlogged nodes the reference scan would act
            # on: a node with an owned, healthy injection lane does
            # nothing there, and stays off this set until the release
            # site (or a new offer, or a fault flip) re-arms it.  Every
            # visited node leaves the set: it injects (lane now owned),
            # drains (queue now empty), or was stale.
            ready = sorted(self._inj_ready)
            self._inj_ready.clear()
            backlogged = self._backlogged
            queues = self.queues
            inj_of = self._inj
            for node in ready:
                if node not in backlogged:
                    continue  # stale: queue emptied externally
                inj = inj_of[node]
                if inj.faulty:
                    # The node is cut off: every queued message dies.
                    while queues[node]:
                        p = queues[node].popleft()
                        p.state = PacketState.FAILED
                        self.stats.failed_packets += 1
                        if bus.enabled:
                            bus.publish_abort(now, p)
                    backlogged.discard(node)
                    continue
                lane = inj.lanes[0]
                if lane.owner is not None:
                    continue
                p = queues[node].popleft()
                p.state = PacketState.ACTIVE
                p.inject_start = now
                self.network.prepare(p)
                lane.acquire(p)
                if not inj.in_active:
                    inj.in_active = True
                    insort(active, inj, key=_TOPO_ORDER)
                self._active_packets += 1
                self._progressed = True
                if obs is not None:
                    obs.publish_inject(now, p)
                    obs.publish_acquire(now, p, inj, lane.index)
                if not queues[node]:
                    backlogged.discard(node)

        if not self._pending_route:
            return
        if self._blk_valid == len(self._pending_route) and obs is None:
            # Every pending header holds a blocked cache:
            # the scan below would take the cache-hit exit for each one
            # and rebuild the same list.  The service-order shuffle is
            # the scan's only remaining observable (RNG draws), and
            # with nothing moving the queue's membership is frozen too
            # -- so the draw itself is deferred (shuffle debt) and
            # replayed verbatim before the next order-observing scan.
            # (With a hot bus sink the per-header block events must
            # still be published, so the full scan runs.)
            self.shuffle_draws += len(self._pending_route) - 1
            if active:
                # A head lane on the sweep may append a new header this
                # cycle: settle the debt and draw this cycle's shuffle
                # for real.
                if self._shuffle_debt:
                    self._flush_shuffles()
                if len(self._pending_route) > 1:
                    self.rng.shuffle(self._pending_route)
            elif len(self._pending_route) > 1:
                self._shuffle_debt += 1
            return
        # Random service order models switches acting asynchronously.
        # (A one-element Fisher-Yates draws nothing, so skipping the
        # call outright consumes the identical RNG stream.)
        if self._shuffle_debt:
            self._flush_shuffles()
        if len(self._pending_route) > 1:
            self.rng.shuffle(self._pending_route)
        self.shuffle_draws += len(self._pending_route) - 1
        self.alloc_scans += 1
        still_pending = []
        sp_append = still_pending.append
        ACTIVE_ = PacketState.ACTIVE
        for p in self._pending_route:
            # Cache-hit fast exit first: a non-None ``_blk_usable``
            # *implies* an ACTIVE header still waiting to route (wakes
            # and aborts clear the cache), and no candidate was
            # released or flipped since the cached decision -- the
            # usable list and the empty free set both still hold.
            usable = p._blk_usable
            if usable is not None:
                if obs is not None:
                    obs.publish_block(now, p, usable)
                sp_append(p)
                continue
            if p.state is not ACTIVE_ or not p.needs_route:
                # Aborted externally while its header sat in the
                # routing queue: drop the entry.
                continue
            candidates = self.network.candidates(p)
            usable = [ch for ch in candidates if not ch.faulty]
            if not usable:
                # Every possible next hop is faulty: the route is dead.
                self._abort(p)
                continue
            free = [
                lane for ch in usable for lane in ch.lanes if lane.owner is None
            ]
            if not free:
                # Cache the decision and register on every candidate:
                # a release of a usable one, or a flip of any one, is
                # what can change it.
                p._blk_usable = usable
                self._blk_valid += 1
                token = p._blk_token
                waiters = self._waiters
                for ch in candidates:
                    lst = waiters.get(ch)
                    if lst is None:
                        waiters[ch] = [(token, p)]
                    else:
                        lst.append((token, p))
                head = p.lanes[-1]
                hch = head.channel
                if not hch.in_active and head.owner is p and not p._parked:
                    # The header arrived in the last sweep, which took
                    # its lane off the list (``_following``): park the
                    # worm, or list that lane again so that the sweep
                    # walks the followers behind it.
                    if not (self._parking and self._park(p)):
                        hch.in_active = True
                        insort(active, hch, key=_TOPO_ORDER)
                if obs is not None:
                    obs.publish_block(now, p, usable)
                sp_append(p)
                continue
            if len(free) == 1:
                lane = free[0]
            else:
                lane = self.network.preferred_lane(p, free, self.rng)
                if lane is None:
                    lane = self.rng.choice(free)
            ch = lane.channel
            if ch.owned_count and not ch.in_active:
                # The wire's other lane free-runs or follows (channel
                # sweep only): sharing the wire ends a free-running
                # worm's one-flit-per-cycle schedule, so it walks again.
                self._couple(ch)
            lane.acquire(p)
            if not ch.in_active:
                ch.in_active = True
                insort(active, ch, key=_TOPO_ORDER)
            if p._parked:
                self._unpark(p)
            self.network.advance(p, ch)
            p.needs_route = False
            self._progressed = True
            if obs is not None:
                obs.publish_acquire(now, p, ch, lane.index)
        self._pending_route = still_pending

    def _phase_advance_fast(self) -> None:
        """Phase B, fast path: the sweep over the active channel list.

        ``_active`` holds every channel with an owned lane, in
        reverse-topological order (Phase A inserts on acquire; this
        sweep compacts out channels whose last lane released), except
        the wires of free-running, parked and following lanes.  During
        the sweep a tail release changes the ownership of the current
        channel or of a following lane's wire, which is off the list,
        so membership of later entries is stable and the visit order
        matches the reference's full ``topo_channels`` scan restricted
        to busy channels -- the same flits move.

        Single-lane channels take an inlined copy of
        ``PhysChannel._lane_ready`` + ``_move``; multi-lane channels
        (the VMIN's virtual-channel wires) an inlined copy of
        ``PhysChannel.transmit``'s ready-lane round robin.  An owned
        lane has ``sent < length`` (it releases as its tail crosses),
        so readiness reads only the two buffers.  Due free-run actions
        merge into the sweep by channel topo key; they only touch wires
        that are off ``_active``, so no key ties with a visited
        channel.  A blocked worm whose head lane the sweep finds not
        ready is a parking candidate (see :meth:`_park`).

        Following lanes (``_following``, no hot sink): a body lane --
        owned, not its worm's newest lane -- alone on its wire leaves
        the list at its visit.  Its readiness reads only its own buffer
        and the one upstream of it, which only its worm's own moves
        change, and as this sweep visits a route downstream first, none
        of those moves falls between the visit of its worm's nearest
        listed lane downstream and its own.  So right after every visit
        the sweep walks each owner's followers upstream, moving each
        ready one as the reference sweep would at its visit, and going
        on past those that cannot move (a full lane whose downstream
        stalled, or a bubble with no flit to take).  A newest lane
        alone on its wire whose header just reached the routing queue
        leaves the list too, as it cannot move before Phase A routes
        the header: the grant lists the new head lane (the old one now
        follows), and a block parks the worm or lists the lane again.
        On the TMIN/DMIN/BMIN only head lanes stay listed: a worm costs
        one visit per cycle.
        """
        if self.bus.hot:
            # A hot sink reads real per-flit state in the reference's
            # per-channel event order: unwind every free-run and
            # following shortcut first (the same flits move either way,
            # so a tracer may attach mid-run).
            if self._lazy_live:
                self._materialize_lazy()
            if self._followed:
                self._rejoin_followers()
            obs = self.bus
            follow = solo = False
        else:
            obs = None
            follow = self._following
            solo = self._solo
        active = self._active
        acts = None
        if self._lazy_live:
            # A live free-running worm delivers a flit every cycle.
            self._progressed = True
            acts = self._ledger.pop_due(self.cycles_run)
        if acts is not None:
            if len(acts) > 1:
                acts.sort(key=_ACT_KEY)
            na = len(acts)
            nxt = acts[0][0]
        elif not active:
            return
        else:
            na = 0
            nxt = FAR
        self.sweep_visits += len(active)
        single = self._single_lane
        # Worms that delivered a flit over a solo wire this cycle (the
        # free-run candidates; where lanes follow, each is tried right
        # after its walk, see ``cand``), blocked worms whose head lane
        # could not move (the parking candidates), and followers found
        # empty (bubbles, listed again after the sweep).
        cands = parks = cand = bubbles = None
        followed = 0
        ai = 0
        write = 0
        for ch in active:
            if nxt < ch.topo_order:
                # Replay the free-run actions the reference sweep
                # performs before this channel.
                key = ch.topo_order
                while ai < na and acts[ai][0] < key:
                    self._exec_lazy(acts[ai])
                    ai += 1
                nxt = acts[ai][0] if ai < na else FAR
            if ch.owned_count == 0:
                ch.in_active = False
                continue
            active[write] = ch
            write += 1
            if ch.cooldown:  # slowed wire resting (matches transmit())
                ch.cooldown -= 1
                continue
            lanes = ch.lanes
            dlv = ch.is_delivery
            if single:
                lane = lanes[0]
                p = lane.owner
                plan = p.lanes
                ridx = lane.route_idx
                if (ridx and plan[ridx - 1].buf == 0) or (lane.buf and not dlv):
                    # Not ready this cycle.
                    if ridx == len(plan) - 1:
                        # A blocked header sits in its head lane's
                        # buffer: a parking candidate.
                        if p._blk_usable is not None and self._parking:
                            if parks is None:
                                parks = [p]
                            else:
                                parks.append(p)
                    elif follow and lane.buf:
                        write -= 1  # a full body lane: it follows
                        ch.in_active = False
                        self._followed = True
                    continue
            else:
                # Serve the first ready lane from ``rr_next`` on.
                n = len(lanes)
                i = ch.rr_next
                for _ in lanes:
                    lane = lanes[i]
                    i += 1
                    if i == n:
                        i = 0
                    p = lane.owner
                    if p is None:
                        continue
                    ridx = lane.route_idx
                    if (ridx and p.lanes[ridx - 1].buf == 0) or (
                        lane.buf and not dlv
                    ):
                        continue
                    break
                else:
                    # No ready lane this cycle.
                    if follow and ch.owned_count == 1:
                        for lane in lanes:
                            p = lane.owner
                            if p is not None:
                                break
                        if lane.buf and lane.route_idx != len(p.lanes) - 1:
                            write -= 1  # a full body lane: it follows
                            ch.in_active = False
                            self._followed = True
                    continue
                ch.rr_next = i
                plan = p.lanes
            if ridx:
                plan[ridx - 1].buf -= 1
            lane.sent += 1
            if ch.slowdown > 1:
                ch.cooldown = ch.slowdown - 1
            self._progressed = True
            if obs is not None:
                obs.publish_transmit(self.env.now, ch, lane)
            if dlv:
                p.delivered_flits += 1
                if lane.sent == p.length:
                    lane.release()
                    self._lane_freed(ch)
                    if obs is not None:
                        obs.publish_release(self.env.now, p, ch, lane.index)
                    self._finalize(p)
                    continue
                if solo and ch.owned_count == 1:
                    if follow:
                        cand = p  # tried after its walk, below
                    elif cands is None:
                        cands = [p]
                    else:
                        cands.append(p)
            else:
                lane.buf = 1
                if ridx == len(plan) - 1:
                    if lane.sent == 1:
                        # Header just reached the next switch input.
                        p.needs_route = True
                        self._pending_route.append(p)
                        if follow and ch.owned_count == 1:
                            # Its lane cannot move again before Phase A
                            # routes the header: off the list until
                            # then (see _phase_allocate_fast).
                            write -= 1
                            ch.in_active = False
                            self._followed = True
                elif follow and ch.owned_count == 1:
                    write -= 1  # a full body lane: it follows
                    ch.in_active = False
                    self._followed = True
                if lane.sent == p.length:
                    # The tail: every upstream lane already released.
                    lane.release()
                    self._lane_freed(ch)
                    if obs is not None:
                        obs.publish_release(self.env.now, p, ch, lane.index)
                    continue
            if not follow or not ridx:
                continue
            # The followers upstream ride this move, each right after
            # the downstream move that drained it.
            ridx -= 1
            up = plan[ridx]
            while up.owner is p and not up.channel.in_active:
                if ridx:
                    feed = plan[ridx - 1]
                    if not feed.buf:
                        # A bubble: its upstream lane's move makes it
                        # ready, so it is listed again after the sweep.
                        if bubbles is None:
                            bubbles = [up.channel]
                        else:
                            bubbles.append(up.channel)
                        break
                    feed.buf -= 1
                up.sent += 1
                up.buf += 1
                followed += 1
                if not single:
                    uch = up.channel
                    i = up.index + 1
                    uch.rr_next = i if i < len(uch.lanes) else 0
                if up.sent == p.length:
                    up.release()
                    self._lane_freed(up.channel)
                    break
                if not ridx:
                    break
                ridx -= 1
                up = feed
            if cand is p:
                # A delivering worm on a solo wire, its walk done.
                cand = None
                if up.owner is not p or not up.channel.in_active:
                    # The walk covered the worm, so every held wire is
                    # solo and only this one is listed (a bubble upstream
                    # fails the buffer pattern).
                    if self._enter_lazy(p):
                        write -= 1
                        ch.in_active = False
                elif cands is None:
                    cands = [p]  # a lane upstream is still listed
                else:
                    cands.append(p)
        while ai < na:  # actions past the last active channel
            self._exec_lazy(acts[ai])
            ai += 1
        del active[write:]
        if followed:
            self.lanes_followed += followed
        if bubbles is not None:
            for ch in bubbles:
                ch.in_active = True
                insort(active, ch, key=_TOPO_ORDER)
        if parks is not None:
            for p in parks:
                if p._blk_usable is not None:  # else woken later on
                    self._park(p)
        if cands is not None:
            self._enter_solo(cands)

    def _enter_lazy(self, p: Packet) -> bool:
        """Try to switch a delivery-phase worm to free-run fast-forward.

        Once the header streams into the destination and every owned
        upstream lane's 1-flit buffer holds the steady pattern -- full
        when the sweep visits the downstream lane first, empty when it
        visits the lane itself first; all full on a MIN, a perfectly
        compressed pipeline -- the worm's remaining life is
        deterministic: every owned lane moves one flit per cycle until
        its tail crosses, and the header never routes again.  Instead
        of revisiting the worm each cycle, schedule its future
        *observable* effects -- each lane's tail release, each released
        full buffer's final drain, the delivery -- as topo-keyed
        actions in the free-run ledger and take its wires off the
        sweep.  The action merge in :meth:`_phase_advance_fast`
        replays them at exactly the reference sweep's cycle and
        within-cycle position, so the schedule stays bit-identical.  Buffers need no bookkeeping in
        between: a cycle in which every owned lane moves drains and
        refills a full buffer, and fills and drains an empty one, so
        the frozen pattern *is* the reference end-of-cycle state.

        The sweep calls this (through :meth:`_enter_solo`) for a worm
        whose every held wire is solo.  Disabled under the runtime
        sanitizer, whose per-cycle sweeps read the per-lane counters
        this mode leaves stale; an abort, a lane grant that shares one
        of the worm's wires, or a hot bus sink restores real state
        first via :meth:`_materialize_worm`.
        """
        lanes = p.lanes
        n1 = len(lanes) - 1
        down = lanes[n1].channel.topo_order
        i = n1 - 1
        while i >= 0:
            lane = lanes[i]
            if lane.owner is not p:
                break
            up = lane.channel.topo_order
            if lane.buf != (down < up):
                return False  # off the steady pattern: still settling
            down = up
            i -= 1
        s = i + 1  # first owned lane index (owned lanes are a suffix)
        if s and lanes[s - 1].buf == 0:
            return False  # upstream starvation (defensive; see below)
        head = lanes[n1]
        c = self.cycles_run
        # The head finishes ``length - sent`` deliveries from now.
        self._ledger.add(p, s, n1, c, c + p.length - head.sent)
        p._lz_base = c
        p._lz_sent0 = head.sent
        return True

    def _enter_solo(self, cands: list) -> None:
        """Channel sweep: free-run the delivering worms on solo wires.

        A worm whose every held wire has no other owned lane moves
        exactly as on single-lane wires: its lane wins each wire's
        round robin whenever ready.  ``rr_next`` needs no bookkeeping
        either, because a compressed pipeline moves every owned lane in
        every cycle, which sets each wire's pointer to the same value
        the frozen one already holds.  Entering worms' wires leave
        ``_active`` (the ledger drives them now); a grant that shares
        one of them brings the worm back via :meth:`_couple`.  Where
        lanes follow, a candidate whose walk covered it has already
        been tried inside the sweep; the rest come here after it.
        """
        for p in cands:
            lanes = p.lanes
            i = len(lanes) - 2
            if not self._single_lane:
                # The head's delivery wire is solo; walk the owned
                # lanes upstream of it (a suffix of ``p.lanes``) for a
                # shared wire, the cheap rejection (``_enter_lazy``
                # checks the buffers).
                while i >= 0:
                    lane = lanes[i]
                    if lane.owner is not p or lane.channel.owned_count != 1:
                        break
                    i -= 1
                if i >= 0 and lanes[i].owner is p:
                    continue
            if self._enter_lazy(p):
                self._unlist(p)

    def _park(self, p: Packet) -> bool:
        """Park the blocked worm ``p`` if it cannot move.

        A worm whose header is blocked with a cached decision and none
        of whose owned lanes passes the sweep's ready rule between
        sweeps cannot move until Phase A grants its header: its
        readiness reads only its own lanes' buffers (and the tail flit
        its oldest owned lane feeds from, which no other worm can
        touch), and only its own moves, a grant or an abort change
        those.  Visiting its wires would change nothing (no slowed
        wire, no shared round robin: see ``_parking``), so they leave
        ``_active`` until :meth:`_unpark` at the grant; an abort simply
        releases them.  Returns True when the worm parked.
        """
        lanes = p.lanes
        i = len(lanes) - 1
        listed = False
        # Owned lanes are a suffix of ``p.lanes``, none of them a
        # delivery lane (the header still routes).
        while i >= 0:
            lane = lanes[i]
            if lane.owner is not p:
                break
            if lane.buf == 0 and (i == 0 or lanes[i - 1].buf):
                return False  # a ready lane: the pipeline still compresses
            if lane.channel.in_active:
                listed = True
            i -= 1
        if listed:
            self._unlist(p)
        p._parked = True
        self.worms_parked += 1
        return True

    def _unlist(self, p: Packet) -> None:
        """Between sweeps: take the wires of ``p``'s owned lanes off
        ``_active`` (the compacted list holds exactly the channels
        flagged ``in_active``, in topo order)."""
        active = self._active
        for lane in reversed(p.lanes):
            if lane.owner is not p:
                break
            ch = lane.channel
            if ch.in_active:
                ch.in_active = False
                del active[bisect_left(active, ch.topo_order, key=_TOPO_ORDER)]

    def _unpark(self, p: Packet) -> None:
        """Phase A granted a parked worm's header: its wires rejoin
        ``_active`` (see :meth:`_park`).  Where body lanes follow
        (no hot sink), they stay off it: the grant lists the new head
        lane, and the sweep walks the rest from there."""
        p._parked = False
        if self._following and not self.bus.hot:
            return
        active = self._active
        lanes = p.lanes
        for i in range(len(lanes) - 1, -1, -1):
            lane = lanes[i]
            if lane.owner is not p:
                break
            ch = lane.channel
            if not ch.in_active:  # the granted lane's wire already is
                ch.in_active = True
                insort(active, ch, key=_TOPO_ORDER)

    def _couple(self, ch: PhysChannel) -> None:
        """A grant is about to share ``ch``, which is off ``_active``.

        If its owner free-runs, the owner's lane on ``ch`` will now lose
        round-robin turns, so its ledger schedule no longer holds:
        materialize it (which puts its wires back on ``_active``).  A
        following lane's real state needs nothing: the grant's own
        insort puts the wire back.
        """
        for lane in ch.lanes:
            p = lane.owner
            if p is not None:
                if p._lz_base >= 0:
                    self._materialize_worm(p)
                return

    def _rejoin_followers(self) -> None:
        """A hot sink needs the reference's per-channel event order:
        every following lane's wire rejoins ``_active``, once, at the
        switch.  Free-running worms are materialized first, so every
        owned wire off the list is a follower's or a parked worm's;
        the latter stay off (a parked worm can still not move, and its
        grant lists its wires again, see :meth:`_unpark`)."""
        self._followed = False
        active = self._active
        parking = self._parking
        for ch in self.network.topo_channels:
            if ch.owned_count and not ch.in_active:
                if parking and ch.lanes[0].owner._parked:
                    continue
                ch.in_active = True
                active.append(ch)
        active.sort(key=_TOPO_ORDER)

    def _exec_lazy(self, act) -> bool:
        """Replay one scheduled free-run action (see :meth:`_enter_lazy`).

        Returns False for a cancelled action (the owner's token moved
        on: the worm was aborted or materialized since scheduling).
        """
        kind = act[1]
        p = act[2]
        if p._lz_token != act[3]:
            return False
        lane = act[4]
        if kind == 0:  # final buffer drain (the downstream lane's move)
            lane.buf -= 1
        elif kind == 1:  # tail crossed the wire: release the lane
            lane.sent = p.length
            lane.release()
            self._lane_freed(lane.channel)
        else:  # kind == 2: tail consumed at the destination
            lane.sent = p.length
            p.delivered_flits = p.length
            lane.release()
            self._lane_freed(lane.channel)
            p._lz_token = act[3] + 1  # no actions outlive the delivery
            p._lz_base = -1
            self._ledger.remove(p)
            self._finalize(p)
        return True

    def _materialize_worm(self, p: Packet) -> None:
        """Restore a free-running worm's real per-lane progress.

        During free-run only the scheduled actions touch the worm, so
        its ``sent`` counters and ``delivered_flits`` sit stale at
        their entry snapshot.  Reconstruct: the head moved once per
        completed cycle since entry, and each owned lane is ahead of
        its downstream neighbour by exactly the flits its buffer holds.
        Buffers need no repair (they keep the steady pattern throughout
        streaming, and executed drains already ran at their reference
        cycle).  Pending actions die via the token bump;
        cancelled drains are subsumed by the restored lanes' own
        subsequent moves.  Wires the channel sweep took off ``_active``
        at entry (see :meth:`_enter_solo`) go back on it.
        """
        moves = self.cycles_run - p._lz_base - 1
        if moves < 0:
            moves = 0  # materialized within the entry cycle itself
        head_sent = p._lz_sent0 + moves
        lanes = p.lanes
        sent = head_sent
        for i in range(len(lanes) - 1, -1, -1):
            lane = lanes[i]
            if lane.owner is not p:
                break
            sent += lane.buf  # the head's delivery lane buffers nothing
            lane.sent = sent
            ch = lane.channel
            if not ch.in_active:
                ch.in_active = True
                insort(self._active, ch, key=_TOPO_ORDER)
        p.delivered_flits = head_sent
        p._lz_token += 1
        p._lz_base = -1
        self._ledger.remove(p)

    def _materialize_lazy(self) -> None:
        """Unwind every free-run shortcut.

        A hot bus sink reads real lane state, so all fast-forwarded
        worms must be materialized first.
        """
        for p in list(self._lazy_live):  # entry order
            self._materialize_worm(p)
        self._ledger.clear()

    def _lane_freed(self, ch: PhysChannel) -> None:
        """Fast-path bookkeeping after any ``Lane.release``.

        Wakes the blocked headers registered on the channel and, for an
        injection channel, re-arms its (still backlogged) node for the
        next injection scan.
        """
        if self._waiters:
            self._wake_waiters(ch)
        node = self._node_of_inj.get(ch)
        if node is not None and node in self._backlogged:
            self._inj_ready.add(node)

    def _wake_waiters(self, ch: PhysChannel) -> None:
        """A lane of ``ch`` released, or ``ch`` flipped fault state:
        invalidate the blocked-header caches registered on it.

        Registrations are dropped lazily: an entry whose token no
        longer matches the packet's current wake token belongs to an
        older blocking episode (the packet moved on, died, or was woken
        through another channel) and is skipped.
        """
        lst = self._waiters.pop(ch, None)
        if lst is None:
            return
        for token, p in lst:
            if p._blk_token == token:
                p._blk_token = token + 1
                p._blk_usable = None
                self._blk_valid -= 1

    def abort_packet(self, p: Packet) -> None:
        """Externally kill a packet (hard faults, recovery timeouts).

        A QUEUED packet is removed from its source queue; an ACTIVE worm
        is aborted exactly like one whose every next hop went faulty
        (flits flushed, lanes released).  Either way the packet ends
        FAILED, counts in ``stats.failed_packets``, and an ``abort``
        bus event is published.  Delivered/failed packets raise
        ``ValueError``.
        """
        if p.state is PacketState.QUEUED:
            try:
                self.queues[p.src].remove(p)
            except ValueError:
                raise ValueError(f"{p!r} is queued but not in its source queue")
            if not self.queues[p.src]:
                self._backlogged.discard(p.src)
                self._inj_ready.discard(p.src)
            p.state = PacketState.FAILED
            self.stats.failed_packets += 1
            if self.bus.enabled:
                self.bus.publish_abort(self.env.now, p)
            return
        if p.state is not PacketState.ACTIVE:
            raise ValueError(f"cannot abort {p!r} in state {p.state.value}")
        # Flits the destination already consumed stay consumed; the
        # abort only flushes what is still inside the network.
        self._abort(p)

    def _abort(self, p: Packet) -> None:
        """Kill an in-flight worm whose every next hop is faulty.

        Its flits are flushed from the buffers along its chain (each
        lane's buffer holds ``sent(lane) - sent(next lane)`` of this
        packet's flits) and its still-owned lanes are released, so other
        traffic is unaffected.
        """
        bus = self.bus
        obs = bus if bus.hot else None
        now = self.env.now
        if p._lz_base >= 0:
            # A free-running worm's lane counters are stale; restore
            # real state first so the flush arithmetic below is exact.
            self._materialize_worm(p)
        p._sanitize_aborting = True  # exempt early releases (sanitizer)
        try:
            lanes = p.lanes
            n = len(lanes)
            for i, lane in enumerate(lanes):
                if not lane.channel.is_delivery:
                    # A delivery lane has no downstream buffer (the node
                    # consumed those flits); only switch-input buffers
                    # flush.  Count flits from *this* packet's
                    # perspective: a lane it already released carried
                    # all ``length`` flits -- its ``sent`` counter may
                    # since belong to a new owner (re-acquisition resets
                    # it), so reading it raw would mis-flush.
                    mine = lane.sent if lane.owner is p else p.length
                    if i + 1 < n:
                        nxt = lanes[i + 1]
                        next_mine = nxt.sent if nxt.owner is p else p.length
                    else:
                        next_mine = 0
                    lane.buf -= mine - next_mine
                    assert lane.buf >= 0, "abort flushed a flit it did not own"
                if lane.owner is p:
                    lane.release()
                    self._lane_freed(lane.channel)
                    if obs is not None:
                        obs.publish_release(now, p, lane.channel, lane.index)
        finally:
            p._sanitize_aborting = False
        p.state = PacketState.FAILED
        p.needs_route = False
        # Invalidate any blocked-header cache state (fast path): stale
        # waiter registrations die via the token bump.  A parked worm's
        # wires are off ``_active`` and now unowned.
        if p._blk_usable is not None:
            self._blk_valid -= 1
            p._blk_usable = None
        p._blk_token += 1
        p._parked = False
        self._active_packets -= 1
        self.stats.failed_packets += 1
        if bus.enabled:
            bus.publish_abort(now, p)

    def _finalize(self, p: Packet) -> None:
        p.state = PacketState.DELIVERED
        p.delivered_at = self.env.now
        self._active_packets -= 1
        self.stats.delivered_packets += 1
        self.stats.delivered_flits += p.length
        if self.bus.enabled:
            self.bus.publish_deliver(self.env.now, p)
        assert p.inject_start is not None
        self.stats.records.append(
            DeliveryRecord(
                p.pid,
                p.src,
                p.dst,
                p.length,
                p.created,
                p.inject_start,
                p.delivered_at,
            )
        )

    # -- clock process -----------------------------------------------------------

    def start(self) -> None:
        """Install the clock process in the environment (idempotent)."""
        if self._clock_started:
            return
        self._clock_started = True
        self.env.process(self._clock(), name="wormhole-clock")

    def _clock(self):
        env = self.env
        span = self.fast  # the reference tier wakes once per cycle
        while True:
            if self.idle:
                # Fast-forward to the next external event (an arrival);
                # with nothing scheduled, sleep until someone offers.
                nxt = env.peek()
                if nxt == float("inf"):
                    self._wakeup = env.event()
                    yield self._wakeup
                else:
                    yield env.timeout(max(1.0, math.ceil(nxt - env.now)))
                self.step_cycle()
                continue
            if span:
                # Batched wake: _span_cycles proves the next k-1 cycles
                # are no-ops beyond their (deferred) shuffle draws, so
                # credit them and land straight on tick k of the exact
                # chained grid.  run()'s stop events are in the queue
                # and bound the span, so no caller observes mid-span
                # state; events landing exactly on the wake tick fire
                # before it, just as they would before a real tick.
                k = self._span_cycles()
                now = env.now
                if now.is_integer():
                    target = now + k
                else:
                    # Fractional clock (a mid-cycle idle wakeup
                    # happened): chain unit steps so the wake lands
                    # exactly on the tick grid.
                    target = now
                    for _ in range(k):
                        target += 1.0
                if k > 1:
                    self.cycles_run += k - 1
                    self.cycles_skipped += k - 1
                    # The skipped cycles' service-order shuffles are
                    # owed (membership cannot change mid-span); the
                    # next order-observing scan replays them.  A queue
                    # of <= 1 headers draws nothing per cycle, so only
                    # real draws become debt -- the queue length is
                    # frozen while debt is outstanding, which keeps the
                    # replay word-exact.
                    draws = len(self._pending_route) - 1
                    if draws > 0:
                        self._shuffle_debt += k - 1
                        self.shuffle_draws += (k - 1) * draws
                if env.peek() > target:
                    # Nothing is scheduled at or before the wake tick:
                    # skip the kernel round trip (wake event, heap pop,
                    # generator resume) and advance the clock directly.
                    # Anything the tick schedules fires afterwards,
                    # exactly as it would after a kernel-driven tick.
                    env.advance_to(target)
                    self.step_cycle()
                else:
                    yield env.timeout_at(target)
                    self.step_cycle()
                continue
            yield env.timeout(1.0)
            self.step_cycle()

    def _span_cycles(self) -> int:
        """Cycles the span-sleep clock may sleep through in one wake (>= 1).

        A cycle is a provable no-op -- no RNG draw, no state change, no
        bus event -- exactly when nothing can inject (``_inj_ready``
        empty, no fault flip undrained), nothing moves outside the
        ledger (no owned channel on ``_active``: parked worms' wires
        are off it, and a following lane's worm keeps its newest lane
        on it), every pending header is provably still
        blocked (cache-hit exits; their shuffle draws become debt, see
        below), no free-run action is due (the ledger's next-due
        horizon), and no per-cycle observer runs (sanitizer / watchdogs
        / hot bus).
        The span is additionally clamped to the next scheduled
        environment event: arrivals, fault flips, and run() stop events
        all bound it, so nothing can observe or perturb the engine
        mid-span.
        """
        if (
            self._inj_ready
            or self._flips
            or self.bus.hot
            or not self._free_run
            or self.sanitizer is not None
            or self.watchdog is not None
        ):
            return 1
        for ch in self._active:
            if ch.owned_count:
                return 1
        pending = self._pending_route
        if pending and self._blk_valid != len(pending):
            # Some pending header is not provably blocked: the full
            # allocation scan must run.
            return 1
        # All-blocked cycles do consume randomness (the service-order
        # shuffle), but nothing *observes* the queue permutation until
        # the next executed tick -- so the clock defers the draws and
        # replays the skipped shuffles at wake (``shuffle_k``), in
        # stream order, before stepping.  Bit-identical: the engine
        # stream's only consumers are the shuffle and the grant path,
        # and no grant can occur while every header is blocked.
        if self._lazy_live:
            # The next executed tick pops bucket ``cycles_run``; a span
            # of k lands it on bucket ``cycles_run + k - 1``, so the
            # ledger's next-due bucket bounds k at ``due-cycles_run+1``.
            due = self._ledger.next_due()
            lim = due - self.cycles_run + 1
            if lim <= 1:
                return 1
        else:
            lim = 4096
        env = self.env
        nxt = env.peek()
        if nxt == float("inf"):
            k = lim
        else:
            now = env.now
            if now.is_integer():
                gap = int(nxt - now) if nxt - now < 4096.0 else 4096
            else:
                # Fractional clock (a mid-cycle idle wakeup happened):
                # count chained-grid points up to the next event.
                gap = 0
                t = now
                while gap < 4096:
                    t += 1.0
                    if t > nxt:
                        break
                    gap += 1
            k = lim if lim < gap else gap
        if k > 4096:
            k = 4096
        return k if k > 1 else 1

    # -- convenience for tests and examples -----------------------------------------

    def run_cycles(self, cycles: int) -> None:
        """Start the clock (if needed) and advance ``cycles`` cycles."""
        self.start()
        self.env.run(until=self.env.now + cycles)

    def drain(self, max_cycles: int = 1_000_000, held: Callable[[], int] = lambda: 0) -> None:
        """Run until the network is empty and ``held()`` -- the work a layer
        above keeps outside it -- is 0 (or the cycle budget runs out)."""
        self.start()
        deadline = self.env.now + max_cycles
        while (not self.idle or held()) and self.env.now < deadline:
            self.env.run(until=min(self.env.now + 256, deadline))
        if not self.idle or held():
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles "
                f"({self._active_packets} packets in flight, {held()} held "
                "outside) -- this would indicate deadlock or livelock"
            )

    # -- throughput helpers ------------------------------------------------------------

    def throughput_fraction(self) -> float:
        """Delivered flits per node-cycle over the current window.

        1.0 would mean every delivery channel streamed a flit every
        cycle -- the paper's '% of maximum theoretical throughput'.
        """
        elapsed = self.env.now - self.stats.window_start
        if elapsed <= 0:
            return 0.0
        return self.stats.delivered_flits / (self.network.N * elapsed)

    def __repr__(self) -> str:
        return (
            f"<WormholeEngine {self.network.kind.value} N={self.network.N} "
            f"t={self.env.now} active={self._active_packets}>"
        )
