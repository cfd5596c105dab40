"""Per-packet event tracing for the wormhole engine.

Attach a :class:`Tracer` to an engine to record the life of every
message -- queued, injected, each channel acquisition, blocking spells,
delivery or abort -- and render per-packet timelines.  Used by the
debugging example and handy when studying *why* a configuration
saturates (e.g. which channel a permutation's losers block on).

    tracer = Tracer()
    engine.bus.attach(tracer)
    ...
    print(tracer.format_timeline(pid))
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.wormhole.channel import PhysChannel
    from repro.wormhole.packet import Packet


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event of one packet."""

    time: float
    kind: str      # offered | injected | acquired | blocked | delivered | failed
    pid: int
    detail: str
    #: Global record order (monotone across packets); lets the flat
    #: :attr:`Tracer.events` view interleave ring buffers correctly.
    seq: int = 0

    def __str__(self) -> str:
        return f"t={self.time:<8g} {self.kind:<9} {self.detail}"


class Tracer:
    """Collects :class:`TraceEvent` streams, indexed per packet.

    Memory is bounded two ways, and every drop is *surfaced*, never
    silent (an earlier revision hit ``max_events`` and silently dropped
    new packets' events mid-flight, producing timelines that looked
    complete while missing their endings):

    * ``per_packet`` -- each packet's timeline is a ring buffer keeping
      its **newest** events (a delivered worm always shows its
      delivery; overwrites count in :attr:`dropped_events`);
    * ``max_events`` -- once the total retained events exceed the cap,
      the **oldest whole packets** are evicted (counted in
      :attr:`evicted_packets` / :attr:`evicted_events`), so every
      timeline still present is internally complete up to its own ring.
      The newest packet is never evicted, even if its ring alone
      exceeds the cap.

    :attr:`truncated` is True iff anything was dropped or evicted.
    """

    def __init__(
        self, max_events: int = 1_000_000, per_packet: int = 256
    ) -> None:
        if max_events < 1 or per_packet < 1:
            raise ValueError("max_events and per_packet must be >= 1")
        self.max_events = max_events
        self.per_packet = per_packet
        self._by_pid: dict[int, deque[TraceEvent]] = {}
        #: pid insertion order (eviction order when over the cap).
        self._order: deque[int] = deque()
        #: pid -> channel label currently blocking it (dedup of repeats)
        self._blocked_on: dict[int, str] = {}
        self._seq = 0
        self._total = 0
        #: Events overwritten by their packet's ring buffer.
        self.dropped_events = 0
        #: Whole packets evicted by the global cap (and their events).
        self.evicted_packets = 0
        self.evicted_events = 0

    @property
    def events(self) -> list[TraceEvent]:
        """Flat view of every retained event, in record order."""
        flat = [e for ring in self._by_pid.values() for e in ring]
        flat.sort(key=lambda e: e.seq)
        return flat

    @property
    def truncated(self) -> bool:
        """True iff any event was dropped or any packet evicted."""
        return bool(self.dropped_events or self.evicted_packets)

    # -- hooks the engine calls -------------------------------------------

    def on_offer(self, time: float, packet: "Packet") -> None:
        """Message submitted to its source queue."""
        self._record(
            time,
            "offered",
            packet.pid,
            f"{packet.src}->{packet.dst} len={packet.length}",
        )

    def on_inject(self, time: float, packet: "Packet") -> None:
        """Message started transmitting (left the FCFS queue)."""
        self._record(time, "injected", packet.pid, f"from node {packet.src}")

    def on_acquire(
        self, time: float, packet: "Packet", channel: "PhysChannel", lane_index: int
    ) -> None:
        """Header acquired a (virtual) channel."""
        self._blocked_on.pop(packet.pid, None)
        lane = f".vc{lane_index}" if channel.num_lanes > 1 else ""
        self._record(time, "acquired", packet.pid, channel.label + lane)

    def on_blocked(
        self, time: float, packet: "Packet", channels: list["PhysChannel"]
    ) -> None:
        """Header found every candidate busy (deduped per spell)."""
        key = ",".join(ch.label for ch in channels)
        if self._blocked_on.get(packet.pid) == key:
            return  # still stuck on the same hop: no new event
        self._blocked_on[packet.pid] = key
        self._record(time, "blocked", packet.pid, f"waiting for {key}")

    def on_deliver(self, time: float, packet: "Packet") -> None:
        """Tail flit consumed at the destination."""
        self._blocked_on.pop(packet.pid, None)
        self._record(
            time, "delivered", packet.pid, f"latency {time - packet.created:g}"
        )

    def on_abort(self, time: float, packet: "Packet") -> None:
        """Worm killed by fault handling."""
        self._blocked_on.pop(packet.pid, None)
        self._record(time, "failed", packet.pid, "all next-hop channels faulty")

    # -- queries ---------------------------------------------------------

    def packet_timeline(self, pid: int) -> list[TraceEvent]:
        """All events of one packet, in time order."""
        return list(self._by_pid.get(pid, ()))

    def format_timeline(self, pid: int) -> str:
        """Human-readable one-line-per-event rendering."""
        events = self.packet_timeline(pid)
        if not events:
            return f"packet #{pid}: no events recorded"
        header = f"packet #{pid}:"
        return "\n".join([header] + [f"  {e}" for e in events])

    def blocking_hotspots(self, top: int = 5) -> list[tuple[str, int]]:
        """Channels most often named in blocked events (congestion map)."""
        from collections import Counter

        counts: Counter[str] = Counter()
        for e in self.events:
            if e.kind == "blocked":
                counts[e.detail.removeprefix("waiting for ")] += 1
        return counts.most_common(top)

    def _record(self, time: float, kind: str, pid: int, detail: str) -> None:
        event = TraceEvent(time, kind, pid, detail, self._seq)
        self._seq += 1
        ring = self._by_pid.get(pid)
        if ring is None:
            ring = self._by_pid[pid] = deque(maxlen=self.per_packet)
            self._order.append(pid)
        if len(ring) == self.per_packet:
            # Ring overwrite: the packet keeps its newest events.
            self.dropped_events += 1
            self._total -= 1
        ring.append(event)
        self._total += 1
        # Global cap: evict whole oldest packets (never the newest one),
        # so surviving timelines stay internally complete.
        while self._total > self.max_events and len(self._order) > 1:
            old = self._order.popleft()
            evicted = self._by_pid.pop(old, None)
            if evicted is None:  # pragma: no cover - defensive
                continue
            self._total -= len(evicted)
            self.evicted_packets += 1
            self.evicted_events += len(evicted)
            self._blocked_on.pop(old, None)
