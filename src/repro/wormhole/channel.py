"""Physical channels and virtual-channel lanes with flit accounting.

A :class:`PhysChannel` is one unidirectional wire.  It carries one or
more :class:`Lane` objects (virtual channels); each lane has its own
one-flit buffer at the downstream switch input, its own owner packet,
and its own flit counter, while the wire itself transmits at most one
flit per cycle, shared round-robin among the *ready* lanes
(Section 2.2's dynamic bandwidth allocation).

Flit accounting per lane:

* ``sent`` -- flits that have crossed the wire since the current owner
  acquired the lane;
* ``buf`` -- flits currently sitting in the lane's downstream buffer
  (0 or 1; delivery lanes have no buffer, the node consumes instantly).

A lane is *released* when its owner's tail flit has crossed
(``sent == length``); the buffer may still hold that tail flit, which
correctly delays the next owner's first flit until it drains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.wormhole.packet import Packet


class FaultEpoch:
    """Fault-state change log of one network, shared by all its channels.

    While a fast engine drains it, every :meth:`PhysChannel.fail` /
    :meth:`PhysChannel.repair` appends the channel to ``flips``.  The
    fast engine's Phase A empties that log each cycle and invalidates
    per channel: it wakes only the blocked headers that list a flipped
    channel among their candidates, and re-arms only the node whose
    injection channel flipped.  ``flips`` stays None on bare networks
    and under the reference tier (which reads ``faulty`` live), so
    nothing grows it there.
    """

    __slots__ = ("flips",)

    def __init__(self) -> None:
        self.flips: Optional[list["PhysChannel"]] = None


class Lane:
    """One virtual channel on a wire."""

    __slots__ = ("channel", "index", "owner", "route_idx", "sent", "buf")

    def __init__(self, channel: "PhysChannel", index: int) -> None:
        self.channel = channel
        self.index = index
        self.owner: Optional["Packet"] = None
        #: Position of this lane in the owner's route (0 = injection).
        self.route_idx = -1
        self.sent = 0
        self.buf = 0

    @property
    def free(self) -> bool:
        """True when no packet owns this lane."""
        return self.owner is None

    def acquire(self, packet: "Packet") -> None:
        """Give the lane to ``packet`` as its next route hop."""
        if self.owner is not None:
            raise RuntimeError(f"{self!r} is already owned by {self.owner!r}")
        self.owner = packet
        self.route_idx = len(packet.lanes)
        self.sent = 0
        self.channel.owned_count += 1
        packet.lanes.append(self)

    def release(self) -> None:
        """Free the lane (the owner's tail flit has crossed the wire)."""
        ch = self.channel
        if ch.release_observer is not None:
            ch.release_observer(self)
        self.owner = None
        self.route_idx = -1
        ch.owned_count -= 1
        # ``buf`` intentionally survives: the tail flit may still occupy
        # the downstream buffer until it crosses the next channel.

    def __repr__(self) -> str:
        who = f"pkt#{self.owner.pid}" if self.owner else "free"
        return (
            f"<Lane {self.channel.label}.{self.index} {who} "
            f"sent={self.sent} buf={self.buf}>"
        )


class PhysChannel:
    """One unidirectional wire carrying ``num_lanes`` virtual channels."""

    __slots__ = (
        "label",
        "lanes",
        "is_delivery",
        "rr_next",
        "topo_order",
        "sink",
        "meta",
        "faulty",
        "owned_count",
        "in_active",
        "slowdown",
        "cooldown",
        "fault_epoch",
        "release_observer",
    )

    def __init__(
        self,
        label: str,
        num_lanes: int = 1,
        is_delivery: bool = False,
        sink: Optional[int] = None,
        slowdown: int = 1,
    ) -> None:
        if num_lanes < 1:
            raise ValueError("a channel needs at least one lane")
        if slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        if is_delivery != (sink is not None):
            raise ValueError("delivery channels (and only they) name a sink node")
        self.label = label
        self.lanes = [Lane(self, i) for i in range(num_lanes)]
        self.is_delivery = is_delivery
        self.sink = sink
        #: Round-robin pointer for fair flit-level multiplexing.
        self.rr_next = 0
        #: Position in the reverse-topological processing order.
        self.topo_order = -1
        #: Optional network-specific metadata (the BMIN stores its
        #: ``(direction, boundary, line)`` triple here).
        self.meta: Optional[tuple] = None
        #: Faulty channels are never acquired by new headers (fault
        #: injection; worms already holding the wire finish normally).
        self.faulty = False
        #: Owned lanes, maintained by Lane.acquire/release -- the hot
        #: path's O(1) replacement for scanning the lanes.
        self.owned_count = 0
        #: True while this channel sits on the fast engine's active
        #: list (see :meth:`WormholeEngine._phase_advance_fast`);
        #: maintained by the engine, never by the channel itself.
        self.in_active = False
        #: Cycles per flit (1 = full speed).  A slow wire rests
        #: ``slowdown - 1`` cycles after each flit; used by the direct
        #: topologies' ``vlink_slowdown`` knob for slow vertical links.
        self.slowdown = slowdown
        #: Remaining rest cycles before the next flit may cross.  Only
        #: *visited* cycles count it down (busy channels are visited
        #: exactly once per cycle on both engine paths; an idle wire
        #: has nothing to rest from).
        self.cooldown = 0
        #: Logs :meth:`fail` / :meth:`repair` for a fast engine; a
        #: network shares one across its channels
        #: (``SimNetwork.fault_epoch``).
        self.fault_epoch = FaultEpoch()
        #: Optional ``observer(lane)`` called just before a lane frees.
        #: Installed by the opt-in runtime sanitizer
        #: (:mod:`repro.wormhole.sanitizer`, ``REPRO_SANITIZE=1``) on its
        #: own network's channels to assert acquire/release pairing;
        #: None (the default) costs one comparison.
        self.release_observer: Optional[Callable[[Lane], None]] = None

    def fail(self) -> None:
        """Inject a fault: new headers can no longer acquire this wire.

        Worms already holding a lane keep streaming (the fault model is
        a link taken out of the routing tables, not a wire cut mid
        transfer).  For the wire-cut model -- kill the worms currently
        on the wire too -- see :class:`repro.faults.plan.FaultInjector`
        with ``severity="hard"``, which pairs :meth:`fail` with
        :meth:`repro.wormhole.engine.WormholeEngine.abort_packet` on
        :meth:`owners`.
        """
        self.faulty = True
        self._flipped()

    def repair(self) -> None:
        """Clear an injected fault."""
        self.faulty = False
        self._flipped()

    def _flipped(self) -> None:
        flips = self.fault_epoch.flips
        if flips is not None:
            flips.append(self)

    def owners(self) -> list["Packet"]:
        """Distinct packets currently holding a lane of this wire."""
        out: list["Packet"] = []
        for lane in self.lanes:
            if lane.owner is not None and lane.owner not in out:
                out.append(lane.owner)
        return out

    @property
    def num_lanes(self) -> int:
        """Virtual channels multiplexed on this wire."""
        return len(self.lanes)

    @property
    def busy(self) -> bool:
        """True if any lane is owned (the wire may carry traffic)."""
        return self.owned_count > 0

    def free_lanes(self) -> list[Lane]:
        """Lanes currently available for a new header."""
        return [lane for lane in self.lanes if lane.owner is None]

    def _lane_ready(self, lane: Lane) -> bool:
        """Can this lane move a flit across the wire this cycle?"""
        p = lane.owner
        if p is None or lane.sent >= p.length:
            return False
        # Upstream flit availability: the source feeds the injection
        # lane serially (always ready); otherwise the previous lane's
        # downstream buffer must hold a flit.
        if lane.route_idx > 0 and p.lanes[lane.route_idx - 1].buf == 0:
            return False
        # Downstream space: the destination consumes immediately; a
        # switch input buffer must be empty (its single flit slot).
        if not self.is_delivery and lane.buf != 0:
            return False
        return True

    def _move(self, lane: Lane) -> None:
        """Apply the flit movement effects for a ready lane."""
        p = lane.owner
        if lane.route_idx > 0:
            p.lanes[lane.route_idx - 1].buf -= 1
        lane.sent += 1
        if self.is_delivery:
            p.delivered_flits += 1
        else:
            lane.buf += 1
        if self.slowdown > 1:
            self.cooldown = self.slowdown - 1

    def transmit(self) -> Optional[Lane]:
        """Move one flit across the wire if any lane is ready.

        Lanes are served round-robin among the ready ones so that k
        active virtual channels each receive W/k bandwidth.  Returns the
        lane served, or None.
        """
        if self.cooldown:
            self.cooldown -= 1
            return None
        lanes = self.lanes
        n = len(lanes)
        if n == 1:
            # Hot path: the vast majority of channels carry one lane.
            lane = lanes[0]
            if self._lane_ready(lane):
                self._move(lane)
                return lane
            return None
        for off in range(n):
            lane = lanes[(self.rr_next + off) % n]
            if self._lane_ready(lane):
                self._move(lane)
                self.rr_next = (self.rr_next + off + 1) % n
                return lane
        return None

    def __repr__(self) -> str:
        return f"<PhysChannel {self.label} lanes={self.num_lanes}>"
