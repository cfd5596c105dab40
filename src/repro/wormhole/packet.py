"""Messages (packets) and their lifecycle in the wormhole simulator.

The paper does not packetize: a message is one packet, serialized into
``length`` flits.  The header flit carries source/destination addresses
and governs the route; body flits follow in a pipeline.  A packet's
latency runs from the instant the source makes the message available
(``created``) until the tail flit is consumed at the destination
(Section 1's definition, which therefore includes source queueing).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.wormhole.channel import Lane


class PacketState(Enum):
    """Lifecycle of a message."""

    QUEUED = "queued"        # waiting in the source's FCFS queue
    ACTIVE = "active"        # header routing / flits moving
    DELIVERED = "delivered"  # tail consumed at the destination
    FAILED = "failed"        # killed: every next-hop channel is faulty
    SHED = "shed"            # dropped by a bounded-admission policy


class Packet:
    """One message in flight.

    Only the engine mutates packets; everything else treats them as
    read-only records.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "length",
        "created",
        "inject_start",
        "delivered_at",
        "state",
        "lanes",
        "delivered_flits",
        "needs_route",
        "hop",
        "cur",
        "bmin_going_up",
        "bmin_boundary",
        "bmin_line",
        "bmin_turn",
        "slots",
        "_sanitize_aborting",
        "_blk_usable",
        "_blk_token",
        "_parked",
        "_lz_base",
        "_lz_sent0",
        "_lz_token",
    )

    def __init__(
        self, pid: int, src: int, dst: int, length: int, created: float
    ) -> None:
        if length < 1:
            raise ValueError("a packet needs at least one flit")
        if src == dst:
            raise ValueError("the paper's traffic never sends to self")
        self.pid = pid
        self.src = src
        self.dst = dst
        self.length = length
        self.created = created
        self.inject_start: Optional[float] = None
        self.delivered_at: Optional[float] = None
        self.state = PacketState.QUEUED

        #: Channels lanes acquired so far, source side first.
        self.lanes: list["Lane"] = []
        self.delivered_flits = 0
        #: True while the header waits at a switch input for allocation.
        self.needs_route = False
        #: Next hop index (unidirectional: index into ``slots``).
        self.hop = 0
        #: Current node (direct topologies; see repro.direct.network).
        self.cur = src

        # BMIN routing state (unused for unidirectional networks).
        self.bmin_going_up = True
        self.bmin_boundary = 0
        self.bmin_line = src
        self.bmin_turn = -1

        #: Unidirectional networks: precomputed (boundary, position)
        #: slots of the unique path (set by the network at injection).
        self.slots: Optional[list[tuple[int, int]]] = None

        #: True while the engine flushes this worm in an abort; lets the
        #: runtime sanitizer (REPRO_SANITIZE=1) exempt the abort's
        #: early lane releases from the tail-crossed pairing check.
        self._sanitize_aborting = False

        # Fast-engine blocked-header cache (see
        # :meth:`WormholeEngine._phase_allocate_fast`): the usable
        # candidate list computed when this header last blocked, and a
        # wake token that invalidates stale waiter registrations (a
        # lane release or a fault flip on any candidate wakes it).
        self._blk_usable: Optional[list] = None
        self._blk_token = 0
        #: True while the fast engine's channel sweep holds this
        #: blocked worm's wires off its active list (see
        #: ``WormholeEngine._park``); cleared by its header's grant or
        #: an abort.
        self._parked = False

        # Free-run fast-forward state (see
        # ``WormholeEngine._enter_lazy`` and
        # :class:`repro.wormhole.ledger.FreeRunLedger`): the engine
        # cycle at which the worm entered lazy streaming (-1 while it
        # is not free-running), the head lane's ``sent`` at that
        # instant (together they reconstruct per-lane progress for
        # abort/mode-switch materialization), and a token that
        # invalidates the worm's scheduled lazy actions when bumped.
        self._lz_base = -1
        self._lz_sent0 = 0
        self._lz_token = 0

    @property
    def latency(self) -> float:
        """Total latency (queueing + network) in cycles; None until done."""
        if self.delivered_at is None:
            raise AttributeError("packet not yet delivered")
        return self.delivered_at - self.created

    @property
    def network_latency(self) -> float:
        """Latency excluding source queueing (inject start to tail out)."""
        if self.delivered_at is None or self.inject_start is None:
            raise AttributeError("packet not yet delivered")
        return self.delivered_at - self.inject_start

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.pid} {self.src}->{self.dst} len={self.length} "
            f"{self.state.value}>"
        )
