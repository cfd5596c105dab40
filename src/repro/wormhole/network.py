"""Builds the four simulated networks and answers routing queries.

A :class:`SimNetwork` owns every :class:`PhysChannel` of one network
instance, ordered reverse-topologically (downstream first) for the
engine's flit-advance phase, and translates a packet's routing state
into the candidate channels its header may acquire next.

* :class:`UnidirectionalNetwork` covers TMIN, DMIN and VMIN over any
  Delta topology (:class:`~repro.topology.spec.MINSpec`).  The path's
  (boundary, position) slots are unique per (source, destination); only
  the channel/lane *within* a slot varies (dilated lanes, virtual
  channels).
* :class:`BidirectionalNetwork` covers the BMIN: adaptive forward hops,
  one turnaround, deterministic backward hops (Fig. 7), per the wiring
  of :class:`~repro.topology.bmin.BidirectionalMIN`.
"""

from __future__ import annotations

from enum import Enum
from repro.routing.memo import BminTables, PathTable
from repro.routing.tags import TagRouter
from repro.topology.bmin import BidirectionalMIN
from repro.topology.permutations import from_digits, to_digits
from repro.topology.mins import build_min
from repro.topology.spec import MINSpec
from repro.wormhole.channel import FaultEpoch, PhysChannel
from repro.wormhole.packet import Packet


class NetworkKind(Enum):
    """The four switch designs of Fig. 1, plus the direct topologies."""

    TMIN = "tmin"
    DMIN = "dmin"
    VMIN = "vmin"
    BMIN = "bmin"
    MESH3D = "mesh3d"
    TORUS3D = "torus3d"


class SimNetwork:
    """Common interface of the simulated networks."""

    kind: NetworkKind
    N: int
    topo_channels: list[PhysChannel]
    fault_epoch: FaultEpoch

    #: True when routes acquire channels in ascending topological
    #: order, the precondition of the fast engine's following lanes
    #: (moved in a walk upstream from their worm's newest lane).  The
    #: MINs satisfy it by construction; the direct topologies
    #: (adaptive routing, cyclic full CDG) opt out and keep every
    #: owned lane on the sweep (free-run does not need it).
    worm_phase_ok = True

    def injection_channel(self, node: int) -> PhysChannel:
        """The node's single channel into the network (one-port)."""
        raise NotImplementedError

    def prepare(self, packet: Packet) -> None:
        """Initialize per-packet routing state at injection time."""
        raise NotImplementedError

    def candidates(self, packet: Packet) -> list[PhysChannel]:
        """Channels the header may take for its next hop."""
        raise NotImplementedError

    def advance(self, packet: Packet, channel: PhysChannel) -> None:
        """Update routing state after the header acquired ``channel``."""
        raise NotImplementedError

    def preferred_lane(self, packet: Packet, free: list, rng):
        """Bias the engine's choice among free candidate lanes.

        Return one of ``free`` to override, or None for the default
        uniform-random pick (the paper's policy).  Subclasses implement
        smarter adaptive policies (see
        :class:`SmartBidirectionalNetwork`).
        """
        return None

    def _finalize_topo(self, channels: list[PhysChannel]) -> None:
        # One fault-flip log for the whole network (see FaultEpoch).
        self.fault_epoch = FaultEpoch()
        for order, ch in enumerate(channels):
            ch.topo_order = order
            ch.fault_epoch = self.fault_epoch
        self.topo_channels = channels

    @property
    def channel_count(self) -> int:
        """Total unidirectional wires in the network."""
        return len(self.topo_channels)

    def find_channel(self, label: str) -> PhysChannel:
        """Look a channel up by its label (e.g. ``"b1[5].0"``).

        Raises :class:`KeyError` with near-miss suggestions, so a typo
        in a fault plan or script fails loudly instead of silently
        naming nothing (see :meth:`repro.faults.plan.FaultPlan`'s
        install-time validation).
        """
        for ch in self.topo_channels:
            if ch.label == label:
                return ch
        raise KeyError(self.unknown_label_message(label))

    def unknown_label_message(self, label: str) -> str:
        """Diagnostic for a label that names no channel (with near-misses)."""
        import difflib

        labels = [ch.label for ch in self.topo_channels]
        close = difflib.get_close_matches(label, labels, n=3, cutoff=0.5)
        msg = (
            f"no channel labelled {label!r} in this "
            f"{self.kind.value} network ({len(labels)} channels)"
        )
        if close:
            msg += "; did you mean " + " / ".join(repr(c) for c in close) + "?"
        return msg

    def faulty_channels(self) -> list[PhysChannel]:
        """All channels currently marked faulty."""
        return [ch for ch in self.topo_channels if ch.faulty]


class UnidirectionalNetwork(SimNetwork):
    """TMIN / DMIN / VMIN over a Delta MIN.

    Parameters
    ----------
    spec:
        The topology (cube or butterfly for the paper's experiments).
    dilation:
        Channels per inter-stage port (1 = TMIN/VMIN, 2 = the paper's
        DMIN).  Injection and delivery stay single (one-port nodes; the
        paper leaves the extra network-edge channels unused).
    virtual_channels:
        Lanes per inter-stage and delivery wire (1 = TMIN/DMIN, 2 = the
        paper's VMIN).  Injection stays single-lane: the one-port source
        transmits messages serially anyway.
    """

    def __init__(
        self,
        spec: MINSpec,
        dilation: int = 1,
        virtual_channels: int = 1,
    ) -> None:
        if dilation < 1 or virtual_channels < 1:
            raise ValueError("dilation and virtual_channels must be >= 1")
        if dilation > 1 and virtual_channels > 1:
            raise ValueError(
                "the paper's networks are dilated OR virtual-channelled, not both"
            )
        self.spec = spec
        self.N = spec.N
        self.dilation = dilation
        self.virtual_channels = virtual_channels
        if dilation > 1:
            self.kind = NetworkKind.DMIN
        elif virtual_channels > 1:
            self.kind = NetworkKind.VMIN
        else:
            self.kind = NetworkKind.TMIN
        self.router = TagRouter(spec)
        #: Memoized (src, dst) -> slot-path table (see routing.memo).
        self.paths = PathTable(spec)

        n, N = spec.n, spec.N
        #: slot (boundary, producer position) -> channels serving it
        self.slots: dict[tuple[int, int], list[PhysChannel]] = {}
        ordered: list[PhysChannel] = []
        # Downstream first: delivery boundary n, then n-1 ... then injection.
        for boundary in range(n, -1, -1):
            for pos in range(N):
                if boundary == n:
                    chans = [
                        PhysChannel(
                            f"dlv[{pos}]",
                            num_lanes=virtual_channels,
                            is_delivery=True,
                            sink=spec.connections[n](pos),
                        )
                    ]
                elif boundary == 0:
                    chans = [PhysChannel(f"inj[{pos}]", num_lanes=1)]
                else:
                    chans = [
                        PhysChannel(
                            f"b{boundary}[{pos}].{lane}",
                            num_lanes=virtual_channels,
                        )
                        for lane in range(dilation)
                    ]
                self.slots[(boundary, pos)] = chans
                ordered.extend(chans)
        self._finalize_topo(ordered)

    def injection_channel(self, node: int) -> PhysChannel:
        """Boundary-0 channel at the node's own position."""
        return self.slots[(0, node)][0]

    def prepare(self, packet: Packet) -> None:
        """Precompute the unique path's (boundary, position) slots.

        The path list comes from the memoized :class:`PathTable` and is
        shared between packets of the same (src, dst) pair; nothing
        mutates ``packet.slots`` after this point.
        """
        packet.slots = self.paths.path(packet.src, packet.dst)
        packet.hop = 0

    def candidates(self, packet: Packet) -> list[PhysChannel]:
        """Channels of the next slot (d of them when dilated)."""
        assert packet.slots is not None, "prepare() not called"
        return self.slots[packet.slots[packet.hop + 1]]

    def advance(self, packet: Packet, channel: PhysChannel) -> None:
        """Move the routing cursor one slot forward."""
        packet.hop += 1


class BidirectionalNetwork(SimNetwork):
    """The BMIN with turnaround routing.

    ``virtual_channels`` adds lanes to every network wire (a future-work
    variant the paper suggests); the paper's BMIN uses 1.
    """

    def __init__(self, bmin: BidirectionalMIN, virtual_channels: int = 1) -> None:
        if virtual_channels < 1:
            raise ValueError("virtual_channels must be >= 1")
        self.bmin = bmin
        self.N = bmin.N
        self.kind = NetworkKind.BMIN
        self.virtual_channels = virtual_channels
        k, n, N = bmin.k, bmin.n, bmin.N
        self.tables: BminTables  # set after the channel dicts below

        self.fwd: dict[tuple[int, int], PhysChannel] = {}
        self.bwd: dict[tuple[int, int], PhysChannel] = {}
        ordered: list[PhysChannel] = []
        # Downstream first: backward channels ascending boundary (the
        # delivery boundary 0 first), then forward channels descending.
        for boundary in range(n):
            for line in range(N):
                if boundary == 0:
                    ch = PhysChannel(
                        f"bwd0[{line}]",
                        num_lanes=virtual_channels,
                        is_delivery=True,
                        sink=line,
                    )
                else:
                    ch = PhysChannel(
                        f"bwd{boundary}[{line}]", num_lanes=virtual_channels
                    )
                ch.meta = ("bwd", boundary, line)
                self.bwd[(boundary, line)] = ch
                ordered.append(ch)
        for boundary in range(n - 1, -1, -1):
            for line in range(N):
                lanes = 1 if boundary == 0 else virtual_channels
                ch = PhysChannel(f"fwd{boundary}[{line}]", num_lanes=lanes)
                ch.meta = ("fwd", boundary, line)
                self.fwd[(boundary, line)] = ch
                ordered.append(ch)
        self._finalize_topo(ordered)
        #: Memoized per-(switch, destination-digit) candidate tables.
        self.tables = BminTables(k, n, self.fwd, self.bwd)

    def injection_channel(self, node: int) -> PhysChannel:
        """The node's forward boundary-0 channel."""
        return self.fwd[(0, node)]

    def prepare(self, packet: Packet) -> None:
        """Compute the turn stage and reset the up-phase cursor."""
        packet.bmin_turn = self.tables.turn(packet.src, packet.dst)
        packet.bmin_going_up = True
        packet.bmin_boundary = 0
        packet.bmin_line = packet.src

    def candidates(self, packet: Packet) -> list[PhysChannel]:
        """Fig. 7's decision, as concrete channels (see module docs).

        All three branches answer from the memoized
        :class:`~repro.routing.memo.BminTables` (callers never mutate
        the returned lists):

        * turnaround (up, b == turn): left output port l_{d_b}
          (Fig. 7, step 2);
        * forward (up): any right port (Fig. 7, step 3);
        * down, at the stage-(b-1) switch: left port l_{d_{b-1}}
          (Fig. 7, step 4; b == 0 never asks -- that hop was delivery).
        """
        b = packet.bmin_boundary
        line = packet.bmin_line
        if packet.bmin_going_up:
            if b == packet.bmin_turn:
                return self.tables.turn_candidates(b, line, packet.dst)
            return self.tables.up_candidates(b, line)
        return self.tables.down_candidates(b, line, packet.dst)

    def advance(self, packet: Packet, channel: PhysChannel) -> None:
        """Update phase/boundary/line from the acquired channel."""
        direction, boundary, line = channel.meta
        packet.bmin_boundary = boundary
        packet.bmin_line = line
        if direction == "bwd":
            packet.bmin_going_up = False


class SmartBidirectionalNetwork(BidirectionalNetwork):
    """BMIN with one-step-lookahead forward selection.

    The paper (Section 5.3.3) notes that under permutation traffic the
    BMIN could route contention-free "if the forward channel is
    properly chosen".  This variant implements a cheap version of
    "properly": among the free forward candidates at stage b, prefer
    those whose *implied backward channel at boundary b+1* -- fully
    determined once digit b is chosen, since the down line at boundary
    j carries the forward scramble below j and the destination digits
    above -- is currently free.  (It peeks at remote channel state, so
    it is an upper-bound experiment, not a realizable distributed
    policy; see ``tests/wormhole/test_smart_bmin.py``.)
    """

    def preferred_lane(self, packet: Packet, free: list, rng):
        """Prefer forward lanes whose implied next down channel is free."""
        if not packet.bmin_going_up:
            return None
        k, n = self.bmin.k, self.bmin.n
        b = packet.bmin_boundary  # header at stage b; candidates at b+1
        d_digits = to_digits(packet.dst, k, n)
        good = []
        for lane in free:
            meta = lane.channel.meta
            if meta is None or meta[0] != "fwd":
                return None  # deterministic hop: nothing to bias
            line = meta[2]
            digits = list(to_digits(line, k, n))
            down_digits = digits[: b + 1] + list(d_digits[b + 1 :])
            down = self.bwd[(b + 1, from_digits(down_digits, k))]
            if not down.busy and not down.faulty:
                good.append(lane)
        if good:
            return good[0] if len(good) == 1 else rng.choice(good)
        return None


def build_network(
    kind: str | NetworkKind,
    k: int = 4,
    n: int = 3,
    topology: str = "cube",
    dilation: int = 2,
    virtual_channels: int = 2,
    bmin_virtual_channels: int = 1,
    router: str = "dor",
    vlink_slowdown: int = 1,
    adaptive_lanes: int = 1,
) -> SimNetwork:
    """Construct one of the paper's four networks or a direct fabric.

    ``kind`` is "tmin", "dmin", "vmin", "bmin", "mesh3d" or "torus3d".
    ``topology`` selects the Delta MIN for the unidirectional kinds
    (the paper settles on "cube"; "butterfly" reproduces Figs. 16-17).
    ``dilation`` applies to DMIN, ``virtual_channels`` to VMIN,
    ``bmin_virtual_channels`` to the BMIN future-work variant.  The
    direct kinds read ``k``/``n`` as the k-ary n-dimensional geometry
    plus ``router`` ("dor" | "adaptive"), ``vlink_slowdown`` and
    ``adaptive_lanes`` (see :mod:`repro.direct.network`).
    """
    kind = NetworkKind(kind) if not isinstance(kind, NetworkKind) else kind
    if kind in (NetworkKind.MESH3D, NetworkKind.TORUS3D):
        # Local import: repro.direct imports this module at load time.
        from repro.direct.network import DirectNetwork
        from repro.direct.topo import DirectTopology

        return DirectNetwork(
            DirectTopology(k=k, n=n, wrap=kind is NetworkKind.TORUS3D),
            router=router,
            adaptive_lanes=adaptive_lanes,
            vlink_slowdown=vlink_slowdown,
        )
    if kind is NetworkKind.BMIN:
        return BidirectionalNetwork(
            BidirectionalMIN(k, n), virtual_channels=bmin_virtual_channels
        )
    spec = build_min(topology, k, n)
    if kind is NetworkKind.TMIN:
        return UnidirectionalNetwork(spec)
    if kind is NetworkKind.DMIN:
        return UnidirectionalNetwork(spec, dilation=dilation)
    return UnidirectionalNetwork(spec, virtual_channels=virtual_channels)
