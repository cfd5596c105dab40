"""Direct-topology wormhole networks: DOR and credit-aware adaptive.

Channel model
-------------
Every directed link of the :class:`~repro.direct.topo.DirectTopology`
carries one single-lane :class:`~repro.wormhole.channel.PhysChannel`
per *virtual lane*, labelled ``"x+[1,2,0].e0"`` (dimension, direction,
source-node coordinates, lane tag):

* ``.e{c}`` -- escape lanes, restricted to dimension-order routing.
  A mesh needs one class per direction; a torus needs two (the
  dateline scheme below).
* ``.a{j}`` -- fully adaptive lanes (adaptive router only).

Modeling each virtual lane as its own channel lets the routing
function address lanes individually (pick an escape *class*, score
adaptive lanes) -- something the engine's any-free-lane allocation on
a shared wire cannot express.  The cost is that lanes of one link no
longer share a wire's cycle budget; ``vlink_slowdown`` restores a
bandwidth knob where it matters most (slow vertical/TSV links in the
last dimension, cf. 3D-stacked NoCs).

Deadlock freedom (what ``repro.verify`` certifies)
--------------------------------------------------
DOR on a mesh orders channels by (dimension, direction, position):
every dependency increases the rank, so the CDG is acyclic.  On a
torus a ring's wrap link would close a cycle; the *dateline* scheme
splits each direction's ring into two escape classes -- class 0
strictly before the packet's wrap crossing (``cur > dst`` going +,
``cur < dst`` going -), class 1 after -- and a packet's class can only
step 0 -> 1 (at the wrap), never back, so the rank
(dimension, direction, class, position) still strictly increases.

The adaptive router's full CDG is *expected* to be cyclic -- that is
precisely why escape lanes exist.  Deadlock freedom follows from
Duato's theorem: every reachable routing state keeps an escape
candidate (coverage), and the escape sub-CDG -- including *indirect*
dependencies through adaptive lanes a packet may hold in between --
is acyclic.  Minimal adaptivity keeps the rank argument valid for the
indirect edges too: a resolved dimension never un-resolves, within a
dimension a packet's travel direction never flips, and the dateline
class never reverts.  :func:`repro.verify.cdg.check_escape_acyclic`
and :func:`repro.verify.cdg.check_escape_coverage` machine-check both
claims; a deliberately broken dateline
(:func:`repro.verify.negative.build_direct_negative_control`) must
yield a cycle witness.
"""

from __future__ import annotations

from repro.direct.topo import DirectTopology, dim_name
from repro.wormhole.channel import PhysChannel
from repro.wormhole.network import NetworkKind, SimNetwork
from repro.wormhole.packet import Packet

#: Supported routing functions.
ROUTERS = ("dor", "adaptive")


class DirectNetwork(SimNetwork):
    """3D mesh / torus with dimension-order or adaptive minimal routing.

    Parameters
    ----------
    topo:
        The mesh/torus geometry.
    router:
        "dor" (deterministic dimension-order; escape lanes only) or
        "adaptive" (minimal fully-adaptive over ``adaptive_lanes``
        lanes per link, credit-aware, escape fallback).
    adaptive_lanes:
        Fully adaptive lanes per directed link (adaptive router only).
    vlink_slowdown:
        Cycles per flit on last-dimension ("vertical") links; 1 means
        full speed.  Models the slower through-silicon vias of a
        3D-stacked fabric.
    """

    #: Routes can revisit a channel rank under adaptive routing (the
    #: full CDG is cyclic by design), so the engine's per-worm Phase B
    #: -- which assumes lanes are acquired in ascending topological
    #: order -- must stay off; the active-channel sweep handles any
    #: acquisition order bit-identically.  Free-run and span sleep
    #: still apply on unslowed fabrics: a streaming worm's buffers
    #: hold the steady pattern the sweep order sets (see
    #: :mod:`repro.wormhole.ledger`).
    worm_phase_ok = False

    def __init__(
        self,
        topo: DirectTopology,
        router: str = "dor",
        adaptive_lanes: int = 1,
        vlink_slowdown: int = 1,
    ) -> None:
        if router not in ROUTERS:
            raise ValueError(f"unknown router {router!r}; pick one of {ROUTERS}")
        if adaptive_lanes < 1:
            raise ValueError("adaptive_lanes must be >= 1")
        if vlink_slowdown < 1:
            raise ValueError("vlink_slowdown must be >= 1")
        self.topo = topo
        self.router = router
        self.adaptive_lanes = adaptive_lanes
        self.vlink_slowdown = vlink_slowdown
        self.kind = NetworkKind.TORUS3D if topo.wrap else NetworkKind.MESH3D
        self.N = topo.N
        #: Escape classes per direction: the torus dateline needs two.
        self.escape_classes = 2 if topo.wrap else 1

        self.dlv: list[PhysChannel] = [
            PhysChannel(f"dlv[{i}]", is_delivery=True, sink=i)
            for i in range(self.N)
        ]
        self.escape: dict[tuple[int, int, int, int], PhysChannel] = {}
        self.adaptive: dict[tuple[int, int, int], list[PhysChannel]] = {}
        #: node -> its outgoing fabric channels (all lanes, all links);
        #: the adaptive router's downstream-credit pool.
        self._out: list[list[PhysChannel]] = [[] for _ in range(self.N)]

        # Downstream-ish processing order for Phase B: delivery first,
        # then fabric lanes by descending dimension (DOR visits low
        # dimensions first, so high dimensions sit downstream), escape
        # class 1 (post-dateline) before class 0, injection last.
        ordered: list[PhysChannel] = list(self.dlv)
        for dim in range(topo.n - 1, -1, -1):
            slowdown = vlink_slowdown if dim == topo.n - 1 else 1
            for u in range(self.N):
                coords = ",".join(str(c) for c in topo.coords(u))
                for sign in (1, -1):
                    v = topo.neighbor(u, dim, sign)
                    if v is None:
                        continue
                    base = f"{dim_name(dim)}{'+' if sign > 0 else '-'}[{coords}]"
                    for cls in range(self.escape_classes - 1, -1, -1):
                        ch = PhysChannel(f"{base}.e{cls}", slowdown=slowdown)
                        ch.meta = (dim, sign, u, v, "esc", cls)
                        self.escape[(u, dim, sign, cls)] = ch
                        self._out[u].append(ch)
                        ordered.append(ch)
                    if router == "adaptive":
                        lanes = []
                        for j in range(adaptive_lanes):
                            ch = PhysChannel(f"{base}.a{j}", slowdown=slowdown)
                            ch.meta = (dim, sign, u, v, "adp", j)
                            lanes.append(ch)
                            self._out[u].append(ch)
                            ordered.append(ch)
                        self.adaptive[(u, dim, sign)] = lanes
        self.inj: list[PhysChannel] = [
            PhysChannel(f"inj[{i}]") for i in range(self.N)
        ]
        ordered.extend(self.inj)
        self._finalize_topo(ordered)

        #: Memoized (cur, dst) -> candidate list; callers never mutate
        #: the returned lists (same contract as the MIN path tables).
        self._cand: dict[tuple[int, int], list[PhysChannel]] = {}
        #: Per-node round-robin counters for adaptive tie-breaking.
        #: Instance state only -- deterministic and purity-safe; both
        #: engines call :meth:`preferred_lane` for the same headers in
        #: the same order, so the counters evolve identically.
        self._rr: list[int] = [0] * self.N

    # -- routing interface ------------------------------------------------

    def injection_channel(self, node: int) -> PhysChannel:
        return self.inj[node]

    def prepare(self, packet: Packet) -> None:
        """Routing state is just the current node."""
        packet.cur = packet.src

    def candidates(self, packet: Packet) -> list[PhysChannel]:
        """Adaptive lanes of every minimal direction, then the escape lane.

        At the destination the single candidate is the delivery
        channel.  The escape lane is always last, so the allocation
        policy can treat it as the fallback it is.
        """
        key = (packet.cur, packet.dst)
        cached = self._cand.get(key)
        if cached is None:
            cached = self._cand[key] = self._build_candidates(*key)
        return cached

    def _build_candidates(self, cur: int, dst: int) -> list[PhysChannel]:
        if cur == dst:
            return [self.dlv[cur]]
        out: list[PhysChannel] = []
        if self.router == "adaptive":
            for dim, sign in self.topo.min_directions(cur, dst):
                out.extend(self.adaptive[(cur, dim, sign)])
        out.append(self.escape[self._escape_hop(cur, dst)])
        return out

    def _escape_hop(self, cur: int, dst: int) -> tuple[int, int, int, int]:
        """The DOR-restricted escape hop: lowest unresolved dimension."""
        cc, dc = self.topo.coords(cur), self.topo.coords(dst)
        for dim in range(self.topo.n):
            c, d = cc[dim], dc[dim]
            if c == d:
                continue
            sign = self._dor_sign(c, d)
            return (cur, dim, sign, self._escape_class(c, d, sign))
        raise AssertionError("escape hop asked at the destination")

    def _dor_sign(self, c: int, d: int) -> int:
        """Deterministic minimal direction (torus tie resolves to +)."""
        if not self.topo.wrap:
            return 1 if d > c else -1
        fwd = (d - c) % self.topo.k
        return 1 if fwd <= self.topo.k - fwd else -1

    def _escape_class(self, c: int, d: int, sign: int) -> int:
        """Dateline class of the escape hop at coordinate ``c``.

        Class 0 strictly before the packet's wrap crossing, class 1
        after; a mesh never wraps and uses a single class.  Overridden
        by the verifier's negative control to prove the CDG check
        actually bites.
        """
        if not self.topo.wrap:
            return 0
        if sign > 0:
            return 0 if c > d else 1
        return 0 if c < d else 1

    def advance(self, packet: Packet, channel: PhysChannel) -> None:
        """The header moved to the link's downstream node."""
        meta = channel.meta
        if meta is not None:
            packet.cur = meta[3]

    # -- adaptive allocation policy ---------------------------------------

    def preferred_lane(self, packet: Packet, free: list, rng):
        """Credit-aware adaptive selection among free candidate lanes.

        Prefer adaptive lanes (the escape lane stays a fallback: it is
        only taken when it is the sole free candidate, in which case
        the engine never asks).  Among adaptive lanes, score each by
        its *downstream credit* -- the count of free outgoing fabric
        lanes at the link's far node, the local congestion signal a
        credit-based flow control would expose -- and take a max-score
        lane, breaking ties round-robin per source node.
        """
        if self.router != "adaptive":
            return None
        best: list = []
        best_score = -1
        for lane in free:
            meta = lane.channel.meta
            if meta is None or meta[4] != "adp":
                continue
            score = self._credits(meta[3])
            if score > best_score:
                best_score = score
                best = [lane]
            elif score == best_score:
                best.append(lane)
        if not best:
            return None  # escape (or delivery) only: default pick
        u = best[0].channel.meta[2]
        pick = best[self._rr[u] % len(best)]
        self._rr[u] += 1
        return pick

    def _credits(self, node: int) -> int:
        """Free outgoing fabric lanes at ``node`` (all single-lane)."""
        count = 0
        for ch in self._out[node]:
            if not ch.faulty and ch.lanes[0].owner is None:
                count += 1
        return count

    def node_output_channels(self, node: int) -> list[PhysChannel]:
        """All channels ``node``'s router drives (fabric + delivery).

        What a dead router silences -- the direct-topology switch
        model of :func:`repro.faults.plan.switch_output_channels`.
        """
        return list(self._out[node]) + [self.dlv[node]]

    # -- verifier interface -----------------------------------------------

    def is_escape(self, channel: PhysChannel) -> bool:
        """True for the DOR-restricted escape lanes."""
        meta = channel.meta
        return meta is not None and len(meta) == 6 and meta[4] == "esc"
