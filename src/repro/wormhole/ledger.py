"""Free-run ledger of the optimized engine tier (``fast``).

A worm whose header streams into its destination with every owned
lane moving one flit per cycle has a deterministic remaining life (see
``WormholeEngine._enter_lazy``).  Its end-of-cycle buffers then hold a
steady pattern that the Phase B channel order sets: the buffer between
owned lanes i and i+1 holds one flit when the sweep visits lane i+1
first (always on a MIN, whose order is downstream-first) and none when
it visits lane i first (possible on the direct fabrics).  The engine
stops visiting such a worm and instead registers its future
*observable* effects here: each owned lane's tail release, each
released full buffer's final drain, and the delivery.
:meth:`FreeRunLedger.add` expands them once into per-cycle due
buckets; a due cycle is then one dict pop and a quiet cycle one
integer compare.  A min-heap of bucket keys backs
:meth:`FreeRunLedger.next_due`, the horizon that lets the engine clock
sleep across provably event-free cycle spans
(``WormholeEngine._span_cycles``).

Pure Python on purpose: the engine stays numpy-free, so that numpy's
import time never lands in its setup.
"""

from __future__ import annotations

import heapq
from typing import Optional

#: Sentinel "no event scheduled" cycle (far beyond any simulation).
FAR = 1 << 62


class FreeRunLedger:
    """Due buckets, their key heap, and the live free-running worms.

    Actions are ``(channel topo key, kind, packet, token, lane)`` tuples
    with kind 0 = final buffer drain, 1 = tail release, 2 = delivery;
    the engine sorts a popped bucket by ``(topo key, kind)`` so each
    action lands at the reference sweep's within-cycle position.

    Removal (delivery, abort, mode-switch materialization) only drops
    the worm from :attr:`live`: its scheduled actions stay in their
    buckets and are cancelled by the engine's per-worm token bump at
    execution time.  Stale bucket keys can only make :meth:`next_due`
    stale *low* -- a shorter span or an empty visit, never skipped work.
    """

    def __init__(self) -> None:
        #: Live free-running worms, in entry order (packet -> None).
        self.live: dict = {}
        #: Due buckets (cycle -> action list) and the min-heap of their
        #: keys (lazily purged).
        self._due: dict[int, list] = {}
        self._dheap: list[int] = []

    def _bucket(self, t: int) -> list:
        bucket = self._due.get(t)
        if bucket is None:
            self._due[t] = bucket = []
            heapq.heappush(self._dheap, t)
        return bucket

    def add(self, p, s: int, n1: int, cycle: int, deliver: int) -> None:
        """Register a worm entering free-run at ``cycle``.

        ``p.lanes[s:n1 + 1]`` are its owned lanes (head ``n1`` on the
        delivery channel) and ``deliver`` is the cycle its tail reaches
        the destination.  The owned lanes' buffers must hold the steady
        pattern: lane i releases ``sum(buf[i:n1])`` cycles before the
        delivery, and only a full buffer gets a final drain.
        """
        self.live[p] = None
        lanes = p.lanes
        tok = p._lz_token
        bucket = self._bucket
        # Flits buffered between lane s and the head (the steady
        # pattern's sum; see the module docstring).
        ahead = 0
        for i in range(s, n1):
            ahead += lanes[i].buf
        for i in range(s, n1):
            lane = lanes[i]
            # Tail crosses lane i once the head is ``ahead`` (the flits
            # buffered from lane i on) deliveries from done; a full
            # buffer's tail flit drains one cycle later via the
            # downstream channel's move, an empty one's within the
            # release cycle itself.
            t = deliver - ahead
            bucket(t).append((lane.channel.topo_order, 1, p, tok, lane))
            if lane.buf:
                down = lanes[i + 1].channel.topo_order
                bucket(t + 1).append((down, 0, p, tok, lane))
                ahead -= 1
        if s:
            # The already-released lane just upstream still buffers one
            # flit (its tail crossed, lane ``s`` has not); lane ``s``
            # consumes it on its next -- provably last -- move, one
            # cycle from now.
            bucket(cycle + 1).append(
                (lanes[s].channel.topo_order, 0, p, tok, lanes[s - 1])
            )
        bucket(deliver).append(
            (lanes[n1].channel.topo_order, 2, p, tok, lanes[n1])
        )

    def remove(self, p) -> None:
        """Drop a worm from the live set (its actions die by token)."""
        del self.live[p]

    def next_due(self) -> int:
        """Earliest cycle with a scheduled action (:data:`FAR` if none).

        Never later than the true next due cycle, so span skipping can
        trust it as a horizon.
        """
        h = self._dheap
        return h[0] if h else FAR

    def pop_due(self, cycle: int) -> Optional[list]:
        """The actions due at ``cycle``, or None when nothing is due.

        Cancelled actions may be present; the engine's executor drops
        them by token.
        """
        h = self._dheap
        # Purge keys the clock passed without visiting (possible only
        # while no free-run worm was live, i.e. stale buckets).
        while h and h[0] < cycle:
            self._due.pop(heapq.heappop(h), None)
        if not h or h[0] > cycle:
            return None
        heapq.heappop(h)
        return self._due.pop(cycle)

    def clear(self) -> None:
        """Forget every worm and bucket (after bulk materialization)."""
        self.live.clear()
        self._due.clear()
        self._dheap.clear()
