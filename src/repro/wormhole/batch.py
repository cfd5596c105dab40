"""Struct-of-arrays kernel of the ``batch`` engine tier.

The batch engine (``REPRO_ENGINE=batch`` / ``--engine=batch``) is the
fast engine plus two numpy-backed accelerations, each proven
bit-identical by ``tests/differential`` and ``tests/properties``:

* :class:`SoALedger` -- the free-run fast-forward schedule kept as
  struct-of-arrays numpy state instead of per-cycle dict buckets: one
  slot per free-running worm holding its entry cycle, head/tail lane
  indices, entry ``sent`` counter, delivery cycle (= remaining-flit
  count relative to the current cycle) and next-event cycle, plus a
  live bitmask.  A due-cycle index over the slots makes a quiet cycle
  one dict miss; the global next-due cycle (a lazily-cleaned key heap)
  is what lets the engine clock sleep across provably event-free cycle
  spans ("batched wake scheduling" -- ``WormholeEngine._span_cycles``).

* :class:`BatchStream` -- the engine's :class:`RandomStream` served
  from a numpy ``MT19937`` mirror of the CPython generator state.
  ``random_raw`` yields exactly the tempered 32-bit words CPython's
  ``genrand_uint32`` would produce, so every variate (Fisher-Yates
  shuffle draws, lane choices, floats) is reconstructed bit-identically
  from bulk-prefetched words -- same stream, a fraction of the per-draw
  cost.  ``tests/properties/test_batch_soa.py`` cross-checks every
  method against the stdlib generator draw by draw.

numpy is an *optional* dependency (``pip install repro[fast]``): this
module imports with numpy absent, :func:`require_numpy` raises a clean
error from the engine constructor, and tier-1 stays numpy-free (batch
tests skip themselves).
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.sim.rng import RandomStream

try:  # pragma: no cover - exercised via the no-numpy smoke test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Sentinel "no event scheduled" cycle (far beyond any simulation).
FAR = 1 << 62


def numpy_available() -> bool:
    """True when numpy importable (the batch tier's only extra dep)."""
    return _np is not None


def require_numpy() -> None:
    """Refuse cleanly when the batch tier is selected without numpy."""
    if _np is None:
        raise RuntimeError(
            "the batch engine requires numpy, which is not installed; "
            "install the optional extra (`pip install repro[fast]`) or "
            "select another tier (REPRO_ENGINE=fast / --engine=fast)"
        )


# --------------------------------------------------------------- RNG mirror


class BatchStream(RandomStream):
    """A :class:`RandomStream` served from mirrored MT19937 raw words.

    CPython's ``random.Random`` and numpy's ``MT19937`` bit generator
    share the exact Mersenne-Twister state layout and tempering, so a
    generator state copied via ``getstate()`` makes ``random_raw(n)``
    produce precisely the words ``genrand_uint32`` would.  Every public
    variate below reimplements the CPython derivation (``_randbelow``
    rejection sampling, the 53-bit float construction) over a
    bulk-prefetched word buffer: the stream is bit-identical, but a
    32-entry shuffle costs one list walk instead of 31 method calls
    into the stdlib.

    Only the engine's allocation stream is adopted (workload streams
    keep the stdlib path), and the wrapped ``random.Random`` is never
    drawn from again after adoption -- the mirror owns the state.
    """

    _PREFETCH = 4096
    #: ``32 - (i + 1).bit_length()`` for the Fisher-Yates index draws.
    _SHIFTS = [32 - (i + 1).bit_length() for i in range(4096)]

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        super().__init__(seed, name=name)
        self._mirror(self._rng.getstate())

    @classmethod
    def adopt(cls, stream: RandomStream) -> "BatchStream":
        """Wrap an existing stream, continuing its stream verbatim."""
        obj = cls.__new__(cls)
        obj.seed = stream.seed
        obj.name = stream.name
        obj._rng = stream._rng
        obj._mirror(stream._rng.getstate())
        return obj

    def _mirror(self, state: tuple) -> None:
        require_numpy()
        _, internal, _ = state
        mt = _np.random.MT19937()
        mt.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": _np.array(internal[:624], dtype=_np.uint64),
                "pos": internal[624],
            },
        }
        self._mt = mt
        self._buf: list[int] = []
        self._ptr = 0

    def _refill(self) -> None:
        self._buf = self._mt.random_raw(self._PREFETCH).tolist()
        self._ptr = 0

    # -- CPython draw derivations, word by word ---------------------------

    def _getrandbits(self, k: int) -> int:
        """``random.Random.getrandbits(k)`` from mirrored words."""
        if k <= 32:
            if self._ptr >= len(self._buf):
                self._refill()
            w = self._buf[self._ptr] >> (32 - k)
            self._ptr += 1
            return w
        out = 0
        shift = 0
        while k > 0:
            if self._ptr >= len(self._buf):
                self._refill()
            w = self._buf[self._ptr]
            self._ptr += 1
            if k < 32:
                w >>= 32 - k
            out |= w << shift
            shift += 32
            k -= 32
        return out

    def _randbelow(self, n: int) -> int:
        """``random.Random._randbelow(n)``: rejection on ``bit_length``."""
        k = n.bit_length()
        r = self._getrandbits(k)
        while r >= n:
            r = self._getrandbits(k)
        return r

    def _random(self) -> float:
        """``random.Random.random()``: two words -> one 53-bit float."""
        if self._ptr + 2 > len(self._buf):
            self._refill()
        buf = self._buf
        a = buf[self._ptr] >> 5
        b = buf[self._ptr + 1] >> 6
        self._ptr += 2
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    # -- RandomStream surface ---------------------------------------------

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError("mean must be positive")
        import math

        u = self._random()
        while u <= 0.0:  # pragma: no cover - probability ~0
            u = self._random()
        return -mean * math.log(u)

    def uniform_int(self, low: int, high: int) -> int:
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._randbelow(high - low + 1)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._random()

    def random(self) -> float:
        return self._random()

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self._randbelow(len(seq))]

    def shuffle(self, seq: list) -> None:
        n = len(seq)
        if n < 2:
            return  # a 0/1-element Fisher-Yates draws nothing
        buf = self._buf
        nb = len(buf)
        ptr = self._ptr
        shifts = self._SHIFTS
        for i in range(n - 1, 0, -1):
            sh = shifts[i] if i < 4096 else 32 - (i + 1).bit_length()
            while True:
                if ptr >= nb:
                    self._refill()
                    buf = self._buf
                    nb = len(buf)
                    ptr = 0
                j = buf[ptr] >> sh
                ptr += 1
                if j <= i:
                    break
            seq[i], seq[j] = seq[j], seq[i]
        self._ptr = ptr

    def shuffle_k(self, seq: list, k: int) -> None:
        """``k`` successive Fisher-Yates passes over ``seq``, fused.

        Replays the service-order shuffles of ``k`` skipped all-blocked
        cycles (see ``WormholeEngine._span_cycles``): the swap indices
        are a pure function of the word stream, so running the passes
        back to back consumes exactly the words -- and produces exactly
        the permutation -- that per-cycle execution would have.
        """
        n = len(seq)
        if n < 2 or k <= 0:
            return
        buf = self._buf
        nb = len(buf)
        ptr = self._ptr
        shifts = self._SHIFTS
        rng = range(n - 1, 0, -1)
        for _ in range(k):
            for i in rng:
                sh = shifts[i] if i < 4096 else 32 - (i + 1).bit_length()
                while True:
                    if ptr >= nb:
                        self._refill()
                        buf = self._buf
                        nb = len(buf)
                        ptr = 0
                    j = buf[ptr] >> sh
                    ptr += 1
                    if j <= i:
                        break
                seq[i], seq[j] = seq[j], seq[i]
        self._ptr = ptr

    def bimodal_int(
        self, low: int, high: int, short_fraction: float, split: int
    ) -> int:
        if not (low <= split < high):
            raise ValueError("need low <= split < high")
        if not 0.0 <= short_fraction <= 1.0:
            raise ValueError("short_fraction must be in [0, 1]")
        if self._random() < short_fraction:
            return low + self._randbelow(split - low + 1)
        return split + 1 + self._randbelow(high - split)

    def weighted_index(self, weights) -> int:
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        x = self._random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError("weights must be non-negative")
            acc += w
            if x < acc:
                return i
        return len(weights) - 1  # pragma: no cover - float edge

    def __repr__(self) -> str:
        return f"<BatchStream {self.name!r} seed={self.seed}>"


# ----------------------------------------------------------- free-run SoA


class SoALedger:
    """SoA schedule of free-running (delivery-phase) worms.

    One slot per worm that entered free-run streaming (see
    ``WormholeEngine._enter_lazy``): numpy int64 columns hold the entry
    cycle (``base``), the entry head ``sent`` snapshot (``sent0``), the
    first-owned/tail and head lane indices (``s``/``n1``) and the
    delivery cycle (``deliver`` -- the worm's remaining-flit count is
    simply ``deliver - cycle``); ``live`` is the slot bitmask.  The
    columns are what the bulk materializer and the property suite's
    round-trip oracle read, and they fully determine the worm's future.

    The worm's observable events -- an optional upstream-buffer drain
    at ``base + 1`` (when ``s > 0``), a contiguous burst of tail
    releases and buffer drains over ``[deliver - (n1 - s), deliver]``,
    and the delivery itself -- are expanded *once* at :meth:`add` into
    per-cycle due buckets, in exactly the tuple format and insertion
    order of the fast path's dict-bucket ledger (so within-cycle tie
    order under the engine's stable topo sort is identical by
    construction).  A due cycle is then one dict pop and a quiet cycle
    one integer compare; a min-heap of bucket keys backs
    :meth:`next_due`, the clock's span-sleep horizon.

    Removal (delivery, abort, mode-switch materialization) only frees
    the slot: stale scheduled actions are cancelled by the engine's
    per-worm token bump, exactly as on the fast path, and stale bucket
    keys can only make :meth:`next_due` stale *low* -- a shorter span
    or an empty visit, never skipped work.
    """

    def __init__(self, capacity: int = 64) -> None:
        require_numpy()
        self._cap = capacity
        self.base = _np.zeros(capacity, _np.int64)
        self.sent0 = _np.zeros(capacity, _np.int64)
        self.s = _np.zeros(capacity, _np.int64)
        self.n1 = _np.zeros(capacity, _np.int64)
        self.deliver = _np.zeros(capacity, _np.int64)
        self.live = _np.zeros(capacity, bool)
        self.pkts: list = [None] * capacity
        self._free = list(range(capacity - 1, -1, -1))
        #: High-water slot index + 1 (bounds every vectorized scan).
        self._top = 0
        self.count = 0
        #: Due buckets (cycle -> action list) and the min-heap of their
        #: keys (the span horizon; lazily purged).
        self._due: dict = {}
        self._dheap: list = []

    def _grow(self) -> None:
        old = self._cap
        new = old * 2
        for name in ("base", "sent0", "s", "n1", "deliver"):
            grown = _np.zeros(new, _np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        grown = _np.zeros(new, bool)
        grown[:old] = self.live
        self.live = grown
        self.pkts.extend([None] * old)
        self._free.extend(range(new - 1, old - 1, -1))
        self._cap = new

    def add(self, p, s: int, n1: int, cycle: int, deliver: int) -> int:
        """Register a worm entering free-run; returns its slot.

        Expands the worm's whole action schedule into the due buckets
        -- tuples, keys and insertion order identical to the fast
        path's ``_enter_lazy`` -- and snapshots the SoA columns.
        """
        if not self._free:
            self._grow()
        slot = self._free.pop()
        lanes = p.lanes
        self.base[slot] = cycle
        self.sent0[slot] = lanes[n1].sent
        self.s[slot] = s
        self.n1[slot] = n1
        self.deliver[slot] = deliver
        self.live[slot] = True
        self.pkts[slot] = p
        if slot >= self._top:
            self._top = slot + 1
        self.count += 1
        tok = p._lz_token
        due = self._due
        dheap = self._dheap
        for i in range(s, n1):
            lane = lanes[i]
            # Tail crosses lane i once the head is (n1 - i) deliveries
            # from done; the buffered tail flit drains one cycle later
            # via the downstream channel's move.
            t = deliver - (n1 - i)
            bucket = due.get(t)
            if bucket is None:
                due[t] = bucket = []
                heapq.heappush(dheap, t)
            bucket.append((lane.channel.topo_order, 1, p, tok, lane))
            down = lanes[i + 1].channel.topo_order
            bucket = due.get(t + 1)
            if bucket is None:
                due[t + 1] = bucket = []
                heapq.heappush(dheap, t + 1)
            bucket.append((down, 0, p, tok, lane))
        if s:
            # The already-released lane just upstream still buffers one
            # flit; lane ``s`` consumes it on its next -- provably last
            # -- move, one cycle from now.
            bucket = due.get(cycle + 1)
            if bucket is None:
                due[cycle + 1] = bucket = []
                heapq.heappush(dheap, cycle + 1)
            bucket.append(
                (lanes[s].channel.topo_order, 0, p, tok, lanes[s - 1])
            )
        bucket = due.get(deliver)
        if bucket is None:
            due[deliver] = bucket = []
            heapq.heappush(dheap, deliver)
        bucket.append((lanes[n1].channel.topo_order, 2, p, tok, lanes[n1]))
        return slot

    def remove(self, slot: int) -> None:
        """Free a slot (abort / materialization / delivery).

        Scheduled actions stay in their buckets; the owner's token bump
        cancels them at execution time (fast-path semantics).
        """
        self.live[slot] = False
        self.pkts[slot] = None
        self._free.append(slot)
        self.count -= 1

    def next_due(self) -> int:
        """Earliest cycle with a scheduled action (FAR if none).

        Never later than the true next due cycle (cancelled actions can
        only leave it stale *low*), so span skipping can trust it as a
        horizon.
        """
        h = self._dheap
        return h[0] if h else FAR

    def pop_due(self, cycle: int) -> Optional[list]:
        """Due actions of ``cycle``, as ``(topo, kind, pkt, token, lane)``.

        Returns None when nothing is due.  Cancelled actions (worm
        aborted or materialized since scheduling) may be present; the
        engine's executor drops them by token, exactly as on the fast
        path.  The delivery frees the worm's slot via the engine (the
        packet records it).
        """
        h = self._dheap
        # Purge keys the clock has passed without visiting (possible
        # only while no free-run worm was live, i.e. stale buckets).
        while h and h[0] < cycle:
            self._due.pop(heapq.heappop(h), None)
        if not h or h[0] > cycle:
            return None
        heapq.heappop(h)
        return self._due.pop(cycle)

    def live_packets(self) -> list:
        """The packets of every live slot (bulk materialization)."""
        top = self._top
        idx = _np.nonzero(self.live[:top])[0]
        return [self.pkts[w] for w in idx.tolist()]

    def clear(self) -> None:
        """Drop every slot (after the engine materialized the worms)."""
        self.live[: self._top] = False
        for w in range(self._top):
            self.pkts[w] = None
        self._free = list(range(self._cap - 1, -1, -1))
        self._top = 0
        self.count = 0
        self._due.clear()
        self._dheap.clear()
