"""Mirrored allocation RNG of the ``batch`` engine tier.

The batch engine (``REPRO_ENGINE=batch`` / ``--engine=batch``) is the
default ``fast`` engine with one numpy-backed acceleration, proven
bit-identical by ``tests/differential`` and ``tests/properties``:
:class:`BatchStream` -- the engine's :class:`RandomStream` served from
a numpy ``MT19937`` mirror of the CPython generator state.
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

from typing import Optional

from repro.sim.rng import RandomStream

try:  # pragma: no cover - exercised via the no-numpy smoke test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


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
