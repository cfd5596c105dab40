"""Reproducible random-variate streams for workload generation.

Every stochastic element of the simulator (arrival times, destinations,
message lengths, adaptive channel choices) draws from a
:class:`RandomStream`.  A stream is seeded explicitly, and independent
sub-streams can be forked deterministically with :meth:`RandomStream.fork`
so that, e.g., changing the arrival process of node 7 does not perturb
the draws seen by node 8 — the standard variance-reduction discipline
for simulation comparison studies like the paper's.  The fast engine
tier serves its allocation draws through :class:`PrefetchStream`, the
same stream read in bulk.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class RandomStream:
    """A seeded random stream with the variate generators the paper needs."""

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        # The one sanctioned use of the stdlib PRNG: RandomStream *is*
        # the seeded wrapper everything else must draw from.
        self._rng = random.Random(seed)  # lint-sim: ignore[RPV001]

    def fork(self, key: str) -> "RandomStream":
        """A deterministically derived, independent sub-stream."""
        child_seed = self._derive_seed(key)
        return RandomStream(child_seed, name=f"{self.name}/{key}")

    def _derive_seed(self, key: str) -> int:
        # Stable across runs and Python processes (unlike hash()).
        base = self.seed if self.seed is not None else 0
        acc = 1469598103934665603  # FNV-1a offset basis
        for ch in f"{base}:{key}":
            acc ^= ord(ch)
            acc = (acc * 1099511628211) & 0xFFFFFFFFFFFFFFFF
        return acc

    # -- variates ---------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Negative-exponential variate with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        u = self._rng.random()
        while u <= 0.0:  # pragma: no cover - probability ~0
            u = self._rng.random()
        return -mean * math.log(u)

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer on [low, high] inclusive."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self._rng.randint(low, high)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float on [low, high)."""
        return low + (high - low) * self._rng.random()

    def random(self) -> float:
        """Uniform float on [0, 1)."""
        return self._rng.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly random element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self._rng.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher–Yates shuffle."""
        self._rng.shuffle(seq)

    def shuffle_k(self, seq: list, k: int) -> None:
        """``k`` successive :meth:`shuffle` passes over ``seq``.

        Replays deferred service-order shuffles (see
        ``WormholeEngine._flush_shuffles``): the same permutation and
        the same draws as ``k`` separate calls.
        """
        shuffle = self._rng.shuffle
        for _ in range(k):
            shuffle(seq)

    def bimodal_int(
        self, low: int, high: int, short_fraction: float, split: int
    ) -> int:
        """Bimodal integer: short uniform [low, split] w.p. ``short_fraction``,
        else long uniform (split, high].

        Models the short/long/bimodal message-size study the paper lists
        as future work.
        """
        if not (low <= split < high):
            raise ValueError("need low <= split < high")
        if not 0.0 <= short_fraction <= 1.0:
            raise ValueError("short_fraction must be in [0, 1]")
        if self._rng.random() < short_fraction:
            return self._rng.randint(low, split)
        return self._rng.randint(split + 1, high)

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Index i with probability weights[i] / sum(weights)."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        x = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError("weights must be non-negative")
            acc += w
            if x < acc:
                return i
        return len(weights) - 1  # pragma: no cover - float edge

    def __repr__(self) -> str:
        return f"<RandomStream {self.name!r} seed={self.seed}>"


#: Words one :class:`PrefetchStream` refill draws from the generator.
_PREFETCH = 4096
#: One little-endian word, read in place from a refill's raw bytes.
_WORD = struct.Struct("<I")
#: The largest bound served from a word's top byte: ``_randbelow(n)``
#: keeps the top ``n.bit_length()`` bits, at most 8 for ``n <= 255``.
_TOP_MAX = 255
#: The top-byte Fisher-Yates draws in pass order: ``(i, shift)`` for
#: ``i = 254 .. 1``, where draw ``i`` is ``top >> shift`` and accepts
#: values ``<= i``.  A pass over ``n <= 255`` items is the suffix
#: ``_PAIRS[255 - n:]``.
_PAIRS = tuple((i, 8 - (i + 1).bit_length()) for i in range(_TOP_MAX - 1, 0, -1))
#: A fused chunk replays ``1 + _CHUNK // n`` passes over ``n`` items,
#: so its flattened pair tuple stays near ``_CHUNK`` entries.
_CHUNK = 512


class PrefetchStream:
    """The engine's allocation draws, served from prefetched words.

    CPython derives ``shuffle`` and ``choice`` from ``_randbelow(n)``:
    take the top ``n.bit_length()`` bits of the next 32-bit
    Mersenne-Twister word and reject values ``>= n``.  One
    ``getrandbits(32 * 4096)`` call returns the next 4096 words least
    significant first, so its little-endian bytes hold exactly the
    words those draws would have read one at a time, and byte
    ``4 * w + 3`` is word ``w``'s top byte.  A bound ``n <= 255`` needs
    at most 8 bits, all inside that byte, so such a draw is
    ``top[w] >> (8 - n.bit_length())`` on a small int from the slice
    ``raw[3::4]``; larger bounds unpack the whole word from ``raw``.
    Either way the draws are bit-identical to the wrapped stdlib
    generator's.  :meth:`shuffle_k` runs its passes as one loop over a
    shared ``(i, shift)`` table, in chunks of bounded size, and
    refills only when a read runs off the buffer's end.

    Only the draws the engine's allocation stream makes exist here.  It
    is deliberately not a :class:`RandomStream`: any other draw raises
    ``AttributeError`` instead of silently reading the generator behind
    the buffer.
    """

    __slots__ = ("_rng", "_raw", "_top", "_ptr")

    _rng: random.Random
    #: The refill's words, little-endian, ``4 * _PREFETCH`` bytes.
    _raw: bytes
    #: ``_raw[3::4]``: each word's top byte.
    _top: bytes
    #: Index of the next unread word.
    _ptr: int

    @classmethod
    def adopt(cls, stream: RandomStream) -> "PrefetchStream":
        """Continue ``stream``'s draws verbatim.

        The adopted generator advances a whole refill at a time, so
        ``stream`` itself must not be drawn from again.
        """
        obj = cls.__new__(cls)
        obj._rng = stream._rng
        obj._raw = obj._top = b""
        obj._ptr = 0
        return obj

    def _refill(self) -> None:
        raw = self._rng.getrandbits(32 * _PREFETCH).to_bytes(4 * _PREFETCH, "little")
        self._raw = raw
        self._top = raw[3::4]

    def _below(self, n: int) -> int:
        """One ``_randbelow(n)`` draw (``n >= 1``), refilling as needed."""
        k = n.bit_length()
        ptr = self._ptr
        while True:
            if ptr >= len(self._top):
                self._refill()
                ptr = 0
            if k <= 8:
                j = self._top[ptr] >> (8 - k)
            else:
                j = _WORD.unpack_from(self._raw, 4 * ptr)[0] >> (32 - k)
            ptr += 1
            if j < n:
                self._ptr = ptr
                return j

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly random element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self._below(len(seq))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self.shuffle_k(seq, 1)

    def shuffle_k(self, seq: list, k: int) -> None:
        """``k`` successive :meth:`shuffle` passes over ``seq``.

        The swap indices are a pure function of the word stream, so
        the fused passes consume exactly the words -- and produce
        exactly the permutation -- of ``k`` separate shuffles.
        """
        n = len(seq)
        if n < 2 or k <= 0:
            return  # a 0/1-element Fisher-Yates draws nothing
        if n <= _TOP_MAX:
            self._passes(seq, _PAIRS[_TOP_MAX - n:], k)
            return
        below = self._below
        for _ in range(k):
            for i in range(n - 1, _TOP_MAX - 1, -1):
                j = below(i + 1)
                seq[i], seq[j] = seq[j], seq[i]
            self._passes(seq, _PAIRS, 1)

    def _passes(self, seq: list, one: tuple[tuple[int, int], ...], k: int) -> None:
        """``k`` top-byte passes over ``seq``, ``one`` being a single
        pass's ``(i, shift)`` draws."""
        per = 1 + _CHUNK // (len(one) + 1)
        top = self._top
        ptr = self._ptr
        while k > 0:
            c = per if per < k else k
            k -= c
            pairs = iter(one * c)
            while True:
                try:
                    for i, s in pairs:
                        j = top[ptr] >> s
                        ptr += 1
                        while j > i:
                            j = top[ptr] >> s
                            ptr += 1
                        seq[i], seq[j] = seq[j], seq[i]
                    break
                except IndexError:
                    # Only a ``top`` read can raise (``j <= i < n``): it
                    # ran off the buffer, so finish draw ``i`` on a
                    # fresh refill, then resume the chunk after it.
                    self._ptr = ptr
                    j = self._below(i + 1)
                    seq[i], seq[j] = seq[j], seq[i]
                    top = self._top
                    ptr = self._ptr
        self._ptr = ptr
