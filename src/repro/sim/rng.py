"""Reproducible random-variate streams for workload generation.

Every stochastic element of the simulator (arrival times, destinations,
message lengths, adaptive channel choices) draws from a
:class:`RandomStream`.  A stream is seeded explicitly, and independent
sub-streams can be forked deterministically with :meth:`RandomStream.fork`
so that, e.g., changing the arrival process of node 7 does not perturb
the draws seen by node 8 — the standard variance-reduction discipline
for simulation comparison studies like the paper's.
"""

from __future__ import annotations

import math
import random
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
