"""Draw-by-draw oracle for the fast tier's prefetched allocation stream.

The fast engine serves its allocation draws from
:class:`~repro.sim.rng.PrefetchStream`, which reads 4096 Mersenne-Twister
words per refill.  Its bit-identity claim is checked here against the
stdlib :class:`RandomStream`: every draw the engine makes (``shuffle``,
the fused ``shuffle_k`` that replays deferred service-order shuffles,
and ``choice``) must match over arbitrary interleaved call sequences,
including adoption mid-stream and sequences long enough to cross
several refills.  Bounds up to 255 read a word's top byte and larger
ones the whole word, so the cutoff and both sides of it are drawn
here too, as are ``shuffle_k`` counts that cross a fused chunk.
Numpy-free, like the engine.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.rng import _CHUNK, PrefetchStream, RandomStream  # noqa: E402

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: One RNG call applied identically to both streams: ``shuffle`` of a
#: ``range(n)`` list, ``shuffle_k`` of one ``k`` times, or ``choice``
#: from a ``range(n)`` list.
_ops = st.one_of(
    st.tuples(st.just("shuffle"), st.integers(0, 70)),
    st.tuples(st.just("shuffle_k"), st.integers(0, 70), st.integers(0, 6)),
    st.tuples(st.just("choice"), st.integers(1, 70)),
)

#: The same ops at bounds around the top-byte cutoff (255) and past it,
#: where draws read the whole word.
_WIDE = st.sampled_from([254, 255, 256, 257, 300, 600])
_wide_ops = st.one_of(
    st.tuples(st.just("shuffle"), _WIDE),
    st.tuples(st.just("shuffle_k"), _WIDE, st.integers(0, 3)),
    st.tuples(st.just("choice"), st.sampled_from([255, 256, 257])),
)


def _apply(stream, op):
    """Run one op; return its observable result."""
    name = op[0]
    seq = list(range(op[1]))
    if name == "choice":
        return stream.choice(seq)
    if name == "shuffle":
        stream.shuffle(seq)
    else:
        stream.shuffle_k(seq, op[2])
    return seq


class _CountingRandom(random.Random):  # lint-sim: ignore[RPV001] -- oracle
    """The stdlib generator, counting the 32-bit words it hands out."""

    words = 0

    def getrandbits(self, k):
        self.words += (k + 31) // 32
        return super().getrandbits(k)


@given(seed=seeds, ops=st.lists(_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_prefetch_draw_identity(seed, ops):
    """Arbitrary interleaved draw sequences match draw by draw."""
    ref = RandomStream(seed)
    fetched = PrefetchStream.adopt(RandomStream(seed))
    for op in ops:
        assert _apply(ref, op) == _apply(fetched, op), op


@given(seed=seeds, ops=st.lists(st.one_of(_ops, _wide_ops), max_size=12))
@settings(max_examples=60, deadline=None)
def test_prefetch_wide_draw_identity(seed, ops):
    """Draws at bounds 254-257, 300 and 600, mixed with small ones,
    match draw by draw: both sides of the top-byte cutoff."""
    ref = RandomStream(seed)
    fetched = PrefetchStream.adopt(RandomStream(seed))
    for op in ops:
        assert _apply(ref, op) == _apply(fetched, op), op


@given(
    seed=seeds,
    n=st.integers(min_value=2, max_value=255),
    chunks=st.integers(min_value=1, max_value=2),
    offset=st.integers(min_value=-1, max_value=1),
    tail=st.lists(_ops, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_shuffle_k_across_chunk_boundaries(seed, n, chunks, offset, tail):
    """``shuffle_k`` replays its passes in fused chunks of
    ``1 + _CHUNK // n``; pass counts just below, at and just past one
    or two whole chunks equal that many separate shuffles."""
    k = chunks * (1 + _CHUNK // n) + offset
    ref = RandomStream(seed)
    fetched = PrefetchStream.adopt(RandomStream(seed))
    a = list(range(n))
    b = list(range(n))
    for _ in range(k):
        ref.shuffle(a)
    fetched.shuffle_k(b, k)
    assert a == b, k
    for op in tail:
        assert _apply(ref, op) == _apply(fetched, op), op


@given(seed=seeds, warm=st.lists(_ops, max_size=15), ops=st.lists(_ops, max_size=25))
@settings(max_examples=100, deadline=None)
def test_prefetch_adopt_continues_stream(seed, warm, ops):
    """Adoption mid-stream continues the stdlib stream verbatim --
    exactly what the fast engine does to its allocation stream at
    construction time."""
    ref = RandomStream(seed)
    victim = RandomStream(seed)
    for op in warm:
        _apply(ref, op)
        _apply(victim, op)
    fetched = PrefetchStream.adopt(victim)
    for op in ops:
        assert _apply(ref, op) == _apply(fetched, op), op


@given(
    seed=seeds,
    n=st.integers(min_value=0, max_value=80),
    k=st.integers(min_value=0, max_value=12),
    tail=st.lists(_ops, max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_shuffle_k_equals_k_shuffles(seed, n, k, tail):
    """``shuffle_k(seq, k)`` == ``k`` sequential shuffles: the same
    permutation AND the same number of words consumed (the ``tail``
    draws diverge otherwise)."""
    ref = RandomStream(seed)
    fetched = PrefetchStream.adopt(RandomStream(seed))
    a = list(range(n))
    b = list(range(n))
    for _ in range(k):
        ref.shuffle(a)
    fetched.shuffle_k(b, k)
    assert a == b
    for op in tail:
        assert _apply(ref, op) == _apply(fetched, op), op


def test_draws_cross_refill_boundaries():
    """Each draw kind, repeated over more than three refills' worth of
    words, matches the stdlib stream -- so a draw of that kind reads
    the last word before every refill boundary, on the top-byte path
    and on the full-word one."""
    for op in (
        ("choice", 3), ("shuffle", 40), ("shuffle_k", 9, 4),
        ("choice", 300), ("shuffle", 300), ("shuffle_k", 260, 2),
    ):
        ref = RandomStream(1)
        counter = ref._rng = _CountingRandom(1)
        fetched = PrefetchStream.adopt(RandomStream(1))
        while counter.words <= 3 * 4096:
            assert _apply(ref, op) == _apply(fetched, op), (op, counter.words)


def test_only_the_allocation_draws_exist():
    """Any other draw fails loudly instead of reading the generator
    behind the buffer."""
    fetched = PrefetchStream.adopt(RandomStream(3))
    for name in ("random", "uniform", "uniform_int", "exponential", "fork"):
        assert not hasattr(fetched, name), name
