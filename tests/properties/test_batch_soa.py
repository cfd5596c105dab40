"""Property-based certification of the batch tier's mirrored RNG.

The batch engine's bit-identity claim (:mod:`repro.wormhole.batch`)
rests on :class:`BatchStream`: every public variate, drawn from the
numpy ``MT19937`` mirror, must equal the stdlib :class:`RandomStream`'s
draw *by draw* over arbitrary interleaved call sequences, including
mid-stream :meth:`BatchStream.adopt` and the fused
:meth:`BatchStream.shuffle_k` (``k`` deferred service-order shuffles
must consume exactly the words, and produce exactly the permutation,
of ``k`` sequential ``shuffle`` calls).  The free-run ledger both
optimized tiers share is certified numpy-free in
``tests/properties/test_free_run_ledger.py``.

The suite skips cleanly when Hypothesis or numpy is absent (both ship
in the dev environment; neither is a runtime dependency of tier 1).
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.rng import RandomStream  # noqa: E402
from repro.wormhole.batch import numpy_available  # noqa: E402

if not numpy_available():  # pragma: no cover - numpy ships in dev env
    pytest.skip("batch tier requires numpy", allow_module_level=True)

from repro.wormhole.batch import BatchStream  # noqa: E402

# ------------------------------------------------------------ RNG mirror

seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: One RNG call: (method name, args) applied identically to both
#: streams.  Arguments are kept small so rejection sampling terminates
#: fast; the *values* drawn are what must match, bit for bit.
_ops = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-5, 5), st.floats(5, 10)),
    st.tuples(
        st.just("uniform_int"), st.integers(-50, 50), st.integers(0, 2000)
    ),
    st.tuples(st.just("exponential"), st.floats(0.01, 100)),
    st.tuples(st.just("choice"), st.integers(1, 70)),
    st.tuples(st.just("shuffle"), st.integers(0, 70)),
    st.tuples(
        st.just("bimodal_int"),
        st.integers(1, 5),
        st.integers(6, 20),
        st.floats(0, 1),
    ),
    st.tuples(
        st.just("weighted_index"),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    ),
)


def _apply(stream, op):
    """Run one op; return its observable result."""
    name = op[0]
    if name == "random":
        return stream.random()
    if name == "uniform":
        return stream.uniform(op[1], op[1] + abs(op[2]))
    if name == "uniform_int":
        return stream.uniform_int(op[1], op[1] + op[2])
    if name == "exponential":
        return stream.exponential(op[1])
    if name == "choice":
        return stream.choice(list(range(op[1])))
    if name == "shuffle":
        seq = list(range(op[1]))
        stream.shuffle(seq)
        return seq
    if name == "bimodal_int":
        low, width, frac = op[1], op[2], op[3]
        return stream.bimodal_int(low, low + width, frac, low)
    if name == "weighted_index":
        weights = op[1]
        if sum(weights) <= 0:
            return None  # invalid input; skip rather than filter upstream
        return stream.weighted_index(weights)
    raise AssertionError(name)  # pragma: no cover


@given(seed=seeds, ops=st.lists(_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_batchstream_draw_identity(seed, ops):
    """Arbitrary interleaved variate sequences match draw by draw."""
    ref = RandomStream(seed)
    mir = BatchStream(seed)
    for op in ops:
        assert _apply(ref, op) == _apply(mir, op), op


@given(seed=seeds, warm=st.lists(_ops, max_size=15), ops=st.lists(_ops, max_size=25))
@settings(max_examples=100, deadline=None)
def test_batchstream_adopt_continues_stream(seed, warm, ops):
    """Adoption mid-stream continues the stdlib stream verbatim --
    exactly what the engine does to its allocation stream at batch
    construction time."""
    ref = RandomStream(seed)
    victim = RandomStream(seed)
    for op in warm:
        _apply(ref, op)
        _apply(victim, op)
    mir = BatchStream.adopt(victim)
    for op in ops:
        assert _apply(ref, op) == _apply(mir, op), op


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
    mir = BatchStream(seed)
    a = list(range(n))
    b = list(range(n))
    for _ in range(k):
        ref.shuffle(a)
    mir.shuffle_k(b, k)
    assert a == b
    for op in tail:
        assert _apply(ref, op) == _apply(mir, op), op


@given(seed=seeds, ks=st.lists(st.integers(1, 64), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_getrandbits_word_derivation(seed, ks):
    """The raw-word ``getrandbits`` derivation (the base of every
    variate) matches CPython for widths spanning multiple words."""
    ref = random.Random(seed)  # lint-sim: ignore[RPV001] -- oracle
    mir = BatchStream(seed)
    for k in ks:
        assert ref.getrandbits(k) == mir._getrandbits(k), k
