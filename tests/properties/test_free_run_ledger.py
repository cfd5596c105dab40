"""Property-based certification of the optimized tiers' pure-Python kernel.

Two contracts back the span-sleep clock's bit-identity claim, and each
gets a randomized oracle here (numpy-free, so it runs in tier 1):

* :class:`~repro.wormhole.ledger.FreeRunLedger` -- the action schedule
  expanded by ``add`` must match an independent reimplementation of
  the documented free-run schedule bucket for bucket (keys, tuples,
  and within-bucket insertion order) for any steady buffer pattern,
  and reproduce the compressed-pipeline schedule verbatim when every
  buffer is full (the MINs); ``next_due`` must never overshoot the
  true horizon, and the live registry must round-trip through
  add/remove/clear;
* :meth:`~repro.sim.rng.RandomStream.shuffle_k` -- replaying ``k``
  deferred service-order shuffles must produce the permutation of
  ``k`` sequential ``shuffle`` calls and leave the stream at the same
  position (the following draw matches).

The suite skips cleanly when Hypothesis is absent.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.rng import RandomStream  # noqa: E402
from repro.wormhole.ledger import FAR, FreeRunLedger  # noqa: E402


# ------------------------------------------------------- ledger oracle


class _Chan:
    __slots__ = ("topo_order", "is_delivery", "label")

    def __init__(self, topo_order, is_delivery=False):
        self.topo_order = topo_order
        self.is_delivery = is_delivery
        self.label = f"c{topo_order}"


class _Lane:
    __slots__ = ("sent", "buf", "channel")

    def __init__(self, sent, buf, channel):
        self.sent = sent
        self.buf = buf
        self.channel = channel


class _Pkt:
    def __init__(self, lanes, length, token=7):
        self.lanes = lanes
        self.length = length
        self._lz_token = token


#: One free-run registration: (s, suffix length, entry cycle, slack,
#: buffer bits).  Bit ``i - s`` of the last field is owned lane i's
#: steady buffer (1 when the sweep visits its downstream lane first).
#: ``deliver`` is placed so every expanded action lands strictly after
#: the entry cycle, as the engine guarantees.
_entry = st.tuples(
    st.integers(0, 2),
    st.integers(1, 5),
    st.integers(0, 400),
    st.integers(1, 50),
    st.integers(0, 15),
)


def _worm(token, s, m, cycle, slack, bits):
    """A synthetic worm with owned suffix ``lanes[s:n1 + 1]``.

    Owned upstream lanes buffer the drawn pattern, the released lane
    just upstream of ``s`` its tail flit, and the delivery head
    nothing.
    """
    n1 = s + m - 1
    lanes = []
    for i in range(n1 + 1):
        buf = 0 if i == n1 else 1 if i < s else (bits >> (i - s)) & 1
        lanes.append(_Lane(token, buf, _Chan(i, is_delivery=i == n1)))
    buffered = sum(lane.buf for lane in lanes[s:n1])
    return _Pkt(lanes, 16, token=token), n1, cycle + buffered + slack


def _model_schedule(p, s, n1, cycle, deliver):
    """The documented free-run schedule, reimplemented from scratch:
    lane i releases once the head is the flits buffered from lane i
    on from done, and only a full buffer drains a cycle later."""
    lanes = p.lanes
    tok = p._lz_token
    out: dict = {}
    for i in range(s, n1):
        t = deliver - sum(lane.buf for lane in lanes[i:n1])
        out.setdefault(t, []).append(
            (lanes[i].channel.topo_order, 1, p, tok, lanes[i])
        )
        if lanes[i].buf == 1:
            out.setdefault(t + 1, []).append(
                (lanes[i + 1].channel.topo_order, 0, p, tok, lanes[i])
            )
    if s:
        out.setdefault(cycle + 1, []).append(
            (lanes[s].channel.topo_order, 0, p, tok, lanes[s - 1])
        )
    out.setdefault(deliver, []).append(
        (lanes[n1].channel.topo_order, 2, p, tok, lanes[n1])
    )
    return out


@given(entries=st.lists(_entry, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_ledger_schedule_equivalence(entries):
    """Every bucket the ledger expands -- keys, tuples, insertion
    order -- matches the independent model, and draining by ascending
    cycle empties both the same way."""
    ledger = FreeRunLedger()
    model: dict = {}
    for token, (s, m, cycle, slack, bits) in enumerate(entries):
        p, n1, deliver = _worm(token, s, m, cycle, slack, bits)
        ledger.add(p, s, n1, cycle, deliver)
        for t, acts in _model_schedule(p, s, n1, cycle, deliver).items():
            model.setdefault(t, []).extend(acts)
    assert len(ledger.live) == len(entries)
    while model:
        t = min(model)
        assert ledger.next_due() <= t  # never overshoots the horizon
        got = ledger.pop_due(t)
        assert got == model.pop(t)
    assert ledger.next_due() == FAR
    assert ledger.pop_due(10**9) is None


def _compressed_schedule(p, s, n1, cycle, deliver):
    """The all-full (compressed pipeline) schedule as first documented:
    lane i releases ``n1 - i`` cycles before the delivery and every
    released buffer drains one cycle later."""
    lanes = p.lanes
    tok = p._lz_token
    out: dict = {}
    for i in range(s, n1):
        t = deliver - (n1 - i)
        out.setdefault(t, []).append(
            (lanes[i].channel.topo_order, 1, p, tok, lanes[i])
        )
        out.setdefault(t + 1, []).append(
            (lanes[i + 1].channel.topo_order, 0, p, tok, lanes[i])
        )
    if s:
        out.setdefault(cycle + 1, []).append(
            (lanes[s].channel.topo_order, 0, p, tok, lanes[s - 1])
        )
    out.setdefault(deliver, []).append(
        (lanes[n1].channel.topo_order, 2, p, tok, lanes[n1])
    )
    return out


@given(entries=st.lists(_entry, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_ledger_all_full_reproduces_compressed_schedule(entries):
    """With every owned buffer full -- always the case on a MIN -- the
    ledger expands exactly the compressed-pipeline schedule, bucket
    insertion order included."""
    ledger = FreeRunLedger()
    model: dict = {}
    for token, (s, m, cycle, slack, _) in enumerate(entries):
        p, n1, deliver = _worm(token, s, m, cycle, slack, 15)
        ledger.add(p, s, n1, cycle, deliver)
        for t, acts in _compressed_schedule(p, s, n1, cycle, deliver).items():
            model.setdefault(t, []).extend(acts)
    while model:
        t = min(model)
        assert ledger.pop_due(t) == model.pop(t)
    assert ledger.next_due() == FAR


@given(
    entries=st.lists(_entry, min_size=1, max_size=12),
    drops=st.lists(st.integers(0, 11), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_ledger_registry_round_trip(entries, drops):
    """The live registry (what bulk materialization reads) follows
    add/remove in entry order, removal leaves the schedule to die by
    token, and clear forgets everything."""
    ledger = FreeRunLedger()
    worms = {}
    for token, (s, m, cycle, slack, bits) in enumerate(entries):
        p, n1, deliver = _worm(token, s, m, cycle, slack, bits)
        ledger.add(p, s, n1, cycle, deliver)
        worms[token] = p
    horizon = ledger.next_due()
    for token in drops:
        if token in worms:
            ledger.remove(worms.pop(token))
    assert len(ledger.live) == len(worms)
    assert list(ledger.live) == list(worms.values())
    # Removal cancels nothing in the buckets: the horizon may only stay
    # put (stale low), never move later.
    assert ledger.next_due() == horizon
    ledger.clear()
    assert not ledger.live
    assert ledger.next_due() == FAR
    assert ledger.pop_due(10**9) is None


@given(
    entries=st.lists(_entry, min_size=1, max_size=8),
    visits=st.lists(st.integers(0, 500), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_ledger_skipped_buckets_are_purged(entries, visits):
    """Visiting cycles out of the schedule (as the clock does while no
    worm is live) purges every passed bucket and returns exactly the
    bucket of the visited cycle."""
    ledger = FreeRunLedger()
    model: dict = {}
    for token, (s, m, cycle, slack, bits) in enumerate(entries):
        p, n1, deliver = _worm(token, s, m, cycle, slack, bits)
        ledger.add(p, s, n1, cycle, deliver)
        for t, acts in _model_schedule(p, s, n1, cycle, deliver).items():
            model.setdefault(t, []).extend(acts)
    for c in sorted(visits):
        for t in [t for t in model if t < c]:
            del model[t]
        assert ledger.pop_due(c) == model.pop(c, None)
        assert ledger.next_due() == (min(model) if model else FAR)


# --------------------------------------------------------- shuffle replay

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    seed=seeds,
    n=st.integers(min_value=0, max_value=80),
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_shuffle_k_equals_k_shuffles(seed, n, k):
    """``shuffle_k(seq, k)`` == ``k`` sequential shuffles: the same
    permutation, and the same following draw."""
    ref = RandomStream(seed)
    rep = RandomStream(seed)
    a = list(range(n))
    b = list(range(n))
    for _ in range(k):
        ref.shuffle(a)
    rep.shuffle_k(b, k)
    assert a == b
    assert ref.random() == rep.random()
