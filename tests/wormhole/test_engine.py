"""Behavioural tests of the wormhole cycle engine."""

import pytest

from repro.wormhole.packet import PacketState

ALL_KINDS = ["tmin", "dmin", "vmin", "bmin"]


# -------------------------------------------------------- basic delivery


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_packet_delivered(make_engine, kind):
    env, eng = make_engine(kind)
    p = eng.offer(1, 5, 16)
    eng.drain()
    assert p.state is PacketState.DELIVERED
    assert eng.stats.delivered_packets == 1
    assert eng.stats.delivered_flits == 16


@pytest.mark.parametrize("kind", ["tmin", "dmin", "vmin"])
def test_uncontended_latency_formula_unidirectional(make_engine, kind):
    """No contention: network latency = (n+1 hops) + L - 2 cycles."""
    env, eng = make_engine(kind, k=2, n=3)
    for length in (1, 8, 100):
        p = eng.offer(2, 7, length)
        eng.drain()
        assert p.network_latency == (3 + 1) + length - 2


def test_uncontended_latency_formula_bmin(make_engine):
    """BMIN path length is 2(t+1) channels (Section 3.2.3)."""
    env, eng = make_engine("bmin", k=2, n=3)
    cases = [(0b001, 0b101, 2), (0b000, 0b010, 1), (0b000, 0b001, 0)]
    for s, d, t in cases:
        p = eng.offer(s, d, 16)
        eng.drain()
        assert p.network_latency == 2 * (t + 1) + 16 - 2


def test_distance_insensitivity(make_engine):
    """Wormhole hallmark: latency barely depends on distance when idle.

    For L=100 flits in a 64-node BMIN, the nearest (t=0) and farthest
    (t=2) destinations differ by only 4 cycles out of ~100."""
    env, eng = make_engine("bmin", k=4, n=3)
    near = eng.offer(0, 1, 100)   # same switch
    eng.drain()
    far = eng.offer(0, 63, 100)   # turns at the top
    eng.drain()
    assert far.network_latency - near.network_latency == 4
    assert far.network_latency < 1.1 * near.network_latency


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_all_pairs_delivered(make_engine, kind):
    """Every (s, d) pair routes correctly through the simulator."""
    env, eng = make_engine(kind, k=2, n=3)
    for s in range(8):
        for d in range(8):
            if s == d:
                continue
            p = eng.offer(s, d, 4)
            eng.drain()
            assert p.state is PacketState.DELIVERED, f"{kind}: {s}->{d}"


def test_latency_includes_source_queueing(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    first = eng.offer(0, 5, 50)
    second = eng.offer(0, 6, 50)  # must wait for the first to inject
    eng.drain()
    assert second.latency > first.latency
    # The second's injection began only after the first's tail left.
    assert second.inject_start >= first.inject_start + 50


def test_fcfs_injection_order(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    packets = [eng.offer(3, (3 + i) % 8 or 7, 10) for i in range(1, 5)]
    eng.drain()
    starts = [p.inject_start for p in packets]
    assert starts == sorted(starts)


# ----------------------------------------------------- contention behaviour


def test_output_contention_serializes_tmin(make_engine):
    """Two sources to one destination share the delivery channel."""
    env, eng = make_engine("tmin", k=2, n=3)
    a = eng.offer(0, 7, 40)
    b = eng.offer(1, 7, 40)
    eng.drain()
    done = sorted([a.delivered_at, b.delivered_at])
    # The loser's tail arrives roughly one message time later.
    assert done[1] - done[0] >= 40


def test_wormhole_blocking_holds_channels(make_engine):
    """A worm blocked at its head keeps all spanned channels busy.

    In a TMIN, a long message 0->7 occupies the delivery channel; a
    message 1->7 blocks; a third message 1->6 then queues behind it at
    the source (one-port) even though its own path would be free."""
    env, eng = make_engine("tmin", k=2, n=3, seed=1)
    blocker = eng.offer(0, 7, 200)
    eng.run_cycles(10)
    victim = eng.offer(1, 7, 10)
    bystander = eng.offer(1, 6, 10)
    eng.run_cycles(60)
    assert blocker.state is PacketState.ACTIVE
    assert victim.state is PacketState.ACTIVE  # injected, head blocked
    assert victim.delivered_flits == 0
    assert bystander.state is PacketState.QUEUED  # stuck behind victim
    eng.drain()
    assert all(
        p.state is PacketState.DELIVERED for p in (blocker, victim, bystander)
    )


def test_vmin_interleaves_blocked_and_passing_traffic(make_engine):
    """Virtual channels let a second worm pass a blocked one on the same
    wire -- the motivation for VMINs (Section 2.2)."""
    env, eng = make_engine("vmin", k=2, n=3, seed=3)
    a = eng.offer(0, 7, 60)
    b = eng.offer(0 ^ 1, 7, 60)  # same delivery channel: second VC
    eng.run_cycles(80)
    # Both make progress concurrently (flit-level multiplexing) ...
    assert a.delivered_flits > 0 and b.delivered_flits > 0
    eng.drain()
    # ... and each effectively saw half the delivery bandwidth.
    slowest = max(a.delivered_at, b.delivered_at)
    assert slowest - min(a.inject_start, b.inject_start) >= 2 * 60 - 2


def test_dmin_carries_two_worms_per_port(make_engine):
    """Dilated channels transmit two packets over one port concurrently
    at full bandwidth each."""
    env, eng = make_engine("dmin", k=2, n=3, seed=5)
    # Sources 0 and 1 share every inter-stage port toward destination 7
    # and 6 respectively only at stage boundaries; pick a pair whose
    # paths share an inner slot but not the delivery channel.
    a = eng.offer(0, 6, 60)
    b = eng.offer(1, 7, 60)
    eng.drain()
    # Neither was serialized: both finish in about one message time.
    assert a.network_latency <= 60 + 10
    assert b.network_latency <= 60 + 10


def test_tmin_same_inner_slot_serializes(make_engine):
    """The same pair on a TMIN shares the single inner channel when the
    paths overlap, so one of them waits."""
    env, eng = make_engine("tmin", k=2, n=3, seed=5)
    overlaps = None
    # Find two sources whose cube-MIN paths to distinct destinations
    # share an inner channel (guaranteed to exist in a blocking network).
    net = eng.network
    for s2 in range(1, 8):
        ch1 = set(net.spec.channels_of_path(0, 6)[1:-1])
        ch2 = set(net.spec.channels_of_path(s2, 7)[1:-1])
        if ch1 & ch2:
            overlaps = s2
            break
    assert overlaps is not None
    a = eng.offer(0, 6, 60)
    b = eng.offer(overlaps, 7, 60)
    eng.drain()
    slow = max(a.network_latency, b.network_latency)
    assert slow >= 2 * 60 - 10  # serialized over the shared channel


def test_bmin_adaptive_forward_avoids_busy_channel(make_engine):
    """With one forward channel held by a long worm, a BMIN message
    for a different destination picks another free forward channel and
    is not delayed by a full message time."""
    env, eng = make_engine("bmin", k=2, n=3, seed=9)
    blocker = eng.offer(0b000, 0b100, 400)  # long, turns at top
    eng.run_cycles(8)
    nimble = eng.offer(0b001, 0b110, 10)    # also ascends from switch 0
    eng.drain()
    assert nimble.delivered_at < blocker.delivered_at
    assert nimble.network_latency <= 10 + 2 * 3 + 20  # no full-message stall


# ------------------------------------------------------------ bookkeeping


def test_stats_window_reset(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    eng.offer(0, 5, 10)
    eng.drain()
    assert eng.stats.delivered_packets == 1
    eng.stats.reset_window(env.now)
    assert eng.stats.delivered_packets == 0
    assert eng.stats.records == []
    assert eng.stats.window_start == env.now


def test_max_queue_len_tracking(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    for _ in range(5):
        eng.offer(0, 5, 10)
    assert eng.stats.max_queue_len == 5
    eng.drain()


def test_throughput_fraction(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    assert eng.throughput_fraction() == 0.0
    eng.offer(0, 5, 80)
    eng.drain()
    frac = eng.throughput_fraction()
    assert 0 < frac <= 1.0
    assert frac == eng.stats.delivered_flits / (8 * env.now)


def test_idle_fast_forward(make_engine):
    """With no traffic the clock must not burn cycles."""
    env, eng = make_engine("tmin", k=2, n=3)
    eng.start()
    env.run(until=10_000)
    assert eng.cycles_run == 0

    def late_arrival():
        yield env.timeout(5_000)
        eng.offer(0, 1, 4)

    env.process(late_arrival())
    env.run(until=20_000)
    # Only the handful of cycles needed to deliver one 4-flit packet.
    assert 0 < eng.cycles_run < 50
    assert eng.stats.delivered_packets == 1


def test_offer_wakes_sleeping_clock(make_engine):
    """The engine resumes after going fully idle with nothing scheduled."""
    env, eng = make_engine("tmin", k=2, n=3)
    eng.offer(0, 1, 4)
    eng.drain()
    first_done = eng.stats.delivered_packets
    # The clock now sleeps on its wakeup event; a fresh offer revives it.
    eng.offer(2, 3, 4)
    eng.drain()
    assert eng.stats.delivered_packets == first_done + 1


def test_in_flight_and_queue_length(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    eng.offer(0, 5, 100)
    eng.offer(0, 6, 100)
    eng.run_cycles(5)
    assert eng.in_flight == 1
    assert eng.queue_length(0) == 1
    eng.drain()
    assert eng.in_flight == 0 and eng.idle


def test_drain_raises_on_budget_exhaustion(make_engine):
    env, eng = make_engine("tmin", k=2, n=3)
    eng.offer(0, 5, 10_000)
    with pytest.raises(RuntimeError):
        eng.drain(max_cycles=50)


def test_repr_smoke(make_engine):
    env, eng = make_engine("dmin")
    assert "dmin" in repr(eng)
