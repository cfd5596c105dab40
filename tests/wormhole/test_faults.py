"""Fault-injection tests: the paper's fault-tolerance motivation.

Section 2.1: "if a link becomes congested or fails, the unique path
property can easily disrupt the communication between some input and
output pairs" -- the motivation for multi-path designs.  These tests
verify that the TMIN loses connectivity on a single inter-stage fault
while the DMIN survives any single lane fault and the BMIN survives
forward-channel faults (but not backward ones: the down path is unique).
"""

import pytest

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.packet import PacketState


def _engine(kind, seed=0, **kwargs):
    env = Environment()
    net = build_network(kind, k=2, n=3, **kwargs)
    return env, WormholeEngine(env, net, rng=RandomStream(seed))


def test_find_channel_and_faulty_listing():
    env, eng = _engine("tmin")
    ch = eng.network.find_channel("b1[3].0")
    assert not ch.faulty
    ch.fail()
    assert eng.network.faulty_channels() == [ch]
    ch.repair()
    assert eng.network.faulty_channels() == []
    with pytest.raises(KeyError):
        eng.network.find_channel("nope")


def test_tmin_single_fault_kills_affected_route():
    """Break one channel on the unique 1->6 path: the packet dies."""
    env, eng = _engine("tmin")
    net = eng.network
    boundary, pos = net.spec.channels_of_path(1, 6)[2]  # an inner hop
    net.slots[(boundary, pos)][0].fail()
    victim = eng.offer(1, 6, 8)
    eng.drain()
    assert victim.state is PacketState.FAILED
    assert eng.stats.failed_packets == 1
    assert eng.stats.delivered_packets == 0


def test_tmin_fault_spares_other_routes():
    env, eng = _engine("tmin")
    net = eng.network
    boundary, pos = net.spec.channels_of_path(1, 6)[2]
    net.slots[(boundary, pos)][0].fail()
    # A pair whose path avoids the broken channel still works.
    for s in range(8):
        for d in range(8):
            if s == d:
                continue
            if (boundary, pos) in net.spec.channels_of_path(s, d):
                continue
            ok = eng.offer(s, d, 8)
            eng.drain()
            assert ok.state is PacketState.DELIVERED
            return
    pytest.fail("expected some unaffected route")


def test_abort_releases_channels_for_other_traffic():
    """A killed worm must leave no stuck flits or owned lanes behind."""
    env, eng = _engine("tmin")
    net = eng.network
    path = net.spec.channels_of_path(1, 6)
    net.slots[path[3]][0].fail()  # fault late: the worm is mid-network
    victim = eng.offer(1, 6, 200)
    eng.drain()
    assert victim.state is PacketState.FAILED
    for ch in net.topo_channels:
        for lane in ch.lanes:
            assert lane.owner is None
            assert lane.buf == 0
    # The network still carries fresh traffic over the victim's channels.
    survivor = eng.offer(1, 2, 8)
    eng.drain()
    assert survivor.state is PacketState.DELIVERED


def test_dmin_survives_single_lane_fault():
    """Dilation two: break one of the two lanes on every slot of a
    path; the other lane carries the traffic."""
    env, eng = _engine("dmin")
    net = eng.network
    for boundary, pos in net.spec.channels_of_path(1, 6):
        chans = net.slots[(boundary, pos)]
        if len(chans) > 1:
            chans[0].fail()
    p = eng.offer(1, 6, 16)
    eng.drain()
    assert p.state is PacketState.DELIVERED


def test_dmin_dies_when_both_lanes_fail():
    env, eng = _engine("dmin")
    net = eng.network
    boundary, pos = net.spec.channels_of_path(1, 6)[1]
    for ch in net.slots[(boundary, pos)]:
        ch.fail()
    p = eng.offer(1, 6, 16)
    eng.drain()
    assert p.state is PacketState.FAILED


def test_bmin_routes_around_forward_fault():
    """k^t up-paths: any single forward channel can die (t >= 1)."""
    env, eng = _engine("bmin")
    net = eng.network
    # 001 -> 101 turns at stage 2; kill one boundary-1 forward channel
    # on its default route.
    net.fwd[(1, 0b001)].fail()
    p = eng.offer(0b001, 0b101, 16)
    eng.drain()
    assert p.state is PacketState.DELIVERED


def test_bmin_down_path_has_no_redundancy():
    """The backward path is unique: a backward fault kills the route."""
    env, eng = _engine("bmin")
    net = eng.network
    # Down path to 101 crosses bwd boundary-0 line 101 (the delivery).
    net.bwd[(0, 0b101)].fail()
    p = eng.offer(0b001, 0b101, 16)
    eng.drain()
    assert p.state is PacketState.FAILED


def test_bmin_tolerates_any_single_forward_fault_for_high_turns():
    """Exhaustive: for a t=2 pair, every single forward-channel fault
    leaves at least one of the four shortest paths intact."""
    s, d = 0b001, 0b101
    bmin_paths = build_network("bmin", 2, 3).bmin.enumerate_shortest_paths(s, d)
    for boundary in (0, 1, 2):
        for line in range(8):
            env, eng = _engine("bmin", seed=line)
            net = eng.network
            ch = net.fwd[(boundary, line)]
            # Skip the mandatory first hop: the injection channel is the
            # node's only port (one-port architecture).
            if boundary == 0 and line == s:
                continue
            ch.fail()
            p = eng.offer(s, d, 8)
            eng.drain()
            assert p.state is PacketState.DELIVERED, (boundary, line)
    assert len(bmin_paths) == 4


def test_faulty_injection_channel_fails_queued_packets():
    env, eng = _engine("tmin")
    eng.network.injection_channel(3).fail()
    a = eng.offer(3, 5, 8)
    b = eng.offer(3, 6, 8)
    ok = eng.offer(2, 6, 8)
    eng.drain()
    assert a.state is PacketState.FAILED
    assert b.state is PacketState.FAILED
    assert ok.state is PacketState.DELIVERED
    assert eng.stats.failed_packets == 2


def test_failed_packets_counter_resets_with_window():
    env, eng = _engine("tmin")
    eng.network.injection_channel(0).fail()
    eng.offer(0, 1, 8)
    eng.drain()
    assert eng.stats.failed_packets == 1
    eng.stats.reset_window(env.now)
    assert eng.stats.failed_packets == 0


def test_fault_under_load_does_not_deadlock():
    """Random traffic plus a mid-run fault: everything either delivers
    or fails cleanly, and the network drains."""
    env, eng = _engine("dmin", seed=9)
    rs = RandomStream(10)
    packets = []
    for _ in range(40):
        s = rs.uniform_int(0, 7)
        d = rs.uniform_int(0, 6)
        if d >= s:
            d += 1
        packets.append(eng.offer(s, d, rs.uniform_int(4, 30)))
    eng.run_cycles(20)
    eng.network.find_channel("b1[3].0").fail()
    eng.network.find_channel("b2[5].1").fail()
    eng.drain(max_cycles=100_000)
    assert eng.idle
    for p in packets:
        assert p.state in (PacketState.DELIVERED, PacketState.FAILED)
    assert (
        eng.stats.delivered_packets + eng.stats.failed_packets == len(packets)
    )


# ---------------------------------------------------- dynamic faults (churn)


def test_mtbf_churn_failures_and_repairs():
    """A churned channel alternates up/down; its measured downtime
    fraction tracks mttr / (mtbf + mttr)."""
    from repro.faults import MTBFChurn

    env, eng = _engine("tmin")
    ch = eng.network.find_channel("b1[3].0")
    churn = MTBFChurn(
        env,
        eng.network,
        RandomStream(5),
        mtbf=300.0,
        mttr=200.0,
        channels=[ch],
    )
    assert churn.unavailability == pytest.approx(0.4)
    eng.start()
    down = 0.0
    step = 10.0
    while env.now < 20_000:
        env.run(until=env.now + step)
        if ch.faulty:
            down += step
    assert churn.failures >= 5
    assert churn.repairs >= 5
    assert 0.2 < down / 20_000 < 0.6  # near the analytic 0.4


def test_mtbf_permanent_when_mttr_is_none():
    from repro.faults import MTBFChurn

    env, eng = _engine("tmin")
    ch = eng.network.find_channel("b1[3].0")
    churn = MTBFChurn(
        env, eng.network, RandomStream(5), mtbf=100.0, channels=[ch]
    )
    eng.start()
    env.run(until=5_000)
    assert ch.faulty
    assert churn.failures == 1 and churn.repairs == 0


def test_repair_restores_throughput():
    """During a hard transient fault a TMIN loses the affected routes;
    after the repair the same traffic delivers in full."""
    from repro.faults import FaultPlan
    from repro.metrics.collector import MeasurementWindow

    env, eng = _engine("tmin")
    net = eng.network
    boundary, pos = net.spec.channels_of_path(1, 6)[2]
    label = net.slots[(boundary, pos)][0].label
    FaultPlan.single(at=0, channel=label, duration=2_000, severity="hard").install(
        env, net, eng
    )
    env.run(until=1)

    pairs = [(1, 6), (0, 3), (1, 6), (2, 5), (1, 6)]
    window = MeasurementWindow(eng)
    window.begin()
    for s, d in pairs:
        eng.offer(s, d, 8)
    eng.drain()
    faulted = window.finish()
    assert faulted.failed_packets == 3      # every 1->6 died
    assert faulted.delivered_packets == 2

    env.run(until=2_100)                     # past the repair
    window.begin()
    for s, d in pairs:
        eng.offer(s, d, 8)
    eng.drain()
    repaired = window.finish()
    assert repaired.failed_packets == 0      # throughput restored
    assert repaired.delivered_packets == len(pairs)
    assert not repaired.degraded


def test_fabric_channels_exclude_node_interfaces():
    from repro.faults import fabric_channels

    for kind in ("tmin", "dmin", "vmin", "bmin"):
        env, eng = _engine(kind)
        fabric = fabric_channels(eng.network)
        assert fabric
        for ch in fabric:
            assert not ch.is_delivery
            assert not ch.label.startswith("inj[")


# ----------------------------------------------- retry under stochastic churn


@pytest.mark.parametrize("kind", ["dmin", "bmin"])
def test_retry_delivers_everything_under_low_churn(kind):
    """Low transient fault rates on a multi-path fabric: source retry
    with backoff eventually lands every message (delivery ratio 1)."""
    from repro.faults import MTBFChurn, RetryPolicy, SourceRetry

    env, eng = _engine(kind, seed=3)
    churn = MTBFChurn(
        env,
        eng.network,
        RandomStream(11),
        mtbf=20_000.0,   # u = mttr/(mtbf+mttr) ~ 1.5%
        mttr=300.0,
        engine=eng,
        severity="hard",
    )
    policy = RetryPolicy(max_attempts=8, base_delay=64, jitter=0.25)
    retry = SourceRetry(eng, policy, RandomStream(13))
    rs = RandomStream(17)
    packets = []
    for _ in range(80):
        s = rs.uniform_int(0, 7)
        d = rs.uniform_int(0, 6)
        if d >= s:
            d += 1
        packets.append(eng.offer(s, d, rs.uniform_int(4, 24)))
    retry.quiesce(max_cycles=500_000)
    assert retry.dropped == 0
    assert retry.delivered_ratio() == 1.0
    assert len(retry.outcomes) == len(packets)
    # The churn actually did something in at least some runs of the
    # parametrization; assert the counters stay consistent regardless.
    assert churn.failures >= churn.repairs
    assert eng.stats.retried_packets == retry.retried


# --------------------------------------------------- abort invariants (property)


def test_abort_flush_keeps_lane_buffers_consistent_property():
    """Random hard fault times against random traffic: after the dust
    settles, no lane has negative or stuck buffered flits and no lane
    has a dangling owner.  (Property-style sweep over seeds.)"""
    from repro.faults import FaultEvent, FaultPlan

    for seed in range(12):
        rs = RandomStream(100 + seed)
        kind = rs.choice(("tmin", "dmin", "vmin", "bmin"))
        env, eng = _engine(kind, seed=seed)
        fabric = [
            ch
            for ch in eng.network.topo_channels
            if not ch.is_delivery and not ch.label.startswith("inj[")
        ]
        events = tuple(
            FaultEvent(
                at=float(rs.uniform_int(1, 120)),
                channels=(rs.choice(fabric).label,),
                duration=float(rs.uniform_int(50, 400)),
                severity="hard",
            )
            for _ in range(4)
        )
        FaultPlan(events).install(env, eng.network, eng)
        packets = []
        for _ in range(30):
            s = rs.uniform_int(0, 7)
            d = rs.uniform_int(0, 6)
            if d >= s:
                d += 1
            packets.append(eng.offer(s, d, rs.uniform_int(2, 60)))
        eng.drain(max_cycles=200_000)
        for ch in eng.network.topo_channels:
            for lane in ch.lanes:
                assert lane.buf >= 0, (seed, ch.label)
                assert lane.buf == 0, (seed, ch.label)
                assert lane.owner is None, (seed, ch.label)
        for p in packets:
            assert p.state in (PacketState.DELIVERED, PacketState.FAILED)


# ------------------------------------------------- DMIN vs TMIN (integration)


def _degradation_run(kind, *, seed=21):
    """200 random messages, a mid-run hard fault storm outlasting the
    whole retry budget, full accounting via Measurement."""
    from repro.faults import FaultEvent, FaultPlan, RetryPolicy, SourceRetry
    from repro.metrics.collector import MeasurementWindow

    env, eng = _engine(kind, seed=seed)
    policy = RetryPolicy(
        max_attempts=4, base_delay=32, factor=2.0, max_delay=256, jitter=0.0
    )
    retry = SourceRetry(eng, policy, RandomStream(seed + 1))
    # Total backoff budget ~32+64+128 = 224 cycles << 30_000 fault span:
    # a unique-path network cannot out-wait the fault.
    events = tuple(
        FaultEvent(
            at=at, channels=(label,), duration=30_000.0, severity="hard"
        )
        for at, label in ((150.0, "b1[3].0"), (250.0, "b2[5].0"))
    )
    FaultPlan(events).install(env, eng.network, eng)
    window = MeasurementWindow(eng)
    window.begin()
    rs = RandomStream(seed + 2)
    for _ in range(200):
        s = rs.uniform_int(0, 7)
        d = rs.uniform_int(0, 6)
        if d >= s:
            d += 1
        eng.offer(s, d, rs.uniform_int(8, 24))
    retry.quiesce(max_cycles=500_000)
    return window.finish(), retry


def test_dmin_recovers_while_tmin_degrades_permanently():
    """The acceptance scenario: the same mid-simulation hard fault on a
    DMIN is absorbed (worms aborted, retried with backoff, >= 99%
    eventually delivered) while a TMIN degrades permanently."""
    dmin_m, dmin_retry = _degradation_run("dmin")
    tmin_m, tmin_retry = _degradation_run("tmin")

    # DMIN: the wire cut killed worms mid-flight, the source retried
    # them over the sibling lane, and (nearly) everything landed.
    assert dmin_m.failed_packets > 0
    assert dmin_m.retried_packets > 0
    assert dmin_retry.delivered_ratio() >= 0.99
    assert dmin_m.degraded  # the accounting is visible in Measurement

    # TMIN: the unique path cannot route around the cut; retries re-roll
    # the same dice until the budget runs out -> permanent degradation.
    assert tmin_m.failed_packets > dmin_m.failed_packets
    assert tmin_m.dropped_packets > 0
    assert tmin_retry.delivered_ratio() < 0.99
    assert tmin_retry.delivered_ratio() < dmin_retry.delivered_ratio()


def test_find_channel_near_miss_suggestions():
    """Unknown labels name their closest real labels (typo guard)."""
    env, eng = _engine("tmin")
    with pytest.raises(KeyError) as exc:
        eng.network.find_channel("b1[3].9")
    msg = exc.value.args[0]
    assert "no channel labelled 'b1[3].9'" in msg
    assert "did you mean" in msg
    assert "b1[3].0" in msg


def test_find_channel_no_suggestion_for_garbage():
    env, eng = _engine("tmin")
    with pytest.raises(KeyError) as exc:
        eng.network.find_channel("zzzzzzzzzz")
    assert "did you mean" not in exc.value.args[0]


def test_abort_flushes_reacquired_lane_correctly():
    """Aborting a worm whose released lane was re-acquired stays exact.

    Regression: ``_abort`` used to flush each lane's buffer from its raw
    ``sent`` counter -- but a lane the worm already released may have
    been re-acquired by a *new* owner (which resets ``sent``), so the
    flush went negative and conjured phantom flits into the 1-flit
    buffer.  Found by the differential suite's sanitized fault cases.
    """
    env = Environment()
    net = build_network("tmin", k=2, n=3)
    eng = WormholeEngine(env, net, rng=RandomStream(7), sanitize=True)
    victim = eng.offer(0, 6, 3)   # injects first (FCFS)
    follower = eng.offer(0, 5, 3)  # reuses the injection lane
    eng.start()
    for _ in range(64):
        eng.run_cycles(1)
        if (
            victim.state is PacketState.ACTIVE
            and victim.lanes
            and victim.lanes[0].owner is follower
        ):
            break
    else:
        pytest.fail("follower never re-acquired the injection lane")
    inj_lane = victim.lanes[0]
    eng.abort_packet(victim)
    assert victim.state is PacketState.FAILED
    # The 1-flit buffer bound must survive the flush (the sanitizer
    # would also catch a violation on the next cycle).
    assert 0 <= inj_lane.buf <= 1
    eng.drain()
    assert follower.state is PacketState.DELIVERED
