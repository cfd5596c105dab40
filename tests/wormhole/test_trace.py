"""Tests for the per-packet event tracer."""

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.trace import TraceEvent, Tracer


def _traced_engine(kind="tmin", seed=0, tracer=None):
    env = Environment()
    eng = WormholeEngine(env, build_network(kind, 2, 3), rng=RandomStream(seed))
    if tracer is None:
        tracer = Tracer()
    eng.bus.attach(tracer)
    return env, eng, tracer


def test_single_packet_event_sequence():
    env, eng, tracer = _traced_engine()
    p = eng.offer(1, 6, 8)
    eng.drain()
    kinds = [e.kind for e in tracer.packet_timeline(p.pid)]
    assert kinds[0] == "offered"
    assert kinds[1] == "injected"
    assert kinds[-1] == "delivered"
    # one acquisition per channel of the n+1 = 4 hop path
    assert kinds.count("acquired") == 4
    assert "blocked" not in kinds  # empty network: never blocked


def test_acquired_events_name_the_channels():
    env, eng, tracer = _traced_engine()
    p = eng.offer(1, 6, 8)
    eng.drain()
    acquired = [
        e.detail for e in tracer.packet_timeline(p.pid) if e.kind == "acquired"
    ]
    assert acquired[0].startswith("inj[")
    assert acquired[-1].startswith("dlv[")


def test_blocked_event_on_contention_with_dedup():
    env, eng, tracer = _traced_engine()
    a = eng.offer(0, 7, 60)
    b = eng.offer(1, 7, 60)  # same destination: one of them must stall
    eng.drain()
    blocked = [e for e in tracer.events if e.kind == "blocked"]
    assert blocked, "two worms to one node must produce a blocking spell"
    # The loser waited for tens of cycles, yet each spell is one event.
    loser_events = [e for e in blocked if e.pid in (a.pid, b.pid)]
    assert 1 <= len(loser_events) <= 4
    details = [e.detail for e in loser_events]
    assert all(x != y for x, y in zip(details, details[1:]))


def test_vc_lane_named_in_acquisition():
    env, eng, tracer = _traced_engine("vmin")
    eng.offer(0, 7, 30)
    p = eng.offer(1, 7, 30)  # second VC of the shared delivery wire
    eng.drain()
    acquired = [
        e.detail for e in tracer.packet_timeline(p.pid) if e.kind == "acquired"
    ]
    assert any(".vc" in d for d in acquired)


def test_abort_event_recorded():
    env, eng, tracer = _traced_engine()
    boundary, pos = eng.network.spec.channels_of_path(1, 6)[2]
    eng.network.slots[(boundary, pos)][0].fail()
    p = eng.offer(1, 6, 8)
    eng.drain()
    kinds = [e.kind for e in tracer.packet_timeline(p.pid)]
    assert kinds[-1] == "failed"


def test_format_timeline():
    env, eng, tracer = _traced_engine()
    p = eng.offer(1, 6, 8)
    eng.drain()
    text = tracer.format_timeline(p.pid)
    assert text.startswith(f"packet #{p.pid}:")
    assert "delivered" in text
    assert tracer.format_timeline(999).endswith("no events recorded")


def test_blocking_hotspots():
    env, eng, tracer = _traced_engine()
    eng.offer(0, 7, 80)
    for s in (1, 2, 3):
        eng.offer(s, 7, 10)
    eng.drain()
    hotspots = tracer.blocking_hotspots()
    assert hotspots
    label, count = hotspots[0]
    assert count >= 1
    # The congestion concentrates on node 7's path: every hotspot is a
    # channel, named by its label.
    assert any(tag in label for tag in ("dlv[", "b1[", "b2["))


def test_max_events_cap_evicts_whole_old_packets():
    tracer = Tracer(max_events=8)
    env, eng, _ = _traced_engine(tracer=tracer)
    first = eng.offer(1, 6, 8)
    eng.drain()
    second = eng.offer(2, 5, 8)
    eng.drain()
    # The newest packet keeps a complete timeline (ending included)...
    kinds = [e.kind for e in tracer.packet_timeline(second.pid)]
    assert kinds[0] == "offered" and kinds[-1] == "delivered"
    # ...while the oldest was evicted wholesale, and the drop is
    # surfaced, not silent.
    assert tracer.packet_timeline(first.pid) == []
    assert tracer.truncated
    assert tracer.evicted_packets == 1
    assert tracer.evicted_events >= 6


def test_per_packet_ring_keeps_newest_events():
    tracer = Tracer(per_packet=3)
    env, eng, _ = _traced_engine(tracer=tracer)
    p = eng.offer(1, 6, 8)
    eng.drain()
    timeline = tracer.packet_timeline(p.pid)
    assert len(timeline) == 3
    # A ring keeps the END of the story: delivery is never lost.
    assert timeline[-1].kind == "delivered"
    assert tracer.dropped_events > 0 and tracer.truncated


def test_newest_packet_never_evicted():
    # Cap smaller than one timeline: the sole live packet survives.
    tracer = Tracer(max_events=2, per_packet=256)
    env, eng, _ = _traced_engine(tracer=tracer)
    p = eng.offer(1, 6, 8)
    eng.drain()
    kinds = [e.kind for e in tracer.packet_timeline(p.pid)]
    assert kinds[0] == "offered" and kinds[-1] == "delivered"
    assert tracer.evicted_packets == 0


def test_untruncated_tracer_reports_clean():
    env, eng, t = _traced_engine()
    eng.offer(1, 6, 8)
    eng.drain()
    assert not t.truncated
    assert t.dropped_events == 0 and t.evicted_packets == 0
    # events is a flat, record-ordered view across packets
    seqs = [e.seq for e in t.events]
    assert seqs == sorted(seqs)


def test_tracer_off_by_default_costs_nothing():
    env = Environment()
    eng = WormholeEngine(env, build_network("tmin", 2, 3), rng=RandomStream(0))
    assert eng.bus.subscriber_count() == 0
    eng.offer(1, 6, 8)
    eng.drain()
    assert eng.stats.delivered_packets == 1


def test_trace_event_str():
    e = TraceEvent(12.0, "acquired", 3, "b1[0].0")
    assert "t=12" in str(e) and "acquired" in str(e)


def test_traced_run_matches_untraced():
    """Tracing is observation only: results are bit-identical."""

    def run(traced):
        env = Environment()
        eng = WormholeEngine(
            env, build_network("dmin", 2, 3), rng=RandomStream(5)
        )
        if traced:
            eng.bus.attach(Tracer())
        rs = RandomStream(6)
        pkts = []
        for _ in range(30):
            s = rs.uniform_int(0, 7)
            d = rs.uniform_int(0, 6)
            if d >= s:
                d += 1
            pkts.append(eng.offer(s, d, rs.uniform_int(4, 20)))
        eng.drain()
        return [p.delivered_at for p in pkts]

    assert run(True) == run(False)
