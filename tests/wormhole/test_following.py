"""Following lanes in the VMIN's channel sweep.

A body lane alone on its wire with a full buffer leaves the fast tier's
active list and moves only inside the sweep, right after the downstream
move that drains it.  A follower found with an empty upstream buffer at
the drain is a bubble and rejoins the list; a Phase A grant onto a
follower's wire puts the wire back on it; an abort simply releases the
followers.  Every case must match the reference tier exactly.  The
scripted cases run on an 8-node VMIN (2x2 switches, three stages,
two lanes per wire); their routes:

* 2 -> 7: inj[2], b1[5], b2[5], dlv[7]
* 6 -> 4: inj[6], b1[5], b2[4], dlv[4]
* 0 -> 7: inj[0], b1[1], b2[5], dlv[7]
* 4 -> 5: inj[4], b1[1], b2[4], dlv[5]
"""

from __future__ import annotations

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.network import build_network
from repro.wormhole.packet import PacketState
from tests.differential.harness import following_lanes

#: C (2 -> 7) blocks at b2[5] behind 0 -> 7 and 1 -> 7, which hold
#: both lanes of dlv[7]; its inj[2] and b1[5] lanes follow while it
#: waits.
BLOCKED = ((0, 7, 300), (1, 7, 300), (2, 7, 100))

#: Cycles every scripted case runs: all worms settle well before.
CYCLES = 1200


def state(eng) -> list:
    """Every wire's round-robin pointer and every lane's owner and flit
    counters.  A free-running worm's counters are stale by design, so
    the fast tier materializes those worms first (exact, as when a hot
    sink attaches)."""
    if eng._lazy_live:
        eng._materialize_lazy()
    return [
        (
            ch.label,
            ch.rr_next,
            [
                (ln.owner.pid if ln.owner else None, ln.sent, ln.buf)
                for ln in ch.lanes
            ],
        )
        for ch in eng.network.topo_channels
    ]


def outcome(eng) -> tuple:
    s = eng.stats
    return (
        tuple(s.records), s.delivered_flits, s.failed_packets,
        eng.cycles_run, eng.env.now,
    )


def build(tier, offers=BLOCKED):
    """An 8-node VMIN engine on ``tier`` with ``offers`` queued."""
    env = Environment()
    net = build_network("vmin", k=2, n=3)
    eng = WormholeEngine(env, net, rng=RandomStream(7), engine=tier)
    worms = [eng.offer(src, dst, length) for src, dst, length in offers]
    return eng, worms


def lane_on(p, label):
    return next(ln for ln in p.lanes if ln.channel.label == label)


def follows(lane) -> bool:
    return lane.owner is not None and not lane.channel.in_active


def test_loaded_vmin_point_follows_and_matches_reference():
    cfg = PRESETS["smoke"]
    network = NetworkConfig("vmin")
    load = 0.6
    engines = []
    for tier in ("fast", "reference"):
        _, eng, root = build_point(network, load, cfg, tier)
        workload = WorkloadSpec(pattern="uniform").builder(cfg)(load)
        install_workload(
            eng, workload, root.fork(f"workload/{network.label}/{load}")
        )
        engines.append(eng)
    fast, ref = engines
    following = 0
    for t in range(100, 1501, 100):
        fast.env.run(until=t)
        ref.env.run(until=t)
        following = max(following, following_lanes(fast))
        assert state(fast) == state(ref), f"lane state diverged by t={t}"
    assert following > 0, "no lane was following at a checkpoint"
    warm_up(fast, cfg)
    warm_up(ref, cfg)
    window, _ = measure(fast, cfg)
    ref_window, _ = measure(ref, cfg)
    assert fast.lanes_followed > 0
    assert window == ref_window
    assert fast.stats.records == ref.stats.records
    assert fast.cycles_run == ref.cycles_run


def test_grant_onto_follower_wire_matches_reference():
    eng, (*_, c) = build("fast")
    ref, _ = build("reference")
    eng.run_cycles(30)
    ref.run_cycles(30)
    shared = lane_on(c, "b1[5].0")
    assert c.needs_route and follows(shared) and shared.buf == 1
    # E (6 -> 4) takes b1[5]'s other lane: the grant puts the wire
    # back on the sweep, and C's real counters need no repair.
    e = eng.offer(6, 4, 40)
    ref.offer(6, 4, 40)
    eng.run_cycles(10)
    ref.run_cycles(10)
    assert lane_on(e, "b1[5].0") is shared.channel.lanes[1 - shared.index]
    assert shared.channel.owned_count == 2 and shared.channel.in_active
    assert state(eng) == state(ref)
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert c.state is e.state is PacketState.DELIVERED
    assert outcome(eng) == outcome(ref)


def test_bubble_rejoins_the_sweep():
    """A (0 -> 7) and X (4 -> 5) share b1[1], so A's flits cross it
    every other cycle and its b2[5] lane, fed from there, alternates
    between following (full) and a bubble back on the sweep (empty)."""
    offers = ((0, 7, 200), (4, 5, 200))
    eng, (a, x) = build("fast", offers)
    ref, _ = build("reference", offers)
    seen = set()
    for _ in range(40):
        eng.run_cycles(1)
        ref.run_cycles(1)
        assert state(eng) == state(ref), f"diverged at cycle {eng.cycles_run}"
        if len(a.lanes) == 4 and a._lz_base < 0:
            lane = lane_on(a, "b2[5].0")
            seen.add((lane.channel.in_active, lane.buf))
    assert seen == {(True, 0), (False, 1)}, seen
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert a.state is x.state is PacketState.DELIVERED
    assert outcome(eng) == outcome(ref)


def test_abort_of_worm_with_followers_matches_reference():
    eng, (*_, c) = build("fast")
    ref, (*_, ref_c) = build("reference")
    eng.run_cycles(30)
    ref.run_cycles(30)
    held = [ln for ln in c.lanes if follows(ln)]
    assert [ln.channel.label for ln in held] == ["inj[2]", "b1[5].0"]
    eng.abort_packet(c)
    ref.abort_packet(ref_c)
    assert c.state is PacketState.FAILED
    assert all(ln.owner is None and not ln.channel.in_active for ln in held)
    # Later worms reuse the released wires from off the list.
    for engine in (eng, ref):
        engine.offer(2, 4, 30)
        engine.offer(6, 5, 30)
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert state(eng) == state(ref)
    assert eng.idle and outcome(eng) == outcome(ref)
