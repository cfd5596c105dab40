"""Following lanes and sleeping shared wires in the VMIN's channel sweep.

A full body lane leaves the fast tier's active list and moves only
inside the sweep, right after the downstream move that drains it; a
blocked worm with no ready lane parks.  A wire whose every owner sleeps
(parked, or a full body lane that follows) leaves the list, shared or
not.  A follower drained on a shared sleeping wire moves at once when no
other owner can be drained before the wire's visit; otherwise the wire
is woken into the sweep and its visit runs the round robin.  A follower
found with an empty upstream buffer at the drain is a bubble and rejoins
the list; a Phase A grant onto a sleeping wire puts the wire back on it;
an abort simply releases the lanes.  Every case must match the
reference tier exactly.  The scripted cases run on an 8-node VMIN (2x2
switches, three stages, two lanes per wire); their routes:

* 2 -> 7: inj[2], b1[5], b2[5], dlv[7]
* 6 -> 4: inj[6], b1[5], b2[4], dlv[4]
* 0 -> 7: inj[0], b1[1], b2[5], dlv[7]
* 4 -> 5: inj[4], b1[1], b2[4], dlv[5]
* 0 -> 4: inj[0], b1[1], b2[4], dlv[4]
* 4 -> 6: inj[4], b1[1], b2[5], dlv[6]
* 1 -> 4: inj[1], b1[3], b2[6], dlv[4]
* 3 -> 4: inj[3], b1[7], b2[6], dlv[4]
* 5 -> 6: inj[5], b1[3], b2[7], dlv[6]
* 7 -> 6: inj[7], b1[7], b2[7], dlv[6]
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.network import build_network
from repro.wormhole.packet import PacketState
from tests.differential.harness import following_lanes

#: C (2 -> 7) blocks at b2[5] behind 0 -> 7 and 1 -> 7, which hold
#: both lanes of dlv[7]; once its pipeline is compressed it parks, and
#: its inj[2], b1[5] and b2[5] wires leave the list.
BLOCKED = ((0, 7, 300), (1, 7, 300), (2, 7, 100))

#: The four blockers hold both lanes of dlv[4] (1 -> 4, 3 -> 4) and of
#: dlv[6] (5 -> 6, 7 -> 6).  With the 80-flit P (0 -> 4) and Q (4 -> 6),
#: which share b1[1], Q parks at b2[5] while P follows beside it on
#: b1[1], and later both followers there are drained in one sweep.
#: With 40-flit ones, 1 -> 4 parks with its head lane on b2[6] beside
#: 3 -> 4's following lane, and is granted there when P delivers.
DRAINS = ((1, 4, 60), (3, 4, 60), (5, 6, 60), (7, 6, 60), (0, 4, 80), (4, 6, 80))
GRANTS = ((1, 4, 60), (3, 4, 60), (5, 6, 60), (7, 6, 60), (0, 4, 40), (4, 6, 40))

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


def loaded_point_matches_reference(network, load):
    cfg = PRESETS["smoke"]
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


def test_loaded_vmin_point_follows_and_matches_reference():
    loaded_point_matches_reference(NetworkConfig("vmin"), 0.6)


def test_loaded_three_lane_vmin_matches_reference():
    """Three lanes per wire: the sweep's round robin steps by each
    lane's ``rr_after`` and wraps from the last lane to the first."""
    loaded_point_matches_reference(NetworkConfig("vmin", virtual_channels=3), 0.8)


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
    """C is parked when it is aborted: its wires are off the list, and
    the abort simply releases them."""
    eng, (*_, c) = build("fast")
    ref, (*_, ref_c) = build("reference")
    eng.run_cycles(30)
    ref.run_cycles(30)
    held = [ln for ln in c.lanes if follows(ln)]
    assert c._parked
    assert [ln.channel.label for ln in held] == ["inj[2]", "b1[5].0", "b2[5].0"]
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


def downstream_sent(lane) -> int:
    """Flits its worm's next lane has taken from ``lane``'s buffer so far."""
    return lane.owner.lanes[lane.route_idx + 1].sent


def asleep(wire) -> bool:
    """A shared wire off the list, every owner asleep."""
    return wire.owned_count > 1 and not wire.in_active


def test_ff_wire_drained_twice_in_one_sweep_matches_reference():
    """Both followers on b1[1] are drained in one sweep: P's by its
    following b2[4] lane, Q's by the header crossing Q's new head lane
    on dlv[6], visited after P's drain.  Neither may move at its drain:
    the wire is woken into the sweep, and its round robin picks the
    lane the reference picks."""
    eng, worms = build("fast", DRAINS)
    ref, _ = build("reference", DRAINS)
    p, q = worms[4:]
    wire = eng.network.find_channel("b1[1].0")
    parked_beside = drained_twice = 0
    for _ in range(400):
        ff = asleep(wire) and not p._parked and not q._parked
        if ff:
            before = [downstream_sent(ln) for ln in wire.lanes]
        if asleep(wire) and q._parked and not p._parked:
            parked_beside += 1
        eng.run_cycles(1)
        ref.run_cycles(1)
        assert state(eng) == state(ref), f"diverged at cycle {eng.cycles_run}"
        if ff and all(
            ln.owner is not None and downstream_sent(ln) > sent
            for ln, sent in zip(wire.lanes, before)
        ):
            drained_twice += 1
    assert parked_beside > 0, "P never followed beside parked Q"
    assert drained_twice > 0, "no sweep drained both followers on b1[1]"
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert all(w.state is PacketState.DELIVERED for w in worms)
    assert outcome(eng) == outcome(ref)


def test_bf_wire_parked_head_granted_matches_reference():
    """1 -> 4 parks with its head lane on b2[6] beside 3 -> 4's
    follower, which moves at each drain (the round robin can only pick
    it); P's delivery frees a lane of dlv[4], the grant unparks 1 -> 4,
    and its old head lane follows on the sleeping wire too."""
    eng, worms = build("fast", GRANTS)
    ref, _ = build("reference", GRANTS)
    b = worms[0]
    wire = eng.network.find_channel("b2[6].0")
    granted = 0
    for _ in range(200):
        bf = asleep(wire) and b._parked and b.lanes[-1].channel is wire
        eng.run_cycles(1)
        ref.run_cycles(1)
        assert state(eng) == state(ref), f"diverged at cycle {eng.cycles_run}"
        if bf and not b._parked:
            granted += 1
            assert b.lanes[-1].channel.label == "dlv[4]"
    assert granted == 1, "1 -> 4 was not granted from a sleeping shared wire"
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert all(w.state is PacketState.DELIVERED for w in worms)
    assert outcome(eng) == outcome(ref)


def test_abort_of_parked_worm_on_shared_wire_matches_reference():
    """Aborting 1 -> 4 while it is parked beside 3 -> 4's follower on
    b2[6] leaves the follower alone on the sleeping wire."""
    eng, worms = build("fast", GRANTS)
    ref, ref_worms = build("reference", GRANTS)
    eng.run_cycles(50)
    ref.run_cycles(50)
    b = worms[0]
    wire = eng.network.find_channel("b2[6].0")
    assert b._parked and asleep(wire)
    eng.abort_packet(b)
    ref.abort_packet(ref_worms[0])
    assert b.state is PacketState.FAILED and not wire.in_active
    assert wire.owned_count == 1
    for _ in range(40):
        eng.run_cycles(1)
        ref.run_cycles(1)
        assert state(eng) == state(ref), f"diverged at cycle {eng.cycles_run}"
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert eng.idle and outcome(eng) == outcome(ref)


@pytest.mark.parametrize("duration", (0.5, 20.0), ids=("repaired", "dead"))
def test_flip_of_parked_worm_candidate_matches_reference(duration):
    """Soft-failing dlv[4], the only candidate of parked 1 -> 4, wakes
    its header (the flip lands between two cycles): repaired before
    the next Phase A, the header blocks again and the worm stays
    parked; still faulty, its route is dead and Phase A aborts it from
    its sleeping wires."""
    plan = FaultPlan((
        FaultEvent(at=49.25, channels=("dlv[4]",), duration=duration),
    ))
    engines = []
    for tier in ("fast", "reference"):
        eng, worms = build(tier, GRANTS)
        plan.install(eng.env, eng.network, eng)
        engines.append((eng, worms))
    (eng, worms), (ref, _) = engines
    b = worms[0]
    eng.run_cycles(45)
    ref.run_cycles(45)
    assert b._parked and b._blk_usable is not None
    for _ in range(25):
        eng.run_cycles(1)
        ref.run_cycles(1)
        assert state(eng) == state(ref), f"diverged at cycle {eng.cycles_run}"
    if duration < 1:
        assert b._parked and b.state is PacketState.ACTIVE
    else:
        assert b.state is PacketState.FAILED
    eng.run_cycles(CYCLES)
    ref.run_cycles(CYCLES)
    assert eng.idle and outcome(eng) == outcome(ref)
