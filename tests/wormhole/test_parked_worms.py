"""Parked worms and per-channel fault invalidation on the fast tier.

On the direct fabrics the fast tier's channel sweep parks a worm whose
header is blocked and whose pipeline is compressed: its wires leave the
active list until Phase A grants the header (or an abort drops the
worm).  A fault flip wakes only the blocked headers that list the
flipped channel among their candidates, and re-arms only the node whose
injection channel it is.  Each scripted case below offers three worms
around the x line (nodes 0..3) of a 4-ary 3-cube mesh and must match
the reference tier exactly.
"""

from __future__ import annotations

from repro.direct.network import DirectNetwork
from repro.direct.topo import DirectTopology
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.packet import PacketState

#: A (3 -> 11) holds y+[3] for ~200 cycles; B (0 -> 7) runs the x line
#: and blocks behind A at node 3.  B's x+ buffers stream empty (the
#: sweep visits x+[0] before x+[1]), so its pipeline takes two cycles
#: to compress before it parks.  C (0 -> 4, the y line) queues behind B
#: at node 0.
OFFERS = ((3, 11, 200), (0, 7, 40), (0, 4, 20))

#: A (1 -> 3) and B (0 -> 2) meet at node 1 instead.
SHORT_OFFERS = ((1, 3, 200), (0, 2, 40), (0, 4, 20))

#: Cycles every case runs: all three worms settle well before.
CYCLES = 500


def build(tier, router="dor", plan=None, offers=OFFERS):
    """A 64-node mesh engine on ``tier`` with ``offers`` queued."""
    env = Environment()
    net = DirectNetwork(DirectTopology(k=4, n=3), router=router)
    eng = WormholeEngine(env, net, rng=RandomStream(7), engine=tier)
    worms = [eng.offer(src, dst, length) for src, dst, length in offers]
    if plan is not None:
        plan.install(env, net, eng)
    return env, eng, worms


def outcome(eng, worms) -> tuple:
    """Every observable the cases compare between the tiers."""
    s = eng.stats
    return (
        tuple(s.records),
        s.delivered_flits,
        s.failed_packets,
        eng.cycles_run,
        eng.env.now,
        tuple(p.state for p in worms),
    )


def reference(router="dor", plan=None, offers=OFFERS) -> tuple:
    env, eng, worms = build("reference", router, plan, offers)
    eng.run_cycles(CYCLES)
    return outcome(eng, worms)


def lane_state(p) -> list:
    """Each acquired lane's wire, ownership and flit counters."""
    return [(ln.channel.label, ln.owner is p, ln.sent, ln.buf) for ln in p.lanes]


def test_parked_worm_granted_matches_reference():
    _, ref, ref_worms = build("reference")
    env, eng, (a, b, c) = build("fast")
    ref.run_cycles(100)
    eng.run_cycles(100)
    assert b._parked and eng.worms_parked == 1
    assert b.needs_route and b._blk_usable is not None
    for lane in b.lanes:
        assert lane.owner is b and not lane.channel.in_active
    # Parked only once compressed: every owned buffer holds a flit,
    # exactly as the reference sweep left them.
    assert lane_state(b) == lane_state(ref_worms[1])
    assert [ln.buf for ln in b.lanes] == [1, 1, 1, 1]
    # Node 0 is backlogged (C) behind B's injection lane.
    assert eng._backlogged == {0}
    ref.run_cycles(CYCLES - 100)
    eng.run_cycles(CYCLES - 100)
    assert not b._parked
    assert [p.state for p in (a, b, c)] == [PacketState.DELIVERED] * 3
    assert outcome(eng, (a, b, c)) == outcome(ref, ref_worms)


def hard_cut_of_b() -> FaultPlan:
    """Cut B's x+ wire while B is parked; repair it 50 cycles later."""
    return FaultPlan((
        FaultEvent(
            at=100.0, channels=("x+[0,0,0].e0",), duration=50.0,
            severity="hard",
        ),
    ))


def test_parked_worm_hard_aborted_matches_reference():
    env, eng, (a, b, c) = build("fast", plan=hard_cut_of_b())
    eng.run_cycles(99)
    assert b._parked
    eng.run_cycles(CYCLES - 99)
    assert b.state is PacketState.FAILED and not b._parked
    # B's released injection lane let C through on the y line.
    assert a.state is c.state is PacketState.DELIVERED
    assert outcome(eng, (a, b, c)) == reference(plan=hard_cut_of_b())


def test_flip_nobody_lists_leaves_caches_and_nodes_alone():
    env, eng, (a, b, c) = build("fast")
    eng.run_cycles(100)
    assert b._parked and eng._backlogged == {0}
    cached = b._blk_usable
    valid = eng._blk_valid
    class Rearms(set):
        """Records every node put on the ready-to-inject set."""

        def __init__(self, nodes):
            super().__init__(nodes)
            self.added = []

        def add(self, node):
            self.added.append(node)
            super().add(node)

        def __ior__(self, nodes):
            self.added.extend(nodes)
            return super().__ior__(nodes)

    rearms = eng._inj_ready = Rearms(eng._inj_ready)
    far = eng.network.find_channel("z+[3,3,0].e0")
    far.fail()
    eng.run_cycles(1)
    far.repair()
    eng.run_cycles(1)
    assert eng._blk_valid == valid
    # A recomputation would have cached a fresh list.
    assert b._blk_usable is cached, "B's blocked header was recomputed"
    assert rearms.added == [], "a flip re-armed an unrelated node"
    assert b._parked


def repair_beside_blocked() -> FaultPlan:
    """Soft-fail the adaptive x+ lane out of node 1 until cycle 60, so
    A takes the escape lane there."""
    return FaultPlan((
        FaultEvent(at=0.0, channels=("x+[1,0,0].a0",), duration=60.0),
    ))


def test_repair_wakes_header_blocked_beside_faulty_candidate():
    """B blocks at node 1 on [x+[1].a0 (faulty), x+[1].e0 (held by A)].
    The repair of a0 must wake it at once: a fast tier that registers
    blocked headers only on their usable candidates waits for A's tail
    instead."""
    env, eng, (a, b, c) = build(
        "fast", "adaptive", repair_beside_blocked(), SHORT_OFFERS
    )
    eng.run_cycles(50)
    assert [ln.channel.label for ln in a.lanes][:2] == [
        "inj[1]", "x+[1,0,0].e0"
    ]
    assert b.needs_route and b._blk_usable is not None
    assert [ch.label for ch in b._blk_usable] == ["x+[1,0,0].e0"]
    eng.run_cycles(15)
    assert "x+[1,0,0].a0" in [ln.channel.label for ln in b.lanes]
    eng.run_cycles(CYCLES - 65)
    assert b.delivered_at < a.delivered_at
    assert outcome(eng, (a, b, c)) == reference(
        "adaptive", repair_beside_blocked(), SHORT_OFFERS
    )
