"""Channel model and routing interface of :class:`DirectNetwork`."""

import pytest

from repro.direct import DirectNetwork, DirectTopology
from repro.wormhole.network import NetworkKind, build_network
from repro.wormhole.packet import Packet


def make_packet(net, src, dst, pid=1):
    p = Packet(pid, src, dst, 4, 0.0)
    net.prepare(p)
    return p


def test_channel_inventory_mesh_dor():
    net = DirectNetwork(DirectTopology(k=3, n=3))
    # Per node: 1 delivery + 1 injection; per directed link: 1 escape.
    links = sum(1 for _ in net.topo.links())
    assert net.escape_classes == 1
    assert net.channel_count == 2 * net.N + links
    assert not net.adaptive


def test_channel_inventory_torus_adaptive():
    net = DirectNetwork(
        DirectTopology(k=3, n=3, wrap=True), router="adaptive",
        adaptive_lanes=2,
    )
    links = sum(1 for _ in net.topo.links())
    assert net.escape_classes == 2
    # 2 escape classes + 2 adaptive lanes per directed link.
    assert net.channel_count == 2 * net.N + 4 * links


def test_labels_and_find_channel():
    net = DirectNetwork(DirectTopology(k=3, n=3, wrap=True), router="adaptive")
    ch = net.find_channel("x+[1,2,0].e0")
    dim, sign, u, v, tag, cls = ch.meta
    assert (dim, sign, tag, cls) == (0, 1, "esc", 0)
    assert net.topo.coords(u) == (1, 2, 0)
    assert net.topo.neighbor(u, 0, 1) == v
    assert net.find_channel("z-[0,0,1].a0").meta[4] == "adp"
    assert net.find_channel("dlv[5]").is_delivery
    assert net.find_channel("inj[5]") is net.injection_channel(5)


def test_topo_order_is_delivery_first_injection_last():
    net = DirectNetwork(DirectTopology(k=2, n=3))
    ordered = net.topo_channels
    assert all(ch.is_delivery for ch in ordered[: net.N])
    assert all(ch.label.startswith("inj[") for ch in ordered[-net.N:])
    # Fabric lanes sit between, by descending dimension (z before y
    # before x): downstream-ish Phase B order for DOR.
    fabric = ordered[net.N: -net.N]
    dims = [ch.meta[0] for ch in fabric]
    assert dims == sorted(dims, reverse=True)


def test_dor_candidates_single_escape_in_dimension_order():
    net = DirectNetwork(DirectTopology(k=3, n=3))
    src = net.topo.node_at((0, 0, 0))
    dst = net.topo.node_at((2, 1, 2))
    p = make_packet(net, src, dst)
    hops = []
    while p.cur != dst:
        cands = net.candidates(p)
        assert len(cands) == 1  # deterministic DOR
        ch = cands[0]
        hops.append(ch.meta[0])
        net.advance(p, ch)
    # Dimension-order: all x hops, then y, then z.
    assert hops == sorted(hops)
    assert len(hops) == net.topo.distance(src, dst)
    assert net.candidates(p) == [net.dlv[dst]]


def test_adaptive_candidates_cover_min_directions_escape_last():
    net = DirectNetwork(
        DirectTopology(k=3, n=3, wrap=True), router="adaptive",
        adaptive_lanes=2,
    )
    src = net.topo.node_at((0, 0, 0))
    dst = net.topo.node_at((1, 2, 0))
    p = make_packet(net, src, dst)
    cands = net.candidates(p)
    assert net.is_escape(cands[-1])
    adp = cands[:-1]
    assert all(ch.meta[4] == "adp" for ch in adp)
    assert {(ch.meta[0], ch.meta[1]) for ch in adp} == set(
        net.topo.min_directions(src, dst)
    )
    assert len(adp) == 2 * len(net.topo.min_directions(src, dst))


def test_candidates_are_memoized():
    net = DirectNetwork(DirectTopology(k=2, n=3))
    p = make_packet(net, 0, 7)
    assert net.candidates(p) is net.candidates(p)


def test_torus_escape_crosses_dateline_once():
    """Escape class starts at 0 pre-wrap and steps to 1 after."""
    net = DirectNetwork(DirectTopology(k=4, n=1, wrap=True))
    p = make_packet(net, 3, 1)  # minimal route 3 -> 0 -> 1 wraps at 3->0
    first = net.candidates(p)[0]
    assert first.meta[5] == 0 and first.meta[1] == 1
    net.advance(p, first)
    second = net.candidates(p)[0]
    assert second.meta[5] == 1  # post-dateline class
    net.advance(p, second)
    assert p.cur == 1


def test_mesh_uses_single_escape_class():
    net = DirectNetwork(DirectTopology(k=4, n=2))
    assert all(key[3] == 0 for key in net.escape)


class FakeLane:
    def __init__(self, channel):
        self.channel = channel


def test_preferred_lane_picks_max_credit_adaptive():
    net = DirectNetwork(
        DirectTopology(k=3, n=1), router="adaptive", adaptive_lanes=1
    )
    p = make_packet(net, 0, 2)
    lane_fwd = FakeLane(net.adaptive[(0, 0, 1)][0])     # downstream node 1
    # Congest node 1's outgoing lanes so its credit drops below node
    # 2's... by occupying them directly.
    for ch in net.node_output_channels(1):
        if not ch.is_delivery:
            ch.lanes[0].owner = p
    lane_esc = FakeLane(net.escape[(0, 0, 1, 0)])
    # Only adaptive lanes are scored; with one adaptive candidate the
    # pick is that lane regardless of the escape's presence.
    pick = net.preferred_lane(p, [lane_fwd, lane_esc], rng=None)
    assert pick is lane_fwd
    # Escape-only candidate set: defer to the engine's default.
    assert net.preferred_lane(p, [lane_esc], rng=None) is None


def test_preferred_lane_round_robin_breaks_credit_ties():
    net = DirectNetwork(
        DirectTopology(k=4, n=1, wrap=True), router="adaptive",
        adaptive_lanes=1,
    )
    p = make_packet(net, 0, 2)  # k/2 away: both directions minimal
    lanes = [
        FakeLane(net.adaptive[(0, 0, 1)][0]),
        FakeLane(net.adaptive[(0, 0, -1)][0]),
    ]
    picks = [net.preferred_lane(p, lanes, rng=None) for _ in range(4)]
    assert picks == [lanes[0], lanes[1], lanes[0], lanes[1]]


def test_dor_network_never_overrides_lane_choice():
    net = DirectNetwork(DirectTopology(k=3, n=1))
    p = make_packet(net, 0, 2)
    lane = FakeLane(net.escape[(0, 0, 1, 0)])
    assert net.preferred_lane(p, [lane], rng=None) is None


def test_vlink_slowdown_marks_last_dimension_only():
    net = DirectNetwork(DirectTopology(k=2, n=3), vlink_slowdown=3)
    for ch in net.topo_channels:
        if ch.meta is None:
            continue
        expected = 3 if ch.meta[0] == net.topo.n - 1 else 1
        assert ch.slowdown == expected


def test_build_network_dispatch():
    mesh = build_network("mesh3d", k=2, n=3)
    torus = build_network(
        "torus3d", k=2, n=3, router="adaptive", vlink_slowdown=2
    )
    assert isinstance(mesh, DirectNetwork)
    assert mesh.kind is NetworkKind.MESH3D
    assert torus.kind is NetworkKind.TORUS3D
    assert torus.router == "adaptive"
    assert torus.vlink_slowdown == 2


def test_validation():
    topo = DirectTopology(k=2, n=2)
    with pytest.raises(ValueError):
        DirectNetwork(topo, router="smart")
    with pytest.raises(ValueError):
        DirectNetwork(topo, adaptive_lanes=0)
    with pytest.raises(ValueError):
        DirectNetwork(topo, vlink_slowdown=0)


def test_worm_phase_stays_off():
    """The engine's following lanes assume ascending topo order,
    which adaptive acquisition violates; DirectNetwork opts out."""
    assert DirectNetwork.worm_phase_ok is False
