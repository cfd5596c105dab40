"""Cross-module integration tests: workload -> engine -> metrics -> theory.

These tie the full pipeline together: the traffic generators drive the
flit-level engine, the collector measures it, and the results must obey
the analytic structure (uncontended latency formulas, monotonicity,
conservation, locality) across all four networks.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.figures import uniform_workload
from repro.experiments.runner import run_point
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.traffic.clusters import cluster_16, global_cluster
from repro.traffic.patterns import UniformPattern
from repro.traffic.workload import MessageSizeModel, Workload
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.trace import Tracer

KINDS = ["tmin", "dmin", "vmin", "bmin"]
QUICK = replace(SMOKE, warmup_packets=30, measure_packets=250)


@pytest.mark.parametrize("kind", KINDS)
def test_low_load_accepts_everything(kind):
    """At 10% load every network delivers what is offered."""
    m = run_point(
        NetworkConfig(kind), uniform_workload(global_cluster(), QUICK), 0.1, QUICK
    )
    assert m.sustainable
    offered_rate = 0.1
    assert m.throughput == pytest.approx(offered_rate, rel=0.15)


@pytest.mark.parametrize("kind", KINDS)
def test_low_load_latency_near_uncontended(kind):
    """At 5% load the mean latency approaches hops + E[L]: queueing and
    contention nearly vanish."""
    cfg = replace(QUICK, sizes=MessageSizeModel("fixed", low=16))
    m = run_point(
        NetworkConfig(kind, k=2, n=3),
        uniform_workload(global_cluster(nbits=3), cfg),
        0.05,
        cfg,
    )
    # Uncontended: 4 hops + 16 - 2 = 18 (TMIN); BMIN averages less.
    assert m.avg_network_latency < 18 * 1.6


def test_latency_monotone_in_load():
    cfg = QUICK
    wb = uniform_workload(global_cluster(), cfg)
    lats = [
        run_point(NetworkConfig("dmin"), wb, load, cfg).avg_latency
        for load in (0.1, 0.3, 0.6)
    ]
    assert lats[0] < lats[1] < lats[2]


def test_throughput_tracks_load_below_saturation():
    cfg = QUICK
    wb = uniform_workload(global_cluster(), cfg)
    thr = [
        run_point(NetworkConfig("dmin"), wb, load, cfg).throughput
        for load in (0.1, 0.2, 0.3)
    ]
    for expected, measured in zip((0.1, 0.2, 0.3), thr):
        assert measured == pytest.approx(expected, rel=0.2)


@pytest.mark.parametrize("kind", KINDS)
def test_conservation_snapshot(kind):
    """offered == delivered + failed + queued + in flight, at any time."""
    env = Environment()
    eng = WormholeEngine(env, build_network(kind, 4, 3), rng=RandomStream(3))
    wl = Workload(
        global_cluster(),
        UniformPattern,
        offered_load=0.7,
        sizes=MessageSizeModel.scaled(),
    )
    wl.install(env, eng, RandomStream(4))
    eng.start()
    for _ in range(5):
        env.run(until=env.now + 400)
        queued = sum(eng.queue_length(node) for node in range(64))
        assert (
            eng.stats.offered_packets
            == eng.stats.delivered_packets
            + eng.stats.failed_packets
            + queued
            + eng.in_flight
        )


def test_bmin_cluster_traffic_never_leaves_subtrees():
    """Theorem 4 dynamically: cluster-16 traffic on the BMIN never
    acquires a top-boundary channel (locality observed, not assumed)."""
    env = Environment()
    eng = WormholeEngine(env, build_network("bmin", 4, 3), rng=RandomStream(5))
    tracer = Tracer()
    eng.bus.attach(tracer)
    wl = Workload(
        cluster_16("cube"),
        UniformPattern,
        offered_load=0.5,
        sizes=MessageSizeModel.scaled(),
    )
    wl.install(env, eng, RandomStream(6))
    eng.start()
    env.run(until=3000)
    assert eng.stats.delivered_packets > 100
    acquired = [
        e.detail for e in tracer.events if e.kind == "acquired"
    ]
    assert acquired
    # Boundary-2 channels (fwd2/bwd2) belong to the top of the tree.
    assert not any(d.startswith(("fwd2", "bwd2")) for d in acquired)


def test_global_traffic_does_use_the_top():
    env = Environment()
    eng = WormholeEngine(env, build_network("bmin", 4, 3), rng=RandomStream(5))
    tracer = Tracer()
    eng.bus.attach(tracer)
    wl = Workload(
        global_cluster(),
        UniformPattern,
        offered_load=0.5,
        sizes=MessageSizeModel.scaled(),
    )
    wl.install(env, eng, RandomStream(6))
    eng.start()
    env.run(until=2000)
    acquired = [e.detail for e in tracer.events if e.kind == "acquired"]
    assert any(d.startswith("fwd2") for d in acquired)


def test_run_point_reproducible_across_processes():
    """The full pipeline is a pure function of (config, seed)."""
    cfg = QUICK
    wb = uniform_workload(global_cluster(), cfg)
    a = run_point(NetworkConfig("vmin"), wb, 0.4, cfg)
    b = run_point(NetworkConfig("vmin"), wb, 0.4, cfg)
    assert a == b


def test_all_four_networks_agree_at_vanishing_load():
    """As load -> 0 contention vanishes; the four networks differ only
    by path length, so their latencies converge within a few cycles."""
    cfg = replace(QUICK, sizes=MessageSizeModel("fixed", low=32))
    wb = uniform_workload(global_cluster(), cfg)
    lats = {
        kind: run_point(NetworkConfig(kind), wb, 0.02, cfg).avg_network_latency
        for kind in KINDS
    }
    assert max(lats.values()) - min(lats.values()) < 8.0, lats


def test_paper_units_conversion_end_to_end():
    """Latency in us = cycles / 20 all the way through the pipeline."""
    cfg = QUICK
    wb = uniform_workload(global_cluster(), cfg)
    m = run_point(NetworkConfig("tmin"), wb, 0.2, cfg)
    assert m.avg_latency_us == pytest.approx(m.avg_latency / 20.0)
