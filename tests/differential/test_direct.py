"""Engine-tier bit-identity on the direct topologies.

The direct networks exercise engine paths the MIN cases cannot: the
``worm_phase_ok`` opt-out (adaptive acquisition order violates the
following lanes' ascending-rank assumption, so every owned lane stays
on the channel sweep), the ``preferred_lane`` credit/round-robin
override, and the
``vlink_slowdown`` channel cooldowns.  Their unslowed fabrics free-run
and span-sleep like the MINs, but a streaming worm's buffers settle
into the pattern the channel order sets rather than all holding a flit
(see :mod:`repro.wormhole.ledger`): the 64-node (4-ary 3-cube) cases
below -- long worms, and hard faults that abort free-running worms
mid-stream -- pin the ledger's release/drain schedule and the
materialization that abort relies on.  Each case runs the same seeded
point under both engine tiers and asserts byte-equal snapshots (see
:mod:`tests.differential.harness`).
"""

from dataclasses import replace

import pytest

from repro.experiments.config import NetworkConfig
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.mtbf import fabric_channels
from repro.faults.plan import FaultEvent, FaultPlan
from repro.traffic.workload import MessageSizeModel
from tests.differential.harness import (
    CFG,
    EventRecorder,
    assert_identical,
    run_case,
    strip_kernel_counters,
)

GEOM = {"k": 2, "n": 3}

#: The 64-node fabrics ``docs/topologies.md`` compares the MINs with.
GEOM64 = {"k": 4, "n": 3}

#: Paper-size worms (uniform 8..1024 flits) in a tier-1-sized window.
CFG_PAPER = replace(
    CFG,
    warmup_packets=10,
    measure_packets=60,
    sizes=MessageSizeModel.paper(),
)


def hard_storm(engine) -> FaultPlan:
    """Hard transient faults every 100 cycles, four wires at a time.

    Spread over the fabric by a fixed stride, so on a loaded 64-node
    fabric they cut wires that streaming (free-running) worms hold.
    """
    fabric = fabric_channels(engine.network)
    n = len(fabric)
    return FaultPlan(
        tuple(
            FaultEvent(
                at=150.0 + 100.0 * j,
                channels=tuple(
                    fabric[(97 * (4 * j + c) + 13) % n].label for c in range(4)
                ),
                duration=120.0,
                severity="hard",
            )
            for j in range(24)
        )
    )


@pytest.mark.parametrize("kind", ["mesh3d", "torus3d"])
@pytest.mark.parametrize("router", ["dor", "adaptive"])
def test_direct_uniform(kind, router):
    assert_identical(
        kind, "uniform", 0.6, net_kwargs={**GEOM, "router": router}
    )


@pytest.mark.parametrize("kind", ["mesh3d", "torus3d"])
@pytest.mark.parametrize("router", ["dor", "adaptive"])
def test_direct_with_faults(kind, router):
    assert_identical(
        kind, "uniform", 0.6, faults=True,
        net_kwargs={**GEOM, "router": router},
    )


@pytest.mark.parametrize("kind", ["mesh3d", "torus3d"])
@pytest.mark.parametrize("router", ["dor", "adaptive"])
@pytest.mark.parametrize("load", [0.2, 0.6])
@pytest.mark.parametrize(
    "run_cfg", [CFG, CFG_PAPER], ids=["smoke_sizes", "paper_sizes"]
)
def test_direct_64_node_hard_faults(kind, router, load, run_cfg):
    assert_identical(
        kind, "uniform", load, faults=hard_storm, run_cfg=run_cfg,
        net_kwargs={**GEOM64, "router": router},
    )


def test_direct_hotspot_high_load():
    assert_identical(
        "torus3d", "hotspot", 0.9,
        net_kwargs={**GEOM, "router": "adaptive"},
    )


@pytest.mark.parametrize("router", ["dor", "adaptive"])
def test_direct_vlink_slowdown(router):
    assert_identical(
        "torus3d", "uniform", 0.6,
        net_kwargs={**GEOM, "router": router, "vlink_slowdown": 2},
    )


def test_light_load_torus_spans(monkeypatch):
    """A light 64-node adaptive torus point free-runs and sleeps spans
    on the default tier, with every observable equal to the reference's
    (the sanitizer switches both off, so this case runs without it)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    network = NetworkConfig("torus3d", **GEOM64, router="adaptive")
    load = 0.1
    outcomes = []
    for tier in ("reference", "fast"):
        env, eng, root = build_point(network, load, CFG_PAPER, tier)
        workload = WorkloadSpec(pattern="uniform", **GEOM64).builder(
            CFG_PAPER
        )(load)
        install_workload(
            eng, workload, root.fork(f"workload/{network.label}/{load}")
        )
        warm_up(eng, CFG_PAPER)
        window, _ = measure(eng, CFG_PAPER)
        outcomes.append(
            (window, tuple(eng.stats.records), eng.cycles_run, env.now)
        )
    # The adaptive torus's routes defy the channel order: its sweep
    # parks blocked worms but lets no lane follow.
    assert eng.fast and eng._free_run and not eng._following
    assert eng.lanes_followed == 0
    assert eng.cycles_skipped > 0, "no span was taken"
    assert outcomes[1] == outcomes[0]


def test_direct_event_streams_identical():
    """Hot-bus mode: the exact publish order must match, not just the
    end state."""
    kwargs = {"net_kwargs": {**GEOM, "router": "adaptive"}}
    ref_rec = EventRecorder()
    ref = run_case("torus3d", "uniform", 0.6, "reference",
                   sink=ref_rec, **kwargs)
    rec = EventRecorder()
    got = run_case("torus3d", "uniform", 0.6, "fast", sink=rec, **kwargs)
    assert strip_kernel_counters(got) == strip_kernel_counters(ref)
    assert rec.events == ref_rec.events
