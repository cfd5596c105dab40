"""Engine-tier bit-identity on the direct topologies.

The direct networks exercise engine paths the MIN cases cannot: the
``worm_phase_ok`` opt-out (adaptive acquisition order violates the
per-worm Phase B's ascending-rank assumption), the ``preferred_lane``
credit/round-robin override, and the ``vlink_slowdown`` channel
cooldowns.  Each case runs the same seeded point under both engine
tiers and asserts byte-equal snapshots (see
:mod:`tests.differential.harness`).
"""

import pytest

from tests.differential.harness import (
    EventRecorder,
    assert_identical,
    run_case,
    strip_kernel_counters,
)

GEOM = {"k": 2, "n": 3}


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
