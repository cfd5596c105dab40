"""Free-run and span sleep on multi-lane wires (the VMIN's channel sweep).

A worm whose every held wire carries no other owned lane moves exactly
as on single-lane wires, so the channel sweep hands it to the free-run
ledger; a Phase A grant that shares one of its wires materializes it
again.  These tests pin that both paths really run on the default tier
and that the run stays bit-identical to the reference tier.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from tests.wormhole.test_span_clock import CYCLES, streaming_point


def _count(eng, name: str) -> list:
    """Wrap the engine method ``name`` so its calls are counted."""
    calls = [0]
    method = getattr(eng, name)

    def counted(*args):
        calls[0] += 1
        return method(*args)

    setattr(eng, name, counted)
    return calls


def test_light_load_vmin_spans_and_free_runs(default_tier):
    env, eng = streaming_point(kind="vmin")
    # Unslowed wires: body lanes follow and blocked worms park, shared
    # round robins or not.
    assert eng._free_run and eng._following
    entries = _count(eng, "_enter_lazy")
    eng.start()
    env.run(until=CYCLES)
    assert eng.stats.delivered_packets > 0
    assert entries[0] > 0, "no worm entered free-run"
    assert eng.cycles_skipped > 0, "no span was taken"


def _vmin_point(engine: str, load: float):
    """Run a smoke VMIN point through its window; (engine, window,
    coupling-grant count)."""
    cfg = PRESETS["smoke"]
    network = NetworkConfig("vmin")
    _, eng, root = build_point(network, load, cfg, engine)
    couples = _count(eng, "_couple") if engine == "fast" else [0]
    workload = WorkloadSpec(pattern="uniform").builder(cfg)(load)
    install_workload(eng, workload, root.fork(f"workload/{network.label}/{load}"))
    warm_up(eng, cfg)
    window, _ = measure(eng, cfg)
    return eng, window, couples[0]


@pytest.mark.parametrize("load", (0.4, 0.8))
def test_coupling_grant_materializes_free_runner(default_tier, load):
    fast, window, couples = _vmin_point("fast", load)
    ref, ref_window, _ = _vmin_point("reference", load)
    assert couples > 0, "no grant shared a free-running worm's wire"
    assert window == ref_window
    assert fast.stats.records == ref.stats.records
    assert fast.cycles_run == ref.cycles_run
    assert [ch.rr_next for ch in fast.network.topo_channels] == [
        ch.rr_next for ch in ref.network.topo_channels
    ]
