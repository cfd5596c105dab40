"""The span-sleep clock on the default engine tier.

Long worms in a quiet fabric leave most cycles provably empty; the
default tier must sleep through them (few executed ticks per simulated
cycle) and must do so without importing numpy, whose import would land
in every process's setup time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import build_point, install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.traffic.workload import MessageSizeModel

SRC = Path(__file__).resolve().parents[2] / "src"

#: Cycles each streaming point runs for.
CYCLES = 20_000


def streaming_point(engine=None, load=0.1, kind="dmin", router="dor"):
    """A point with 1024-flit worms at light load (clock not started);
    ``router`` applies to the direct kinds."""
    cfg = replace(PRESETS["smoke"], sizes=MessageSizeModel("fixed", 1024, 1024))
    network = NetworkConfig(kind, router=router)
    env, eng, root = build_point(network, load, cfg, engine)
    workload = WorkloadSpec(pattern="uniform").builder(cfg)(load)
    workload.install(env, eng, root.fork(f"workload/{network.label}/{load}"))
    return env, eng


def contended_point(engine=None):
    """A DMIN point at saturation with 64-flit worms (default tier
    unless ``engine`` names one), run through its measurement window on
    the point lifecycle; returns the engine."""
    cfg = replace(
        PRESETS["smoke"], warmup_packets=10, measure_packets=40,
        sizes=MessageSizeModel("fixed", 64, 64),
    )
    network = NetworkConfig("dmin")
    load = 1.0
    _, eng, root = build_point(network, load, cfg, engine)
    workload = WorkloadSpec(pattern="uniform").builder(cfg)(load)
    install_workload(eng, workload, root.fork(f"workload/{network.label}/{load}"))
    warm_up(eng, cfg)
    measure(eng, cfg)
    return eng


def _count_ticks(eng) -> list:
    """Wrap ``eng.step_cycle`` so executed ticks are counted."""
    calls = [0]
    step = eng.step_cycle

    def counted():
        calls[0] += 1
        step()

    eng.step_cycle = counted
    return calls


def test_default_tier_sleeps_through_streaming(default_tier):
    env, eng = streaming_point()
    ticks = _count_ticks(eng)
    eng.start()
    env.run(until=CYCLES)
    assert eng.stats.delivered_packets > 0
    assert ticks[0] <= 0.2 * eng.cycles_run
    # Every cycle is either executed or credited by a span.
    assert eng.cycles_run == ticks[0] + eng.cycles_skipped


def test_reference_tier_ticks_every_cycle(default_tier):
    env, eng = streaming_point(engine="reference")
    ticks = _count_ticks(eng)
    eng.start()
    env.run(until=CYCLES // 4)
    assert eng.cycles_skipped == 0
    assert ticks[0] == eng.cycles_run


class _HotSink:
    """Subscribes to a hot bus kind, which demands every cycle."""

    def on_transmit(self, t, channel, lane) -> None:
        pass


def test_tiers_count_the_same_shuffle_draws(default_tier):
    """The span-sleep clock defers all-blocked cycles' shuffles as
    debt, but counts their draws when they are owed: both tiers report
    the same Fisher-Yates draws, while the fast tier runs fewer full
    allocation scans."""
    fast = contended_point("fast")
    ref = contended_point("reference")
    assert fast.cycles_run == ref.cycles_run
    assert fast.cycles_skipped > 0
    assert fast.shuffle_draws == ref.shuffle_draws > 0
    assert 0 < fast.alloc_scans < ref.alloc_scans


def test_hot_bus_sink_switches_span_sleep_off(default_tier):
    env, eng = streaming_point()
    eng.bus.attach(_HotSink())
    eng.start()
    env.run(until=CYCLES // 4)
    assert eng.bus.hot
    assert eng.cycles_skipped == 0


def test_default_tier_point_imports_no_numpy():
    """A fresh process that runs a streaming and a contended
    default-tier point never imports numpy, and the contended point
    draws from the prefetched allocation stream."""
    code = (
        "import sys\n"
        "from repro.sim.rng import PrefetchStream\n"
        "from tests.wormhole.test_span_clock import (\n"
        "    CYCLES, contended_point, streaming_point)\n"
        "env, eng = streaming_point()\n"
        "eng.start()\n"
        "env.run(until=CYCLES)\n"
        "assert eng.cycles_skipped > 0, 'no span was taken'\n"
        "eng = contended_point()\n"
        "assert isinstance(eng.rng, PrefetchStream), eng.rng\n"
        "assert 'numpy' not in sys.modules, 'the default tier imported numpy'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]))
    env.pop("REPRO_ENGINE", None)
    env.pop("REPRO_SANITIZE", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
