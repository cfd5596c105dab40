"""Microbenchmarks of the wormhole engine itself.

Two harnesses share this module:

* classic pytest-benchmark timings (multiple rounds): simulation cycles
  per second for each network kind under a fixed uniform load, and the
  cost of network construction;
* a CLI perf gate (``python benchmarks/bench_engine.py``) that times
  the N=64 uniform-traffic load sweeps (DMIN, the multi-lane VMIN and
  the adaptive torus) under both engine tiers (reference, fast),
  records the schema-5 result in ``benchmarks/BENCH_engine.json``,
  and -- with ``--check``
  -- fails when an absolute tier gate breaks (the default fast tier
  >= 10x reference on the DMIN sweep and >= 20x reference on the
  streaming point) or a gated ratio regressed more than 20% against
  the committed baseline.  The gate compares *ratios*, not absolute seconds, so it is
  stable across machines of different speed (CI runners vs. laptops).

    PYTHONPATH=src python benchmarks/bench_engine.py          # rebaseline
    PYTHONPATH=src python benchmarks/bench_engine.py --check  # CI gate

Useful for tracking simulator performance across changes; neither
harness makes claims about the paper.
"""

import pathlib
import sys

import pytest

# Standalone-script bootstrap: make
# `python benchmarks/bench_engine.py` work without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover
    sys.path.insert(0, str(_SRC))

from repro.sim import Environment  # noqa: E402
from repro.sim.rng import RandomStream  # noqa: E402
from repro.traffic.clusters import global_cluster  # noqa: E402
from repro.traffic.patterns import UniformPattern  # noqa: E402
from repro.traffic.workload import MessageSizeModel, Workload  # noqa: E402
from repro.wormhole import WormholeEngine, build_network  # noqa: E402

KINDS = ["tmin", "dmin", "vmin", "bmin"]


def _loaded_engine(kind: str, load: float = 0.5):
    env = Environment()
    engine = WormholeEngine(
        env, build_network(kind, k=4, n=3), rng=RandomStream(1)
    )
    workload = Workload(
        global_cluster(),
        UniformPattern,
        offered_load=load,
        sizes=MessageSizeModel.scaled(),
    )
    workload.install(env, engine, RandomStream(2))
    engine.start()
    env.run(until=500)  # reach a loaded steady state before timing
    return env, engine


@pytest.mark.parametrize("kind", KINDS)
def test_cycles_per_second(benchmark, kind):
    """Wall-clock cost of 200 loaded simulation cycles."""
    env, engine = _loaded_engine(kind)

    def run_chunk():
        env.run(until=env.now + 200)

    benchmark(run_chunk)
    assert engine.stats.delivered_packets > 0


@pytest.mark.parametrize("kind", KINDS)
def test_network_construction(benchmark, kind):
    """Cost of building the 64-node network object."""
    net = benchmark(lambda: build_network(kind, k=4, n=3))
    assert net.channel_count > 0


def test_single_packet_end_to_end(benchmark):
    """Latency of simulating one uncontended 64-flit message."""

    def one_packet():
        env = Environment()
        engine = WormholeEngine(
            env, build_network("dmin", k=4, n=3), rng=RandomStream(3)
        )
        engine.offer(0, 63, 64)
        engine.drain()
        return engine

    engine = benchmark(one_packet)
    assert engine.stats.delivered_packets == 1


# ------------------------------------------------------------ CLI perf gate
#
# Schema 5 (two engine tiers).  Four scenarios, all the paper's N=64
# uniform-traffic geometry; the MIN legs use paper-fidelity 1024-flit
# messages (the paper's longest; the figures fix the message length
# per curve):
#
# * ``sweep``      -- the DMIN offered-load ladder.  Gate: fast >= 10x
#                     reference.
# * ``streaming``  -- the DMIN load-0.1 point alone: long wormholes
#                     streaming through a quiet network, the regime the
#                     span-sleep clock targets.  Gate: fast >= 20x
#                     reference.
# * ``vmin_sweep`` -- the same ladder on the VMIN (two virtual channels
#                     per wire), with a shorter window: the channel
#                     sweep's round robin and its solo-wire free-run.
#                     No absolute floor; regression-gated only.
# * ``torus_sweep`` -- the ladder on the 64-node (4-ary 3-cube)
#                     adaptive torus with the paper's uniform 8..1024
#                     flit sizes and a shorter window: the channel
#                     sweep over single-lane wires visited in a
#                     non-downstream-first order, where streaming worms
#                     free-run on their steady buffer pattern.
#                     Regression-gated only.
#
# ``--check`` re-times every scenario and fails when an absolute gate
# breaks or a gated ratio regressed more than ``--tolerance`` against
# the committed baseline.  Gating ratios (not seconds) keeps
# the check stable across machines of different speed.

#: Absolute floors of the default tier over the reference.
GATE_SWEEP_FAST_OVER_REFERENCE = 10.0
GATE_STREAMING_FAST_OVER_REFERENCE = 20.0

#: (scenario, ratio) pairs ``--check`` holds against the baseline.
REGRESSION_GATED = (
    ("sweep", "fast_over_reference"),
    ("streaming", "fast_over_reference"),
    ("vmin_sweep", "fast_over_reference"),
    ("torus_sweep", "fast_over_reference"),
)

SWEEP_LOADS = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
STREAMING_LOADS = (0.1,)
_MESSAGE_FLITS = 1024
_WARMUP_PACKETS = 60
_MEASURE_PACKETS = 300
#: The VMIN leg's window: its reference tier is the slowest of all.
_VMIN_MEASURE_PACKETS = 100
#: The torus leg's window (paper sizes average ~516 flits).
_TORUS_MEASURE_PACKETS = 100
_MAX_CYCLES = 600_000
#: A tier keeps repeating a scenario until it has spent this long on it:
#: the optimized tiers finish the streaming point in ~50 ms, and a
#: best-of-3 over runs that short swings by a third on a shared host.
_MIN_TIMED_SECONDS = 1.0


def _bench_cfg(measure_packets: int = _MEASURE_PACKETS, sizes=None):
    """The timing RunConfig: full-fidelity sizes (fixed 1024 flits
    unless ``sizes`` says otherwise), shortened windows."""
    from dataclasses import replace

    from repro.experiments.config import PRESETS

    return replace(
        PRESETS["full"],
        warmup_packets=_WARMUP_PACKETS,
        measure_packets=measure_packets,
        max_cycles=_MAX_CYCLES,
        sizes=sizes or MessageSizeModel("fixed", _MESSAGE_FLITS, _MESSAGE_FLITS),
    )


def _sweep_seconds(
    engine_name: str, loads: tuple, repeats: int, network, cfg
) -> tuple[float, object]:
    """Best wall-clock of the uniform sweep on ``network`` (a
    ``NetworkConfig``) over at least ``repeats`` runs and at least
    ``_MIN_TIMED_SECONDS`` of timing."""
    import time

    from repro.experiments.runner import sweep
    from repro.experiments.workload_spec import WorkloadSpec

    builder = WorkloadSpec(pattern="uniform").builder(cfg)
    best = float("inf")
    result = None
    clock = time.perf_counter  # lint-sim: ignore[RPV002] -- harness wall time
    runs = 0
    spent = 0.0
    while runs < repeats or spent < _MIN_TIMED_SECONDS:
        t0 = clock()
        result = sweep(
            network, builder, cfg, loads=loads, label="bench", engine=engine_name
        )
        took = clock() - t0
        best = min(best, took)
        spent += took
        runs += 1
    return best, result


def _time_scenario(
    loads: tuple, repeats: int, kind: str = "dmin",
    measure_packets: int = _MEASURE_PACKETS, router: str = "dor",
    sizes=None,
) -> dict:
    """Time both engines on one N=64 (k=4, n=3) load set; assert they
    agree."""
    from repro.experiments.config import NetworkConfig

    network = NetworkConfig(kind, router=router)
    cfg = _bench_cfg(measure_packets, sizes)
    ref_s, ref = _sweep_seconds("reference", loads, repeats, network, cfg)
    fast_s, fast = _sweep_seconds("fast", loads, repeats, network, cfg)
    assert fast.points == ref.points, (
        "fast and reference engines disagree -- run tests/differential"
    )
    return {
        "reference_seconds": round(ref_s, 3),
        "fast_seconds": round(fast_s, 3),
        "fast_over_reference": round(ref_s / fast_s, 3),
    }


def run_gate(repeats: int = 3) -> dict:
    """Time both engine tiers on every scenario; return the JSON-ready
    schema-5 record."""
    return {
        "schema": 5,
        "scenario": {
            "network": "dmin",
            "nodes": 64,
            "pattern": "uniform",
            "message_flits": _MESSAGE_FLITS,
            "warmup_packets": _WARMUP_PACKETS,
            "measure_packets": _MEASURE_PACKETS,
            "sweep_loads": list(SWEEP_LOADS),
            "streaming_loads": list(STREAMING_LOADS),
            "vmin_sweep_network": "vmin",
            "vmin_sweep_measure_packets": _VMIN_MEASURE_PACKETS,
            "torus_sweep_network": "torus3d/adaptive",
            "torus_sweep_message_flits": "uniform 8..1024",
            "torus_sweep_measure_packets": _TORUS_MEASURE_PACKETS,
            "repeats": repeats,
            "min_timed_seconds": _MIN_TIMED_SECONDS,
        },
        "gates": {
            "sweep_fast_over_reference_min": GATE_SWEEP_FAST_OVER_REFERENCE,
            "streaming_fast_over_reference_min": GATE_STREAMING_FAST_OVER_REFERENCE,
        },
        "sweep": _time_scenario(SWEEP_LOADS, repeats),
        "streaming": _time_scenario(STREAMING_LOADS, repeats),
        "vmin_sweep": _time_scenario(
            SWEEP_LOADS, repeats, "vmin", _VMIN_MEASURE_PACKETS
        ),
        "torus_sweep": _time_scenario(
            SWEEP_LOADS, repeats, "torus3d", _TORUS_MEASURE_PACKETS,
            router="adaptive", sizes=MessageSizeModel.paper(),
        ),
    }


def _check_absolute_gates(record: dict) -> list[str]:
    """The hard floors, evaluated on fresh timings."""
    failures = []
    for scenario, floor in (
        ("sweep", GATE_SWEEP_FAST_OVER_REFERENCE),
        ("streaming", GATE_STREAMING_FAST_OVER_REFERENCE),
    ):
        got = record[scenario]["fast_over_reference"]
        if got < floor:
            failures.append(
                f"{scenario}: fast is {got:.2f}x reference, gate requires "
                f">= {floor:.0f}x"
            )
    return failures


def main(argv=None) -> int:
    import argparse
    import json
    import pathlib

    parser = argparse.ArgumentParser(
        description="engine perf gate: reference vs fast on the N=64 sweeps"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional ratio regression vs. baseline (default 0.20)",
    )
    args = parser.parse_args(argv)
    path = pathlib.Path(__file__).parent / "BENCH_engine.json"

    record = run_gate(repeats=args.repeats)
    for name in ("sweep", "streaming", "vmin_sweep", "torus_sweep"):
        row = record[name]
        print(
            f"{name:11s}  reference {row['reference_seconds']:6.2f}s   "
            f"fast {row['fast_seconds']:6.2f}s   "
            f"fast/ref {row['fast_over_reference']:6.2f}x"
        )
    if not args.check:
        failures = _check_absolute_gates(record)
        for line in failures:
            print(f"FAIL: {line}")
        if failures:
            return 1
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    baseline = json.loads(path.read_text())
    failures = _check_absolute_gates(record)
    if baseline.get("scenario") != record["scenario"]:
        print("NOTE: benchmark scenario changed; rebaseline before gating")
    else:
        for scenario, ratio in REGRESSION_GATED:
            base = baseline[scenario][ratio]
            floor = base * (1.0 - args.tolerance)
            got = record[scenario][ratio]
            print(
                f"{scenario}.{ratio}: {got:.2f}x vs baseline {base:.2f}x "
                f"(floor {floor:.2f}x)"
            )
            if got < floor:
                failures.append(
                    f"{scenario}: {ratio} {got:.2f}x fell below the "
                    f"{args.tolerance:.0%}-tolerance floor {floor:.2f}x -- "
                    "the engine regressed; investigate or rebaseline with "
                    "benchmarks/bench_engine.py"
                )
    for line in failures:
        print(f"FAIL: {line}")
    if failures:
        return 1
    print("ok: engine tiers hold their speedups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
