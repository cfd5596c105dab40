"""Microbenchmarks of the wormhole engine itself.

Two harnesses share this module:

* classic pytest-benchmark timings (multiple rounds): simulation cycles
  per second for each network kind under a fixed uniform load, and the
  cost of network construction;
* a CLI perf gate (``python benchmarks/bench_engine.py``) that times
  the N=64 uniform-traffic load sweeps (DMIN, the multi-lane VMIN and
  the adaptive torus) under both engine tiers (reference, fast) in
  alternating pairs, records the schema-6 result in
  ``benchmarks/BENCH_engine.json``, and -- with ``--check`` -- fails
  when an absolute tier gate breaks (the default fast tier >= 10x
  reference on the DMIN sweep and >= 20x reference on the streaming
  point) or a gated ratio regressed more than 20% against the
  committed baseline.  The gate compares *ratios*, not absolute
  seconds, so it is stable across machines of different speed (CI
  runners vs. laptops).

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
# Schema 6 (two engine tiers, paired readings).  Four scenarios, all
# the paper's N=64 uniform-traffic geometry; the MIN legs use
# paper-fidelity 1024-flit messages (the paper's longest; the figures
# fix the message length per curve):
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
# How a leg is measured.  A shared host changes speed by a third within
# minutes, so two best-of times taken a minute apart do not make a
# ratio.  Each leg runs ``--pairs`` (>= 5) reference/fast pairs back to
# back, alternating which tier goes first, and reads the median of the
# per-pair ratios.  Every run is timed on the benchmark suite's
# reference clock (``benchmarks/suite/refclock.py``) over process CPU
# time: stolen time is not counted, and the host's speed of the moment
# is calibrated out every 20 ms.  The baseline stores each leg's
# readings, their median and their spread.
#
# ``--check`` re-measures every scenario and fails when an absolute gate
# breaks or a gated median ratio fell more than ``--tolerance`` below
# the committed baseline's.

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
#: Reference/fast pairs per leg (the fewest a baseline may hold).
MIN_PAIRS = 5
#: Within a pair, a tier repeats the scenario until it has spent this
#: many reference seconds on it and reports the mean per run: the fast
#: tier finishes the streaming point in ~30 ms.
_MIN_PAIR_SECONDS = 0.25
_SUITE = pathlib.Path(__file__).resolve().parent / "suite"


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


def _run_seconds(clock, engine_name: str, loads: tuple, network, cfg):
    """Reference seconds per run of the uniform sweep on ``network`` (a
    ``NetworkConfig``), repeated until ``_MIN_PAIR_SECONDS`` are spent;
    returns (seconds per run, last result)."""
    from repro.experiments.runner import sweep
    from repro.experiments.workload_spec import WorkloadSpec

    builder = WorkloadSpec(pattern="uniform").builder(cfg)
    runs = 0
    t0 = clock()
    while True:
        result = sweep(
            network, builder, cfg, loads=loads, label="bench", engine=engine_name
        )
        runs += 1
        spent = clock() - t0
        if spent >= _MIN_PAIR_SECONDS:
            return spent / runs, result


def _time_scenario(
    clock, pairs: int, loads: tuple, kind: str = "dmin",
    measure_packets: int = _MEASURE_PACKETS, router: str = "dor",
    sizes=None,
) -> dict:
    """Time ``pairs`` reference/fast pairs on one N=64 (k=4, n=3) load
    set; assert the tiers agree."""
    from statistics import median

    from repro.experiments.config import NetworkConfig

    network = NetworkConfig(kind, router=router)
    cfg = _bench_cfg(measure_packets, sizes)
    seconds: dict[str, list[float]] = {"reference": [], "fast": []}
    ratios = []
    for i in range(pairs):
        order = ("reference", "fast") if i % 2 == 0 else ("fast", "reference")
        points = {}
        for tier in order:
            took, result = _run_seconds(clock, tier, loads, network, cfg)
            seconds[tier].append(took)
            points[tier] = result.points
        assert points["fast"] == points["reference"], (
            "fast and reference engines disagree -- run tests/differential"
        )
        ratios.append(seconds["reference"][-1] / seconds["fast"][-1])
    return {
        "reference_seconds": round(median(seconds["reference"]), 3),
        "fast_seconds": round(median(seconds["fast"]), 3),
        "fast_over_reference": round(median(ratios), 3),
        "fast_over_reference_readings": [round(r, 3) for r in ratios],
        "fast_over_reference_spread": [round(min(ratios), 3), round(max(ratios), 3)],
    }


def _load_refclock():
    """The benchmark suite's reference clock module, imported as is."""
    if str(_SUITE) not in sys.path:
        sys.path.insert(0, str(_SUITE))
    import refclock

    return refclock


def run_gate(pairs: int = MIN_PAIRS) -> dict:
    """Time both engine tiers on every scenario; return the JSON-ready
    schema-6 record."""
    refclock = _load_refclock()
    refclock.CLOCK.start(base=refclock.cpu)
    clock = refclock.clock
    try:
        legs = {
            "sweep": _time_scenario(clock, pairs, SWEEP_LOADS),
            "streaming": _time_scenario(clock, pairs, STREAMING_LOADS),
            "vmin_sweep": _time_scenario(
                clock, pairs, SWEEP_LOADS, "vmin", _VMIN_MEASURE_PACKETS
            ),
            "torus_sweep": _time_scenario(
                clock, pairs, SWEEP_LOADS, "torus3d", _TORUS_MEASURE_PACKETS,
                router="adaptive", sizes=MessageSizeModel.paper(),
            ),
        }
    finally:
        refclock.CLOCK.stop()
    return {
        "schema": 6,
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
        },
        "method": {
            "pairs": pairs,
            "clock": "process CPU time on benchmarks/suite/refclock.py",
            "min_pair_seconds": _MIN_PAIR_SECONDS,
            "statistic": "median of per-pair fast/reference ratios",
        },
        "gates": {
            "sweep_fast_over_reference_min": GATE_SWEEP_FAST_OVER_REFERENCE,
            "streaming_fast_over_reference_min": GATE_STREAMING_FAST_OVER_REFERENCE,
        },
        **legs,
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

    parser = argparse.ArgumentParser(
        description="engine perf gate: reference vs fast on the N=64 sweeps"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--pairs",
        type=int,
        default=MIN_PAIRS,
        help=f"reference/fast pairs per leg (>= {MIN_PAIRS}, default {MIN_PAIRS})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional ratio regression vs. baseline (default 0.20)",
    )
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    path = pathlib.Path(__file__).parent / "BENCH_engine.json"

    record = run_gate(pairs=args.pairs)
    for name in ("sweep", "streaming", "vmin_sweep", "torus_sweep"):
        row = record[name]
        lo, hi = row["fast_over_reference_spread"]
        print(
            f"{name:11s}  reference {row['reference_seconds']:6.2f}s   "
            f"fast {row['fast_seconds']:6.2f}s   "
            f"fast/ref {row['fast_over_reference']:6.2f}x "
            f"(pairs {lo:.2f}..{hi:.2f}x)"
        )
    failures = _check_absolute_gates(record)
    if not args.check:
        for line in failures:
            print(f"FAIL: {line}")
        if failures:
            return 1
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    baseline = json.loads(path.read_text())
    if (baseline.get("schema"), baseline.get("scenario")) != (
        record["schema"], record["scenario"]
    ):
        failures.append(
            "the baseline was measured on another schema or scenario; "
            "rebaseline with benchmarks/bench_engine.py"
        )
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
