#!/usr/bin/env python3
"""Regenerate the golden-scenario fixtures under ``tests/golden/``.

    PYTHONPATH=src python tools/regen_golden.py            # write all
    PYTHONPATH=src python tools/regen_golden.py --check    # verify only
    PYTHONPATH=src python tools/regen_golden.py tmin_uniform_l03  # one

Each golden scenario pins the *exact* numeric outcome of one seeded
simulation point -- every measurement field, every engine counter, and
a digest of the full delivery-record stream -- as a JSON fixture.  The
suite in ``tests/golden`` re-runs each scenario and diffs field by
field, so any behavioural drift in the simulator (routing, allocation
order, RNG consumption, latency accounting) turns into a readable test
failure naming the exact field that moved, instead of a silent shift
in the paper's curves.

Fixtures are engine-independent: the differential suite certifies the
fast and reference paths bit-identical, so goldens are regenerated
with whatever ``REPRO_ENGINE`` selects (default fast) and verified the
same way.

Regenerate (and commit the diff) only when an intentional behavioural
change invalidates the pinned numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

FIXTURES = REPO / "tests" / "golden" / "fixtures"

#: Format version of the fixture files (bump on layout changes).
SCHEMA = 1

#: The golden grid: all four networks under uniform traffic at a light
#: and a heavy load, permutation/hotspot spot checks, and the 64-node
#: (4-ary 3-cube) DOR torus and mesh the MINs are compared against
#: (14 total).
SCENARIOS: dict[str, tuple[str, str, float]] = {
    "tmin_uniform_l03": ("tmin", "uniform", 0.3),
    "tmin_uniform_l08": ("tmin", "uniform", 0.8),
    "dmin_uniform_l03": ("dmin", "uniform", 0.3),
    "dmin_uniform_l08": ("dmin", "uniform", 0.8),
    "vmin_uniform_l03": ("vmin", "uniform", 0.3),
    "vmin_uniform_l08": ("vmin", "uniform", 0.8),
    "bmin_uniform_l03": ("bmin", "uniform", 0.3),
    "bmin_uniform_l08": ("bmin", "uniform", 0.8),
    "dmin_shuffle_l06": ("dmin", "shuffle", 0.6),
    "bmin_shuffle_l06": ("bmin", "shuffle", 0.6),
    "tmin_hotspot_l05": ("tmin", "hotspot", 0.5),
    "vmin_butterfly_l05": ("vmin", "butterfly", 0.5),
    "torus3d_uniform_l03": ("torus3d", "uniform", 0.3),
    "mesh3d_uniform_l08": ("mesh3d", "uniform", 0.8),
}


def compute_fixture(name: str) -> dict:
    """Run one golden scenario and build its canonical fixture dict."""
    from dataclasses import asdict

    from repro.experiments.config import PRESETS, NetworkConfig
    from repro.experiments.runner import (
        build_point,
        install_workload,
        measure,
        warm_up,
    )
    from repro.experiments.workload_spec import WorkloadSpec

    kind, pattern, load = SCENARIOS[name]
    run_cfg = PRESETS["smoke"]
    network = NetworkConfig(kind)
    spec = WorkloadSpec(pattern=pattern)

    # The point lifecycle runner.run_point runs, but the engine is kept
    # so the fixture can digest its delivery-record stream and counters.
    env, engine, root = build_point(network, load, run_cfg)
    install_workload(
        engine,
        spec.builder(run_cfg)(load),
        root.fork(f"workload/{network.label}/{load}"),
    )
    warm_up(engine, run_cfg)
    measurement, _ = measure(engine, run_cfg)

    records = engine.stats.records
    lines = [
        f"{r.pid},{r.src},{r.dst},{r.length},{r.created!r},"
        f"{r.inject_start!r},{r.delivered_at!r}"
        for r in records
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {
        "schema": SCHEMA,
        "scenario": {
            "name": name,
            "network": kind,
            "pattern": pattern,
            "load": load,
            "preset": "smoke",
            "seed": run_cfg.seed,
        },
        "measurement": asdict(measurement),
        "stats": {
            "offered_packets": engine.stats.offered_packets,
            "offered_flits": engine.stats.offered_flits,
            "delivered_packets": engine.stats.delivered_packets,
            "delivered_flits": engine.stats.delivered_flits,
            "failed_packets": engine.stats.failed_packets,
            "max_queue_len": engine.stats.max_queue_len,
            "cycles_run": engine.cycles_run,
            "final_time": env.now,
        },
        "records": {
            "count": len(records),
            "sha256": digest,
            "head": [lines[i] for i in range(min(5, len(lines)))],
        },
    }


def dumps(fixture: dict) -> str:
    """Canonical serialization (stable key order, exact float reprs)."""
    return json.dumps(fixture, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help="scenario names to regenerate (default: all)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify fixtures against fresh runs instead of writing",
    )
    args = parser.parse_args(argv)
    names = args.names or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")
    FIXTURES.mkdir(parents=True, exist_ok=True)
    stale = 0
    for name in names:
        path = FIXTURES / f"{name}.json"
        text = dumps(compute_fixture(name))
        if args.check:
            on_disk = path.read_text() if path.exists() else "<missing>"
            status = "ok" if on_disk == text else "STALE"
            if status == "STALE":
                stale += 1
            print(f"{status:5s}  {name}")
        else:
            path.write_text(text)
            print(f"wrote  {path.relative_to(REPO)}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
