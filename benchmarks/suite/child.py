"""One repetition of one workload on one engine tier, in a fresh process.

The driver (``run.py``) starts one of these per (workload, tier,
repetition), one at a time, so every repetition pays -- and reports --
its own imports, and its peak memory belongs to one tier.  The result
is written as JSON to ``--out``::

    python benchmarks/suite/child.py --workload contended --tier batch \\
        --seed 20250707 --out result.json --workdir scratch [--trace] [--smoke]

Every time it reports is in reference seconds (``refclock.py``): the
clock starts before the program's first import and runs until the
result is written.  Needs ``src/`` on ``PYTHONPATH`` (the driver sets
it).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys

from refclock import CLOCK, clock, cpu, wall

TIERS = ("reference", "fast", "batch")


def peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tier", choices=TIERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True, help="scratch directory (serve cache)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--ablation", choices=("bus", "queue", "watchdog"), default=None
    )
    parser.add_argument(
        "--cold-only", action="store_true",
        help="serve: only the cold jobs, no warm or parallel checks",
    )
    args = parser.parse_args(argv)

    import workloads

    kind = workloads.KIND[args.workload]
    # The serve workload's work happens in its worker processes, which
    # only wall time sees; the others run in this process, whose CPU
    # time leaves out the moments the hypervisor stole.
    CLOCK.start(base=wall if kind == "serve" else cpu)
    try:
        result = run(args, workloads, kind)
    finally:
        CLOCK.stop()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run(args, workloads, kind) -> dict:
    from probes import Tracer

    w0 = wall()
    t0 = clock()
    for name in workloads.IMPORTS[kind]:
        importlib.import_module(name)
    if args.tier == "batch":
        importlib.import_module("repro.wormhole.batch").require_numpy()
    import_s = clock() - t0

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_probes(tracer, kind, args.tier)
    options = {"cold_only": True} if args.cold_only else {}
    result = workloads.RUNNERS[kind](
        args.workload, args.tier, args.seed, args.smoke,
        tracer=tracer, ablation=args.ablation, workdir=args.workdir, **options,
    )
    result["setup_s"] += import_s
    result["import_s"] = import_s
    result["rss_mb"] = peak_rss_mb()
    result["clock"] = {
        "wall_s": wall() - w0,
        "ref_s": clock() - t0,
        "calibrating_s": CLOCK.calibrating_s,
        "mean_rate": CLOCK.mean_rate,
    }
    if tracer is not None:
        layers = (
            workloads.serve_layers if kind == "serve" else workloads.engine_layers
        )
        result["layers"] = layers(tracer, result, import_s)
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
        tracer.close()
    return result


if __name__ == "__main__":
    sys.exit(main())
