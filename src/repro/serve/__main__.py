"""CLI front of the sweep service.

Run a job from a spec file (and resume it after any crash by running
the same command again)::

    python -m repro.serve --spec job.json --cache cache/ --job-dir jobs/

or inline, without a spec file::

    python -m repro.serve --cache cache/ \\
        --networks dmin vmin --pattern uniform \\
        --loads 0.2 0.6 --seeds 1 2 --mode smoke

SIGTERM/SIGINT wind the service down gracefully: finished points are
already persisted in the content-addressed cache, a partial manifest
(``complete: false`` with an ``incomplete`` list) is written, and the
exit code is 3.  Re-running the identical command resumes -- cached
points are served from disk and only the unfinished remainder is
recomputed.  Exit codes: 0 complete, 3 incomplete/interrupted,
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.workload_spec import PATTERNS, WorkloadSpec
from repro.obs.progress import ProgressMeter
from repro.serve.job import FaultSpec, JobManifest, JobSpec
from repro.serve.service import SweepService
from repro.serve.supervisor import DEFAULT_RETRY, SupervisePolicy
from repro.wormhole.engine import ENGINE_KINDS

NETWORK_KINDS = ("tmin", "dmin", "vmin", "bmin")


def _build_spec(args: argparse.Namespace) -> JobSpec:
    if args.spec:
        return JobSpec.read(args.spec)
    if not args.networks:
        raise SystemExit("need --spec FILE or --networks KIND [KIND ...]")
    return JobSpec(
        networks=tuple(NetworkConfig(kind) for kind in args.networks),
        run=PRESETS[args.mode],
        workload=WorkloadSpec(pattern=args.pattern),
        loads=tuple(args.loads or ()),
        seeds=tuple(args.seeds or ()),
        engine=args.engine,
        faults=(
            FaultSpec(rate=args.fault_rate)
            if args.fault_rate is not None
            else None
        ),
    )


def _render_summary(manifest: JobManifest, elapsed_note: str = "") -> str:
    c = manifest.counts
    lines = [
        f"=== job {manifest.job_id} "
        f"{'COMPLETE' if manifest.complete else 'INCOMPLETE'} ===",
        f"points    {c['requested']} requested, {c['unique']} unique "
        f"({c['deduplicated']} deduplicated)",
        f"served    {c['cached']} cached + {c['computed']} computed",
    ]
    if c["failed"] or c["pending"]:
        lines.append(
            f"unserved  {c['failed']} failed (poisoned), "
            f"{c['pending']} pending"
        )
    sup = manifest.supervisor
    if sup:
        lines.append(
            f"workers   {sup.get('retries', 0)} retries, "
            f"{sup.get('worker_deaths', 0)} deaths, "
            f"{sup.get('stall_kills', 0)} stall kills"
        )
    cache = manifest.cache
    lines.append(
        f"cache     {cache['hits']} hits / {cache['misses']} misses"
        + (f", {cache['corrupt']} quarantined" if cache["corrupt"] else "")
    )
    lines.append(f"elapsed   {manifest.elapsed_s:.1f}s{elapsed_note}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve sweep jobs from a content-addressed result cache.",
    )
    parser.add_argument("--spec", metavar="JOB.json", help="job spec file")
    parser.add_argument(
        "--cache", required=True, metavar="DIR", help="result cache root"
    )
    parser.add_argument(
        "--job-dir", metavar="DIR", default=None,
        help="manifest directory (default: <cache>/jobs)",
    )
    parser.add_argument(
        "--networks", nargs="+", choices=NETWORK_KINDS,
        help="inline spec: network kinds",
    )
    parser.add_argument(
        "--pattern", choices=PATTERNS, default="uniform",
        help="inline spec: traffic pattern (default: uniform)",
    )
    parser.add_argument(
        "--loads", type=float, nargs="+", help="inline spec: offered loads"
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", help="inline spec: seed replicates"
    )
    parser.add_argument(
        "--mode", choices=sorted(PRESETS), default="scaled",
        help="inline spec: fidelity preset (default: scaled)",
    )
    parser.add_argument(
        "--engine", choices=ENGINE_KINDS, default="fast",
        help="inline spec: execution path (default: fast)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=None,
        help="inline spec: per-channel unavailability fraction",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes (default: 2)"
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None,
        help="cooperative per-point deadline, seconds",
    )
    parser.add_argument(
        "--stall-after", type=float, default=60.0,
        help="stale-heartbeat kill threshold, seconds (default: 60)",
    )
    parser.add_argument(
        "--csv", metavar="OUT.csv",
        help="also export the served measurements as long-form CSV",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full manifest JSON instead of the summary",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the progress heartbeat"
    )
    args = parser.parse_args(argv)

    try:
        spec = _build_spec(args)
    except (KeyError, OSError, TypeError, ValueError) as exc:
        parser.error(f"bad job spec: {exc}")
    cache_root = Path(args.cache)
    job_dir = Path(args.job_dir) if args.job_dir else cache_root / "jobs"
    try:
        policy = SupervisePolicy(
            workers=args.workers,
            retry=DEFAULT_RETRY,
            point_timeout=args.point_timeout,
            stall_after=args.stall_after,
        )
    except ValueError as exc:
        parser.error(f"bad supervisor policy: {exc}")
    service = SweepService(
        cache=cache_root,
        policy=policy,
        job_root=job_dir,
        progress=None if args.quiet else ProgressMeter(prefix="serve"),
    )

    def _wind_down(signum: int, frame: object) -> None:
        # Signal handlers must stay async-signal-safe-ish (RPV008):
        # print() takes the stderr buffer lock and can deadlock the very
        # process we are winding down; os.write is a single syscall.
        os.write(
            2,
            (
                f"[serve] signal {signum}: finishing in-flight "
                "bookkeeping, writing partial manifest\n"
            ).encode(),
        )
        service.request_stop()

    old_term = signal.signal(signal.SIGTERM, _wind_down)
    old_int = signal.signal(signal.SIGINT, _wind_down)
    try:
        manifest = service.run_job_sync(spec)
    finally:
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)

    if args.csv:
        from repro.serve.export import write_manifest_csv

        write_manifest_csv(manifest, service.cache, args.csv)
        print(f"(manifest CSV written to {args.csv})", file=sys.stderr)

    try:
        if args.json:
            print(json.dumps(manifest.to_dict(), indent=2))
        else:
            print(_render_summary(manifest))
            print(f"(manifest: {service.manifest_path(spec)})")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``... | head``).  The job is
        # settled and its manifest written, so the exit code still
        # reports it; stdout goes to devnull so the interpreter's exit
        # flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if manifest.complete else 3


if __name__ == "__main__":
    sys.exit(main())
