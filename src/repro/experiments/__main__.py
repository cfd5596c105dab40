"""CLI: regenerate the paper's figures and the availability sweep.

    python -m repro.experiments --figure fig18 --mode scaled
    python -m repro.experiments --all --mode smoke
    python -m repro.experiments --availability --mode smoke
    python -m repro.experiments --stability --mode smoke
    python -m repro.experiments --direct --mode smoke
    python -m repro.experiments --transport --mode smoke
    python -m repro.experiments --replay trace.bin --network dmin

One simulation point can also be run with the observability subsystem
attached (:mod:`repro.obs`): ``--obs-report`` prints the contention /
latency / kernel-profile report, ``--trace out.json`` additionally
writes a Perfetto-loadable timeline::

    python -m repro.experiments --trace point.json --obs-report \\
        --network vmin --pattern shuffle --load 0.8 --mode smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.figures import FIGURE_BUILDERS
from repro.experiments.report import render_figure, shape_checks
from repro.experiments.workload_spec import PATTERNS, WorkloadSpec
from repro.wormhole.engine import ENGINE_KINDS

#: Network kinds the traced-point mode accepts.
NETWORK_KINDS = ("tmin", "dmin", "vmin", "bmin", "mesh3d", "torus3d")


def _run_traced(args: argparse.Namespace, run_cfg) -> int:
    """The --trace/--obs-report/--obs-json single-point mode."""
    import json
    import pathlib

    from repro.experiments.traced import run_traced_point

    network = NetworkConfig(
        args.network,
        router=args.router,
        vlink_slowdown=args.vlink_slowdown,
    )
    spec = WorkloadSpec(pattern=args.pattern, k=network.k, n=network.n)
    start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
    measurement, obs = run_traced_point(
        network, spec, args.load, run_cfg, trace=bool(args.trace)
    )
    elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
    print(
        f"=== traced point: {network.label} / {spec.label} "
        f"@ load {args.load:g} (mode={args.mode}) ==="
    )
    print(
        f"throughput {measurement.throughput_percent:.1f}%  "
        f"latency mean {measurement.avg_latency:.1f} "
        f"p50 {measurement.p50_latency:.1f} "
        f"p95 {measurement.p95_latency:.1f} "
        f"p99 {measurement.p99_latency:.1f} cycles"
    )
    if args.obs_report:
        print()
        print(obs.report())
    if args.trace:
        count = obs.write_trace(args.trace)
        print(f"\n(Perfetto trace: {count} events written to {args.trace})")
    if args.obs_json:
        path = pathlib.Path(args.obs_json)
        path.write_text(json.dumps(obs.to_dict(), indent=2))
        print(f"(observability summary written to {path})")
    print(f"\n(traced point in {elapsed:.1f}s)")
    return 0


def _run_replay(args: argparse.Namespace, run_cfg) -> int:
    """The --replay mode: recorded trace through the reliable transport."""
    from repro.experiments.runner import build_point, install_workload
    from repro.traffic.trace import TraceWorkload, read_trace
    from repro.transport import ReliableTransport
    from repro.wormhole.engine import resolve_engine

    trace = read_trace(args.replay)
    network = NetworkConfig(
        args.network,
        router=args.router,
        vlink_slowdown=args.vlink_slowdown,
    )
    kind = resolve_engine(args.engine)
    env, engine, root = build_point(network, "replay", run_cfg, kind)
    label = network.label
    transport = ReliableTransport(
        engine, rng=root.fork(f"transport/{label}/replay")
    )
    workload = TraceWorkload(trace, transport=transport)
    start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
    install_workload(engine, workload, root.fork(f"workload/{label}/replay"))
    # Drive the replay process to exhaustion first -- it lives outside
    # both idle predicates until it hands messages to the transport --
    # then quiesce drains retransmissions, acks and backoff timers.
    total = len(trace.records)
    horizon = (trace.records[-1].t if trace.records else 0.0) + run_cfg.max_cycles
    while workload.replayed < total and env.now < horizon:
        env.run(until=min(env.now + 256, horizon))
    transport.quiesce()
    elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
    settled = len(transport.outcomes)
    print(
        f"=== replay: {args.replay} -> {label} "
        f"(engine={kind}, mode={args.mode}) ==="
    )
    print(
        f"records {workload.replayed}/{len(trace.records)} replayed, "
        f"{settled} outcomes settled over {env.now:g} cycles"
    )
    print(
        f"delivered {transport.messages_delivered}  "
        f"aborted {transport.messages_aborted}  "
        f"retransmits {engine.stats.retransmitted_packets}  "
        f"rto fires {engine.stats.rto_fires}  "
        f"dup acks {engine.stats.dup_acks}  "
        f"acks lost {transport.acks_lost}"
    )
    ratio = transport.delivered_ratio()
    print(f"delivered ratio {ratio:.4f}" if ratio == ratio else
          "delivered ratio n/a (no messages)")
    print(f"\n(replay in {elapsed:.1f}s)")
    unsettled = workload.replayed - settled
    if unsettled or workload.replayed != len(trace.records):
        print(f"FAIL: {unsettled} message(s) never settled")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a shell exit code (1 on failed checks)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the evaluation figures of Ni, Gui & Moore.",
    )
    parser.add_argument(
        "--figure",
        choices=sorted(FIGURE_BUILDERS),
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--all", action="store_true", help="regenerate every figure"
    )
    parser.add_argument(
        "--availability",
        action="store_true",
        help="run the fault-rate degradation sweep (beyond the paper)",
    )
    parser.add_argument(
        "--fault-rates",
        type=float,
        nargs="+",
        metavar="U",
        help="per-channel unavailability ladder for --availability",
    )
    parser.add_argument(
        "--stability",
        action="store_true",
        help="run the post-saturation stability sweep (beyond the paper)",
    )
    parser.add_argument(
        "--direct",
        action="store_true",
        help="run the direct-topology sweep: 3D mesh/torus, DOR vs "
        "adaptive routing (beyond the paper)",
    )
    parser.add_argument(
        "--transport",
        action="store_true",
        help="run the loss-storm sweep comparing the AIMD fabric "
        "governor against end-to-end reliable transport (beyond the "
        "paper)",
    )
    parser.add_argument(
        "--replay",
        metavar="TRACE",
        help="replay a recorded trace (tools/trace_gen.py) through "
        "--network with the reliable transport and report outcomes",
    )
    parser.add_argument(
        "--load-factors",
        type=float,
        nargs="+",
        metavar="X",
        help="knee-multiple ladder for --stability/--transport "
        "(default 0.8 1.0 1.2 1.5)",
    )
    parser.add_argument(
        "--mode",
        choices=sorted(PRESETS),
        default="scaled",
        help="fidelity preset (default: scaled)",
    )
    parser.add_argument(
        "--plot", action="store_true", help="draw ASCII latency/throughput curves"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write <DIR>/<figure>.csv and .json exports",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        help="run one traced point and write a Perfetto timeline",
    )
    parser.add_argument(
        "--obs-report",
        action="store_true",
        help="run one traced point and print the observability report",
    )
    parser.add_argument(
        "--obs-json",
        metavar="OUT.json",
        help="run one traced point and dump its observability summary",
    )
    parser.add_argument(
        "--network",
        choices=NETWORK_KINDS,
        default="dmin",
        help="network for the traced point (default: dmin)",
    )
    parser.add_argument(
        "--router",
        choices=("dor", "adaptive"),
        default="dor",
        help="routing function for the direct kinds (default: dor)",
    )
    parser.add_argument(
        "--vlink-slowdown",
        type=int,
        default=1,
        metavar="S",
        help="cycles per flit on last-dimension links of the direct "
        "kinds (default: 1 = full speed)",
    )
    parser.add_argument(
        "--pattern",
        choices=PATTERNS,
        default="uniform",
        help="traffic pattern for the traced point (default: uniform)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=0.6,
        help="offered load for the traced point (default: 0.6)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a throttled heartbeat while figures regenerate",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_KINDS,
        default=None,
        help="execution path: the optimized default ('fast') or the "
        "simple reference engine ('reference'); results are identical, "
        "only wall-clock differs",
    )
    args = parser.parse_args(argv)
    if args.engine:
        # Carried via the environment so parallel worker processes and
        # every nested run_point inherit the choice.
        os.environ["REPRO_ENGINE"] = args.engine
    traced_mode = bool(args.trace or args.obs_report or args.obs_json)
    if (
        not args.all
        and not args.figure
        and not args.availability
        and not args.stability
        and not args.direct
        and not args.transport
        and not args.replay
        and not traced_mode
    ):
        parser.error(
            "pick --figure <id>, --all, --availability, --stability, "
            "--direct, --transport, --replay <trace>, or a traced-point "
            "flag (--trace/--obs-report/--obs-json)"
        )

    run_cfg = PRESETS[args.mode]
    failures = 0
    more_work = bool(
        args.all
        or args.figure
        or args.availability
        or args.stability
        or args.direct
        or args.transport
    )

    if traced_mode:
        code = _run_traced(args, run_cfg)
        if not more_work and not args.replay:
            return code
        print()

    if args.replay:
        code = _run_replay(args, run_cfg)
        if not more_work:
            return code
        if code:
            failures += 1
        print()

    if args.availability:
        from repro.experiments.availability import (
            FAULT_RATES,
            availability_checks,
            availability_comparison,
            render_availability,
        )

        start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
        rates = tuple(args.fault_rates) if args.fault_rates else FAULT_RATES
        results = availability_comparison(run_cfg, fault_rates=rates)
        elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
        print(render_availability(results))
        print(f"\n(availability sweep in {elapsed:.1f}s, mode={args.mode})")
        print("\nshape checks:")
        for chk in availability_checks(results):
            print(f"  {chk}")
            if not chk.passed:
                failures += 1
        print()
        if (
            not args.all
            and not args.figure
            and not args.stability
            and not args.direct
            and not args.transport
        ):
            return 1 if failures else 0

    if args.stability:
        from repro.experiments.stability import (
            LOAD_FACTORS,
            render_stability,
            stability_checks,
            stability_comparison,
        )

        start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
        factors = (
            tuple(args.load_factors) if args.load_factors else LOAD_FACTORS
        )
        results = stability_comparison(run_cfg, load_factors=factors)
        elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
        print(render_stability(results))
        print(f"\n(stability sweep in {elapsed:.1f}s, mode={args.mode})")
        print("\nshape checks:")
        for chk in stability_checks(results):
            print(f"  {chk}")
            if not chk.passed:
                failures += 1
        print()
        if (
            not args.all
            and not args.figure
            and not args.direct
            and not args.transport
        ):
            return 1 if failures else 0

    if args.direct:
        from repro.experiments.direct import (
            direct_checks,
            direct_comparison,
            render_direct,
        )

        start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
        series = direct_comparison(run_cfg)
        elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
        print(render_direct(series))
        print(f"\n(direct sweep in {elapsed:.1f}s, mode={args.mode})")
        print("\nshape checks:")
        for chk in direct_checks(series):
            print(f"  {chk}")
            if not chk.passed:
                failures += 1
        print()
        if not args.all and not args.figure and not args.transport:
            return 1 if failures else 0

    if args.transport:
        from repro.experiments.transport import (
            LOAD_FACTORS as TRANSPORT_FACTORS,
        )
        from repro.experiments.transport import (
            render_transport,
            transport_checks,
            transport_comparison,
        )

        start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
        factors = (
            tuple(args.load_factors)
            if args.load_factors
            else TRANSPORT_FACTORS
        )
        results = transport_comparison(run_cfg, load_factors=factors)
        elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
        print(render_transport(results))
        print(f"\n(transport sweep in {elapsed:.1f}s, mode={args.mode})")
        print("\nshape checks:")
        for chk in transport_checks(results):
            print(f"  {chk}")
            if not chk.passed:
                failures += 1
        print()
        if not args.all and not args.figure:
            return 1 if failures else 0

    targets = sorted(FIGURE_BUILDERS) if args.all else [args.figure]
    if args.progress and targets != [None]:
        from repro.obs.progress import ProgressMeter

        meter = ProgressMeter(prefix="figures")
    else:
        meter = None
    for done, name in enumerate(targets):
        if meter is not None:
            meter(done, len(targets), name)
        start = time.perf_counter()  # lint-sim: ignore[RPV002] -- harness wall time
        fig = FIGURE_BUILDERS[name](run_cfg)
        elapsed = time.perf_counter() - start  # lint-sim: ignore[RPV002] -- harness wall time
        print(render_figure(fig))
        if args.plot:
            from repro.experiments.plotting import plot_figure

            print()
            print(plot_figure(fig))
        if args.csv:
            import pathlib

            from repro.experiments.export import (
                write_figure_csv,
                write_figure_json,
            )

            out = pathlib.Path(args.csv)
            out.mkdir(parents=True, exist_ok=True)
            write_figure_csv(fig, out / f"{name}.csv")
            write_figure_json(fig, out / f"{name}.json")
            print(f"\n(exports written to {out}/{name}.csv and .json)")
        print(f"\n({name} regenerated in {elapsed:.1f}s, mode={args.mode})")
        print("\nshape checks:")
        for chk in shape_checks(fig):
            print(f"  {chk}")
            if not chk.passed:
                failures += 1
        print()
    if meter is not None:
        meter(len(targets), len(targets), "done")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
