"""Shared machinery of the engine-tier differential suite.

The optimized engine paths are certified against the straightforward
reference path ("reference": one kernel wake per cycle, full scans) by
running the *same* seeded simulation under every tier and asserting
the outcomes are bit-identical -- not statistically close: the same
packets take the same routes on the same cycles, block on the same
candidate sets, and produce byte-equal delivery records and
measurement windows.

``reference`` is the oracle: one kernel wake per cycle, full scans,
stdlib draws.  Both tiers share the kernel's one event queue.  The
optimized ``fast`` tier (active-set allocation, one active-channel sweep
with parked and following lanes, free-run
ledger, deferred service-order shuffles, span-sleep clock with inline
ticks, prefetched allocation stream) must match it on every simulation
observable: measurement window, all engine counters, delivery records,
``cycles_run``, ``env.now``, governor/watchdog/injector/transport
tallies.  It is *not* compared on the kernel's event-count telemetry
(``events_scheduled`` / ``events_fired``): skipping provably-empty
wake events is precisely what the span-sleep clock does, and those two
counters exist to measure scheduler cost, not simulation behaviour.
``test_engines.py::test_span_clock_fires_fewer_kernel_events`` pins
that the difference is real and points the expected way.

Every helper here builds its point exactly like
:func:`repro.experiments.runner.build_point` does (same RNG fork
labels), so the streams consumed by topology construction, traffic
generation, and allocation shuffles match between the runs by
construction; any observable divergence is then an engine bug.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import (
    build_point,
    install_workload,
    measure,
    warm_up,
)
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.mtbf import fabric_channels
from repro.faults.plan import FaultEvent, FaultPlan

#: Network kinds under test (all four of the paper's networks).
NETWORK_KINDS = ("tmin", "dmin", "vmin", "bmin")

#: Positions of the kernel event counters (``env.events_scheduled``,
#: ``env.events_fired``) in a :func:`run_case` snapshot.  Comparisons
#: against the reference exclude exactly these two -- see the module
#: docstring.
KERNEL_COUNTER_INDICES = (13, 14)

#: A short but non-trivial run: enough traffic that worms contend,
#: block, wake, and (on the fast path) enter free-run streaming.
CFG = replace(
    PRESETS["smoke"],
    warmup_packets=40,
    measure_packets=200,
    max_cycles=12_000,
)


def fault_plan(engine) -> FaultPlan:
    """A deterministic two-event plan resolved against a live network.

    One soft transient fault early (routing-table removal; in-flight
    worms keep streaming) and one *hard* transient fault mid-run (wire
    cut: worms on the channel are aborted -- on the fast path this
    forces free-running worms to materialize).  Labels are taken from
    the network's own fabric-channel list, so the identical plan
    applies to both engine runs of a case.
    """
    fabric = fabric_channels(engine.network)
    soft = fabric[3 % len(fabric)].label
    hard = fabric[7 % len(fabric)].label
    return FaultPlan(
        (
            FaultEvent(at=250.0, channels=(soft,), duration=500.0),
            FaultEvent(
                at=600.0, channels=(hard,), duration=800.0, severity="hard"
            ),
        )
    )


def run_case(
    kind: str,
    pattern: str,
    load: float,
    engine: str,
    *,
    faults=False,
    sanitize: bool = False,
    sink=None,
    sink_at: float | None = None,
    overload: str | None = None,
    governed: bool = False,
    watchdog: bool = False,
    transport: dict | None = None,
    arrival: str | None = None,
    run_cfg=CFG,
    net_kwargs: dict | None = None,
):
    """Run one seeded point under ``engine`` and snapshot its outcome.

    Returns a tuple of every observable the suite compares:
    measurement window, engine counters, the full delivery-record
    stream, simulator-kernel counters, and (with ``faults``) the
    injector's tallies.  Two snapshots compare equal iff the runs were
    bit-identical.

    ``faults`` installs :func:`fault_plan`, or -- given a callable --
    the plan it builds from the engine.

    ``sink`` attaches a bus sink before the run, or -- with
    ``sink_at`` -- mid-run, at that simulated time; the sink's
    ``free_running_at_attach``, ``following_at_attach`` and
    ``parked_at_attach`` then record how many worms the engine was
    free-running, how many lanes were following (see
    :func:`following_lanes`) and how many worms were parked (see
    :func:`parked_worms`) at that instant (always 0 on the reference
    tier).

    ``overload`` installs a deliberately tight
    :class:`~repro.stability.BoundedQueue` in the named admission mode
    so the policy actually acts during the short run; ``governed`` adds
    an aggressive AIMD governor closing the injection loop (its default
    latency_target=None keeps same-cycle rate updates commutative, so
    the loop is order-insensitive within a cycle and hence
    path-identical); ``watchdog`` arms a recovering
    :class:`~repro.stability.ProgressWatchdog` with a
    :class:`~repro.faults.recovery.SourceRetry` layer behind it.  The
    snapshot then additionally carries the shed/throttle/stall counters
    and the governor's final per-source rate vector.

    ``transport`` routes every source message through a
    :class:`~repro.transport.ReliableTransport` built from the given
    :class:`~repro.transport.TransportConfig` kwargs (use a short
    ``rto_base`` so retransmissions actually fire inside the 12k-cycle
    run); the snapshot gains the end-to-end tallies and the full sorted
    outcome map.  ``watchdog``'s SourceRetry layer is suppressed when a
    transport is present -- both re-offer the same loss, and stacking
    them double-injects.  ``arrival`` selects a bursty arrival process
    from :data:`repro.traffic.bursty.ARRIVAL_KINDS` in place of the
    Poisson default.
    """
    network = NetworkConfig(kind, **(net_kwargs or {}))
    spec = WorkloadSpec(
        pattern=pattern,
        k=network.k,
        n=network.n,
        arrival=arrival or "poisson",
    )
    saved_env = os.environ.get("REPRO_SANITIZE")
    if sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    try:
        env, eng, root = build_point(network, load, run_cfg, engine)
        if sink is not None:
            if sink_at is None:
                eng.bus.attach(sink)
            else:
                env.process(_attach_at(env, eng, sink, sink_at))
        injector = None
        if faults:
            plan = faults(eng) if callable(faults) else fault_plan(eng)
            injector = plan.install(env, eng.network, eng)
        governor = None
        if overload is not None:
            from repro.stability import AIMDConfig, AIMDGovernor, BoundedQueue

            BoundedQueue(capacity=12, mode=overload).install(eng)
            if governed:
                governor = AIMDGovernor(
                    eng,
                    AIMDConfig(
                        ai_step=0.02,
                        md_factor=0.5,
                        backlog_threshold=6,
                        decrease_holdoff=64.0,
                    ),
                )
        if watchdog:
            from repro.stability import ProgressWatchdog

            if transport is None:
                from repro.faults.recovery import RetryPolicy, SourceRetry

                retry = SourceRetry(  # noqa: F841 -- holds the subscription
                    eng,
                    RetryPolicy(
                        max_attempts=3, base_delay=32.0, max_delay=256.0
                    ),
                    root.fork(f"retry/{network.label}/{load}"),
                )
            eng.watchdog = ProgressWatchdog(
                eng,
                check_every=32,
                stall_age=1024,
                deadlock_after=256,
                recover=True,
            )
        reliability = None
        if transport is not None:
            from repro.transport import ReliableTransport, TransportConfig

            reliability = ReliableTransport(
                eng,
                TransportConfig(**transport),
                root.fork(f"transport/{network.label}/{load}"),
            )
        workload = spec.builder(run_cfg)(load)
        workload.governor = governor
        workload.transport = reliability
        install_workload(
            eng, workload, root.fork(f"workload/{network.label}/{load}")
        )
        warm_up(eng, run_cfg)
        measurement, _ = measure(eng, run_cfg)
    finally:
        if sanitize:
            if saved_env is None:
                os.environ.pop("REPRO_SANITIZE", None)
            else:
                os.environ["REPRO_SANITIZE"] = saved_env
    stats = eng.stats
    wd = eng.watchdog
    return (
        measurement,
        stats.offered_packets,
        stats.offered_flits,
        stats.delivered_packets,
        stats.delivered_flits,
        stats.failed_packets,
        stats.max_queue_len,
        stats.shed_packets,
        stats.throttled_packets,
        stats.stall_aborted_packets,
        tuple(stats.records),
        eng.cycles_run,
        env.now,
        env.events_scheduled,
        env.events_fired,
        None if governor is None else tuple(governor.rates),
        None
        if wd is None
        else (wd.aborted, wd.deadlocks, wd.livelocks,
              tuple(map(_stall_tuple, wd.events))),
        None
        if injector is None
        else (injector.injected, injector.repaired, injector.killed_worms),
        # New observables append at the END: the kernel-counter indices
        # above are positional and must not shift.
        None
        if reliability is None
        else (
            reliability.messages_sent,
            reliability.messages_delivered,
            reliability.messages_aborted,
            reliability.flows_aborted,
            reliability.acks_lost,
            stats.retransmitted_packets,
            stats.rto_fires,
            stats.dup_acks,
            stats.ack_packets,
            stats.goodput_flits,
            tuple(sorted(reliability.outcomes.items())),
        ),
    )


def following_lanes(eng) -> int:
    """Owned lanes the fast tier's channel sweep holds off its active
    list for neither a free-running nor a parked worm: following lanes
    (0 on the reference tier, which keeps no active list)."""
    if not eng.fast:
        return 0
    return sum(
        1
        for ch in eng.network.topo_channels
        if ch.owned_count and not ch.in_active
        for p in ch.owners()
        if p._lz_base < 0 and not p._parked
    )


def parked_worms(eng) -> int:
    """In-flight worms whose wires the fast tier's channel sweep has
    parked (0 on the reference tier)."""
    return sum(1 for p in eng.in_flight_packets() if p._parked)


def _attach_at(env, eng, sink, at: float):
    """Process: attach ``sink`` to the engine's bus at time ``at``."""
    yield env.timeout(at)
    sink.free_running_at_attach = len(eng._lazy_live)
    sink.following_at_attach = following_lanes(eng)
    sink.parked_at_attach = parked_worms(eng)
    eng.bus.attach(sink)


def _stall_tuple(e) -> tuple:
    return (e.t, e.pid, e.age, e.verdict, e.recovered)


class EventRecorder:
    """A bus sink that records every published event as a plain tuple.

    Subscribing to the hot kinds makes ``bus.hot`` true, which forces
    the optimized engines onto their exact-event-order channel sweep
    (and off span sleep) -- so the recorded streams of a fast and a
    reference run must match
    element-for-element, certifying the fast path's publish sites, not
    just its end state.  Packets/channels are flattened to stable
    identifiers (pid, label, lane index) so tuples compare by value.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_offer(self, t, packet) -> None:
        self.events.append(("offer", t, packet.pid))

    def on_inject(self, t, packet) -> None:
        self.events.append(("inject", t, packet.pid))

    def on_acquire(self, t, packet, channel, lane_index) -> None:
        self.events.append(
            ("acquire", t, packet.pid, channel.label, lane_index)
        )

    def on_blocked(self, t, packet, channels) -> None:
        self.events.append(
            ("block", t, packet.pid, tuple(ch.label for ch in channels))
        )

    def on_release(self, t, packet, channel, lane_index) -> None:
        self.events.append(
            ("release", t, packet.pid, channel.label, lane_index)
        )

    def on_transmit(self, t, channel, lane) -> None:
        owner = lane.owner
        self.events.append(
            (
                "transmit",
                t,
                channel.label,
                lane.index,
                None if owner is None else owner.pid,
            )
        )

    def on_deliver(self, t, packet) -> None:
        self.events.append(("deliver", t, packet.pid))

    def on_abort(self, t, packet) -> None:
        self.events.append(("abort", t, packet.pid))


def strip_kernel_counters(snapshot: tuple) -> tuple:
    """A snapshot without the kernel event-count telemetry."""
    lo, hi = KERNEL_COUNTER_INDICES
    assert hi == lo + 1
    return snapshot[:lo] + snapshot[hi + 1:]


def assert_identical(kind: str, pattern: str, load: float, **kwargs) -> None:
    """Run a case under both engine tiers and assert snapshot equality.

    ``fast`` must match ``reference`` on every simulation observable
    (kernel event counters excluded -- see the module docstring).
    """
    ref = strip_kernel_counters(
        run_case(kind, pattern, load, "reference", **kwargs)
    )
    got = strip_kernel_counters(run_case(kind, pattern, load, "fast", **kwargs))
    assert got == ref, (
        f"fast/reference divergence at {kind}/{pattern}/load={load} "
        f"({kwargs or 'no options'})"
    )
