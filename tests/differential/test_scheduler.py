"""Calendar-queue vs binary-heap scheduler: bit-identical dispatch.

The calendar scheduler is the fast path's O(1) event queue for the
dominant unit-delay clock events, with a heap fallback for fractional
times; the plain heap is the reference.  Both must dispatch in exactly
``(time, priority, insertion order)`` order.  Certified two ways: a
synthetic adversarial schedule (mixed integral/fractional delays,
priorities, and same-time ties) and full engine runs where only the
scheduler differs.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.runner import install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.sim.core import Environment
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from tests.differential.harness import CFG


def _dispatch_trace(scheduler: str) -> list[tuple[float, int]]:
    """Drive one adversarial schedule; record (time, tag) dispatch order."""
    env = Environment(scheduler=scheduler)
    trace: list[tuple[float, int]] = []
    rng = RandomStream(1234, name="sched")

    def proc(tag: int, delays):
        for d in delays:
            yield env.timeout(d)
            trace.append((env.now, tag))

    for tag in range(20):
        # Mixed integral and fractional delays, many same-time ties.
        delays = [
            1.0 if rng.random() < 0.6 else rng.random() * 3.0
            for _ in range(30)
        ]
        env.process(proc(tag, delays), name=f"p{tag}")
    # Urgent vs normal priority ties at the same instant.
    marks: list[tuple[float, str]] = []

    def marker(label: str, priority: int):
        # White-box: pre-succeed the event so a delayed schedule at an
        # explicit priority is legal (succeed() only schedules "now").
        ev = env.event()
        ev._ok = True
        ev._value = None
        env.schedule(ev, priority=priority, delay=5.0)
        yield ev
        marks.append((env.now, label))

    env.process(marker("urgent", PRIORITY_URGENT), name="u")
    env.process(marker("normal", PRIORITY_NORMAL), name="n")
    env.run(until=40.0)
    trace.extend((t, {"urgent": -1, "normal": -2}[l]) for t, l in marks)
    return trace


def test_adversarial_schedule_identity() -> None:
    """Same dispatch order for mixed integral/fractional schedules."""
    assert _dispatch_trace("calendar") == _dispatch_trace("heap")


def test_urgent_priority_orders_before_normal() -> None:
    """At equal times, urgent events dispatch before normal ones."""
    for scheduler in ("calendar", "heap"):
        env = Environment(scheduler=scheduler)
        order: list[str] = []

        def waiter(label: str, priority: int):
            ev = env.event()
            ev._ok = True
            ev._value = None
            env.schedule(ev, priority=priority, delay=3.0)
            yield ev
            order.append(label)

        env.process(waiter("normal", PRIORITY_NORMAL), name="n")
        env.process(waiter("urgent", PRIORITY_URGENT), name="u")
        env.run(until=10.0)
        assert order == ["urgent", "normal"], scheduler


def _engine_run(kind: str, scheduler: str):
    """One seeded fast-engine point where only the scheduler differs."""
    network = NetworkConfig(kind)
    load = 0.6
    env = Environment(scheduler=scheduler)
    root = RandomStream(CFG.seed, name="root")
    engine = WormholeEngine(
        env,
        network.build(),
        rng=root.fork(f"engine/{network.label}/{load}"),
        engine="fast",
    )
    spec = WorkloadSpec(pattern="uniform")
    install_workload(
        engine,
        spec.builder(CFG)(load),
        root.fork(f"workload/{network.label}/{load}"),
    )
    warm_up(engine, CFG)
    measure(engine, CFG)
    stats = engine.stats
    return (
        tuple(stats.records),
        stats.offered_packets,
        stats.delivered_packets,
        engine.cycles_run,
        env.now,
        env.events_fired,
    )


@pytest.mark.parametrize("kind", ("tmin", "dmin", "vmin", "bmin"))
def test_engine_run_scheduler_identity(kind: str) -> None:
    """Full engine runs differ only in the scheduler: same outcome."""
    assert _engine_run(kind, "calendar") == _engine_run(kind, "heap")
