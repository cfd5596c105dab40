"""The event queue dispatches in ``(time, priority, creation order)``.

The kernel keeps one binary heap.  Its dispatch order is checked against
an explicit oracle: every entry is logged with a creation sequence when
it is scheduled, the pending entries are kept in a plainly sorted list,
and each dispatch must take that list's head.  Certified on a synthetic
adversarial schedule (mixed integral/fractional delays, priorities and
same-time ties) and on full engine runs.
"""

from __future__ import annotations

from bisect import insort

import pytest

from repro.experiments.config import NetworkConfig
from repro.experiments.runner import install_workload, measure, warm_up
from repro.experiments.workload_spec import WorkloadSpec
from repro.sim.core import Environment
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.rng import RandomStream
from repro.wormhole.engine import WormholeEngine
from tests.differential.harness import CFG


class OracleEnvironment(Environment):
    """An environment that checks every dispatch against a sorted list.

    Covers entries scheduled through ``_schedule_at``; a ``call_later``
    timer takes its sequence number when armed, so programs checked
    here arm none.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pending: list[tuple[float, int, int]] = []
        self.dispatched = 0
        self._seq = 0

    def _schedule_at(self, t, priority, event) -> None:
        key = (t, priority, self._seq)
        self._seq += 1
        insort(self.pending, key)
        # First callback: runs when the kernel dispatches this entry.
        event.callbacks.insert(0, lambda _e, key=key: self._dispatch(key))
        super()._schedule_at(t, priority, event)

    def _dispatch(self, key: tuple[float, int, int]) -> None:
        assert key == self.pending.pop(0), "dispatched out of sorted order"
        assert self.now == key[0]
        self.dispatched += 1


def test_adversarial_schedule_identity() -> None:
    """Mixed integral/fractional schedules dispatch in sorted order."""
    env = OracleEnvironment()
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
    marks: list[str] = []

    def marker(label: str, priority: int):
        # White-box: pre-succeed the event so a delayed schedule at an
        # explicit priority is legal (succeed() only schedules "now").
        ev = env.event()
        ev._ok = True
        ev._value = None
        env.schedule(ev, priority=priority, delay=5.0)
        yield ev
        marks.append(label)

    env.process(marker("normal", PRIORITY_NORMAL), name="n")
    env.process(marker("urgent", PRIORITY_URGENT), name="u")
    env.run(until=40.0)
    assert env.dispatched == env.events_fired > 600
    assert marks == ["urgent", "normal"]
    assert trace == sorted(trace, key=lambda entry: entry[0])


def test_urgent_priority_orders_before_normal() -> None:
    """At equal times, urgent events dispatch before normal ones."""
    env = Environment()
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
    assert order == ["urgent", "normal"]


@pytest.mark.parametrize("kind", ("tmin", "dmin", "vmin", "bmin"))
def test_engine_run_scheduler_identity(kind: str) -> None:
    """A seeded fast-engine point dispatches every entry in sorted order."""
    network = NetworkConfig(kind)
    load = 0.6
    env = OracleEnvironment()
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
    assert engine.stats.delivered_packets > 0
    assert env.dispatched == env.events_fired > 0
