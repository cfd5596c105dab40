"""Per-message timers cost no simulation process.

The transport's RTO, retransmit, delayed-ack and deferred-pump timers
and :class:`~repro.faults.recovery.SourceRetry`'s attempt timeout and
backoff are timed callbacks (``Environment.call_later``): one schedule
entry each.  On a pinned faulted point, the only processes ever built
are the long-lived ones -- the engine clock, one source per node and
one churn loop per channel -- however many messages flow.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.availability import availability_point
from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.mtbf import fabric_channels
from repro.faults.recovery import RetryPolicy
from repro.serve.compute import run_point_spec
from repro.serve.job import FaultSpec, PointSpec
from repro.sim.core import Environment

NET = NetworkConfig("dmin", k=2, n=3)
#: Name prefixes of the long-lived processes.
LONG_LIVED = ("wormhole-clock", "source-", "mtbf-")


@pytest.fixture
def spawned(monkeypatch):
    """Counts processes by name family and timed callbacks armed."""
    counts = Counter()
    process, call_later = Environment.process, Environment.call_later

    def counting_process(self, generator, name=None):
        family = [p for p in LONG_LIVED if (name or "").startswith(p)]
        counts[family[0] if family else name] += 1
        return process(self, generator, name)

    def counting_call_later(self, delay, fn, *args):
        counts["timers"] += 1
        return call_later(self, delay, fn, *args)

    monkeypatch.setattr(Environment, "process", counting_process)
    monkeypatch.setattr(Environment, "call_later", counting_call_later)
    return counts


def expected_processes() -> Counter:
    return Counter(
        {
            "wormhole-clock": 1,
            "source-": NET.N,
            "mtbf-": len(fabric_channels(NET.build())),
        }
    )


def test_transport_point_spawns_only_long_lived_processes(spawned):
    payload = run_point_spec(
        PointSpec(
            NET, WorkloadSpec(k=2, n=3), 0.6, 7, SMOKE,
            faults=FaultSpec(rate=0.1), transport={},
        )
    )
    timers = spawned.pop("timers")
    assert spawned == expected_processes()
    # Not vacuous: acks alone put one timer per delivered message.
    assert timers > 10 * sum(spawned.values())
    assert payload["measurement"]["retransmitted_packets"] > 0


def test_retry_point_spawns_only_long_lived_processes(spawned):
    point = availability_point(
        NET, replace(SMOKE, max_cycles=4_000), 0.3, load=0.6,
        policy=RetryPolicy(attempt_timeout=64.0, base_delay=8.0),
    )
    timers = spawned.pop("timers")
    assert spawned == expected_processes()
    # One attempt timeout per offer, plus every backoff.
    assert timers > point.measurement.retried_packets > 0
