"""The acceptance drill: exactly-once delivery under a seeded loss storm.

Each case replays a recorded trace through the reliable transport on a
fabric that is actively losing packets -- shed-newest admission under
pressure plus hard MTBF churn (wire cuts abort in-flight worms) with a
recovering watchdog armed.  The assertions are the ISSUE's acceptance
bar: every admitted message of a non-aborted flow is delivered exactly
once (duplicates suppressed), retransmissions are bounded, outcomes
all settle (no deadlock or livelock -- quiesce returns and the
watchdog saw no deadlock verdicts), and the whole storm is
bit-identical across the reference and fast engine tiers.
"""

import pytest

from repro.experiments.config import NetworkConfig
from repro.faults.mtbf import MTBFChurn
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.stability import BoundedQueue, ProgressWatchdog
from repro.stability.admission import SHED_NEWEST
from repro.traffic.trace import TraceWorkload, synthesize_trace
from repro.transport import ReliableTransport, TransportConfig
from repro.wormhole.engine import WormholeEngine

#: All four of the paper's MINs plus one direct fabric, small geometry.
STORM_KINDS = ("tmin", "dmin", "vmin", "bmin", "mesh3d")

#: 10% per-channel unavailability, hard severity (the acceptance storm).
RATE = 0.1
MTTR = 200.0

CFG = TransportConfig(
    rto_base=32.0, rto_max=512.0, ack_delay=2.0, max_attempts=6
)


def run_storm(kind: str, engine: str = "fast", seed: int = 17):
    """One seeded storm; returns (transport, engine, watchdog, workload)."""
    network = NetworkConfig(kind, k=2, n=3)
    env = Environment()
    root = RandomStream(seed, name="root")
    eng = WormholeEngine(
        env,
        network.build(),
        rng=root.fork("engine"),
        engine=engine,
    )
    BoundedQueue(capacity=8, mode=SHED_NEWEST).install(eng)
    MTBFChurn(
        env,
        eng.network,
        root.fork("faults"),
        mtbf=MTTR * (1.0 - RATE) / RATE,
        mttr=MTTR,
        engine=eng,
        severity="hard",
    )
    wd = ProgressWatchdog(
        eng, check_every=32, stall_age=1024, deadlock_after=512, recover=True
    )
    eng.watchdog = wd
    tp = ReliableTransport(eng, CFG, root.fork("transport"))
    trace = synthesize_trace(
        network.N, 120, root.fork("trace"), mean_iat=4.0,
        size_low=8, size_high=32,
    )
    wl = TraceWorkload(trace, transport=tp)
    wl.install(env, eng, root.fork("workload"))
    eng.start()
    total = len(trace.records)
    horizon = trace.records[-1].t + 200_000
    while wl.replayed < total and env.now < horizon:
        env.run(until=min(env.now + 256, horizon))
    tp.quiesce(200_000)
    return tp, eng, wd, wl


@pytest.mark.parametrize("kind", STORM_KINDS)
def test_exactly_once_under_storm(kind):
    tp, eng, wd, wl = run_storm(kind)
    assert wl.replayed == 120
    assert tp.messages_sent == 120
    # Every message settled to exactly one outcome -- no hang, no loss.
    assert len(tp.outcomes) == 120
    delivered = sum(1 for o in tp.outcomes.values() if o == "delivered")
    aborted = sum(1 for o in tp.outcomes.values() if o == "aborted")
    assert delivered + aborted == 120
    # Exactly-once: the tally counts unique deliveries, dups suppressed.
    assert tp.messages_delivered == delivered
    assert tp.messages_aborted == aborted
    # The storm actually stormed: losses happened and were recovered.
    assert eng.stats.retransmitted_packets > 0
    # Bounded retransmissions: each segment injects at most max_attempts.
    assert eng.stats.retransmitted_packets <= 120 * CFG.max_attempts
    # Watchdog clean: congestion, but never a deadlock or livelock.
    assert wd.deadlocks == 0
    assert wd.livelocks == 0
    # Goodput counts unique payload flits only.
    assert eng.stats.goodput_flits <= eng.stats.delivered_flits


def test_storm_survives_most_messages():
    """With backoff and 6 attempts the 10% storm is survivable: the
    vast majority of messages deliver even on the smallest fabric."""
    tp, _eng, _wd, _wl = run_storm("dmin")
    assert tp.delivered_ratio() > 0.9


def _snapshot(kind: str, engine: str):
    tp, eng, wd, wl = run_storm(kind, engine=engine)
    s = eng.stats
    return (
        tuple(sorted(tp.outcomes.items())),
        tp.messages_sent,
        tp.messages_delivered,
        tp.messages_aborted,
        tp.flows_aborted,
        tp.acks_lost,
        s.retransmitted_packets,
        s.rto_fires,
        s.dup_acks,
        s.ack_packets,
        s.goodput_flits,
        s.delivered_packets,
        s.shed_packets,
        tuple(s.records),
        eng.cycles_run,
        eng.env.now,
        (wd.aborted, wd.deadlocks, wd.livelocks),
    )


@pytest.mark.parametrize("kind", ("tmin", "mesh3d"))
def test_storm_bit_identical_across_tiers(kind):
    ref = _snapshot(kind, "reference")
    fast = _snapshot(kind, "fast")
    assert fast == ref
