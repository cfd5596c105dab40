"""Tests for deadlock detection by an observe-only progress watchdog,
including a genuinely deadlocking custom network (a 2-cycle of channel
dependencies) to prove it fires."""

import pytest

from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.stability import ProgressWatchdog
from repro.wormhole import WormholeEngine, build_network
from repro.wormhole.channel import PhysChannel
from repro.wormhole.network import NetworkKind, SimNetwork
from repro.wormhole.packet import Packet


class RingNetwork(SimNetwork):
    """A deliberately unsafe 2-node network.

    Node 0's route: inj0 -> A -> B -> dlv1; node 1's: inj1 -> B -> A
    -> dlv0.  Once packet 0 owns A and packet 1 owns B, each waits for
    the other's channel: a textbook wormhole deadlock (the kind the
    paper's routing restrictions exist to exclude).
    """

    def __init__(self) -> None:
        self.kind = NetworkKind.TMIN
        self.N = 2
        self.inj = [PhysChannel("inj0"), PhysChannel("inj1")]
        self.a = PhysChannel("A")
        self.b = PhysChannel("B")
        self.dlv = [
            PhysChannel("dlv0", is_delivery=True, sink=0),
            PhysChannel("dlv1", is_delivery=True, sink=1),
        ]
        # Any processing order: the graph is cyclic, no topo order exists.
        self._finalize_topo(self.dlv + [self.a, self.b] + self.inj)
        self._routes = {
            0: [self.a, self.b, self.dlv[1]],
            1: [self.b, self.a, self.dlv[0]],
        }

    def injection_channel(self, node: int) -> PhysChannel:
        return self.inj[node]

    def prepare(self, packet: Packet) -> None:
        packet.hop = 0

    def candidates(self, packet: Packet) -> list[PhysChannel]:
        return [self._routes[packet.src][packet.hop]]

    def advance(self, packet: Packet, channel: PhysChannel) -> None:
        packet.hop += 1


def test_ring_network_deadlocks_and_watchdog_fires():
    env = Environment()
    eng = WormholeEngine(env, RingNetwork(), rng=RandomStream(0))
    eng.watchdog = ProgressWatchdog(
        eng, check_every=1, deadlock_after=50, recover=False
    )
    eng.offer(0, 1, 100)
    eng.offer(1, 0, 100)
    eng.start()
    with pytest.raises(Exception) as excinfo:
        env.run(until=10_000)
    # The DeadlockError surfaces through the kernel's crash wrapper.
    cause = excinfo.value
    messages = [str(cause), str(getattr(cause, "__cause__", ""))]
    assert any("no progress" in m or "progress" in m for m in messages)


def test_watchdog_names_held_channels():
    env = Environment()
    eng = WormholeEngine(env, RingNetwork(), rng=RandomStream(0))
    eng.watchdog = ProgressWatchdog(
        eng, check_every=1, deadlock_after=20, recover=False
    )
    eng.offer(0, 1, 100)
    eng.offer(1, 0, 100)
    eng.start()
    try:
        env.run(until=10_000)
        pytest.fail("expected a deadlock")
    except Exception as exc:
        text = str(exc) + str(exc.__cause__ or "")
        assert "A" in text and "B" in text


@pytest.mark.parametrize("kind", ["tmin", "dmin", "vmin", "bmin"])
def test_paper_networks_never_trip_the_watchdog(kind):
    """With the watchdog armed tightly, heavy random traffic on the
    paper's networks still drains: they are deadlock-free for real."""
    env = Environment()
    eng = WormholeEngine(env, build_network(kind, 2, 3), rng=RandomStream(1))
    eng.watchdog = ProgressWatchdog(
        eng, check_every=1, deadlock_after=200, recover=False
    )
    rs = RandomStream(2)
    for _ in range(60):
        s = rs.uniform_int(0, 7)
        d = rs.uniform_int(0, 6)
        if d >= s:
            d += 1
        eng.offer(s, d, rs.uniform_int(4, 40))
    eng.drain(max_cycles=100_000)
    assert eng.idle


def test_watchdog_disabled_by_default():
    env = Environment()
    eng = WormholeEngine(env, build_network("tmin", 2, 3), rng=RandomStream(0))
    assert eng.watchdog is None
    # A ring network without a watchdog just spins silently.
    env2 = Environment()
    eng2 = WormholeEngine(env2, RingNetwork(), rng=RandomStream(0))
    eng2.offer(0, 1, 50)
    eng2.offer(1, 0, 50)
    eng2.start()
    env2.run(until=500)  # no exception; packets simply never progress
    assert eng2.in_flight == 2
