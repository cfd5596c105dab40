"""Stochastic fault churn: an MTBF/MTTR fail-and-repair process.

Each selected channel independently alternates between *up* and *down*:
up-times are exponential with mean ``mtbf`` cycles, down-times
exponential with mean ``mttr`` cycles.  The steady-state unavailability
of one channel is therefore ``mttr / (mtbf + mttr)`` -- the knob the
availability experiments sweep.

The churn runs as ordinary sim processes inside the
:class:`~repro.sim.core.Environment`, so faults strike while worms are
in flight; with ``severity="hard"`` the worms on a failing wire are
aborted immediately (wire cut), with ``"soft"`` they finish streaming
(routing-table removal).

By default only *inter-stage* channels churn: injection and delivery
channels are the node's own interface -- failing them models a dead
node, not a degraded network fabric, and the paper's fault-tolerance
argument (Section 2) is about fabric path redundancy.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.sim.core import Environment
from repro.sim.rng import RandomStream
from repro.wormhole.channel import PhysChannel
from repro.wormhole.engine import WormholeEngine
from repro.wormhole.network import SimNetwork
from repro.wormhole.packet import PacketState


def fabric_channels(network: SimNetwork) -> list[PhysChannel]:
    """Inter-stage channels only (no injection, no delivery wires)."""
    out = []
    for ch in network.topo_channels:
        if ch.is_delivery:
            continue
        if ch.label.startswith("inj["):
            continue
        if ch.meta is not None and ch.meta[0] == "fwd" and ch.meta[1] == 0:
            continue  # BMIN boundary-0 forward wires are the injection
        out.append(ch)
    return out


class MTBFChurn:
    """Independent exponential fail/repair churn over a channel set.

    Parameters
    ----------
    env, network:
        The live simulation; one process per churned channel is
        spawned immediately.
    rng:
        Source of the exponential draws (forked per channel, so runs
        are reproducible regardless of event interleaving).
    mtbf:
        Mean up-time in cycles (exponential).
    mttr:
        Mean repair time in cycles (exponential).  ``None`` makes every
        failure permanent.
    channels:
        The channels to churn; default :func:`fabric_channels`.
    engine, severity:
        ``severity="hard"`` aborts the worms on a failing wire through
        the engine (required argument in that case).
    """

    def __init__(
        self,
        env: Environment,
        network: SimNetwork,
        rng: RandomStream,
        mtbf: float,
        mttr: Optional[float] = None,
        channels: Optional[Iterable[PhysChannel]] = None,
        engine: Optional[WormholeEngine] = None,
        severity: str = "soft",
    ) -> None:
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if mttr is not None and mttr <= 0:
            raise ValueError("mttr must be positive (or None for permanent)")
        if severity not in ("soft", "hard"):
            raise ValueError("severity must be 'soft' or 'hard'")
        if severity == "hard" and engine is None:
            raise ValueError("hard churn needs the engine to kill worms")
        self.env = env
        self.network = network
        self.mtbf = mtbf
        self.mttr = mttr
        self.engine = engine
        self.severity = severity
        self.failures = 0
        self.repairs = 0
        self.killed_worms = 0
        self.channels = list(
            channels if channels is not None else fabric_channels(network)
        )
        for ch in self.channels:
            env.process(
                self._churn(ch, rng.fork(f"mtbf/{ch.label}")),
                name=f"mtbf-{ch.label}",
            )

    @staticmethod
    def from_unavailability(
        env: Environment, network: SimNetwork, rng: RandomStream,
        unavailability: float, mttr: float, **kwargs: Any,
    ) -> "MTBFChurn":
        """Churn at a steady-state downtime fraction: the MTBF solves
        ``mttr / (mtbf + mttr) = unavailability``.  ``kwargs`` as in
        the constructor (``channels``, ``engine``, ``severity``)."""
        if not 0.0 < unavailability < 1.0:
            raise ValueError("unavailability must lie in (0, 1)")
        mtbf = mttr * (1.0 - unavailability) / unavailability
        return MTBFChurn(env, network, rng, mtbf=mtbf, mttr=mttr, **kwargs)

    @property
    def unavailability(self) -> float:
        """Steady-state per-channel downtime fraction."""
        if self.mttr is None:
            return 1.0
        return self.mttr / (self.mtbf + self.mttr)

    def _churn(self, ch: PhysChannel, stream: RandomStream):
        while True:
            yield self.env.timeout(stream.exponential(self.mtbf))
            if ch.faulty:
                continue  # someone else (a FaultPlan) holds it down
            ch.fail()
            self.failures += 1
            if self.severity == "hard":
                for worm in ch.owners():
                    if worm.state is PacketState.ACTIVE:
                        self.engine.abort_packet(worm)
                        self.killed_worms += 1
            if self.mttr is None:
                return  # permanent: this channel's churn is over
            yield self.env.timeout(stream.exponential(self.mttr))
            ch.repair()
            self.repairs += 1
