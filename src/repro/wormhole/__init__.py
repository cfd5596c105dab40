"""Flit-level wormhole-switching network simulator (the paper's Section 5).

The simulator reproduces the paper's hardware model exactly:

* wormhole switching: the header flit acquires channels hop by hop and
  the body follows in a pipeline; a blocked header holds every channel
  the worm spans;
* one flit of buffering per (virtual) channel at each switch input;
* all channels have equal bandwidth (one flit per cycle; 20 flits/us in
  the paper's units, i.e. one cycle = 0.05 us);
* switches act asynchronously (header allocation happens in random
  order each cycle) but worms advance in lockstep (flit movement is
  processed in the network's channel order, downstream-first on the
  MINs, so a full pipeline moves one flit per channel per cycle; the
  direct fabrics' order is not downstream-first along a route, see
  ``docs/topologies.md``);
* virtual channels multiplex a wire flit-by-flit, round-robin over the
  *active* VCs, so k active VCs each get W/k bandwidth (Section 2.2);
* one-port nodes: serial FCFS injection, immediate consumption.

Modules:

* :mod:`repro.wormhole.packet` -- message records and lifecycle;
* :mod:`repro.wormhole.channel` -- physical channels, lanes (virtual
  channels), flit accounting;
* :mod:`repro.wormhole.network` -- builds the four simulated networks
  (TMIN / DMIN / VMIN / BMIN) and answers routing-candidate queries;
* :mod:`repro.wormhole.engine` -- the two-phase cycle engine driven by
  the :mod:`repro.sim` kernel.
"""

from repro.wormhole.channel import Lane, PhysChannel
from repro.wormhole.engine import EngineStats, WormholeEngine
from repro.wormhole.network import (
    BidirectionalNetwork,
    NetworkKind,
    SimNetwork,
    SmartBidirectionalNetwork,
    UnidirectionalNetwork,
    build_network,
)
from repro.wormhole.packet import Packet, PacketState

__all__ = [
    "BidirectionalNetwork",
    "EngineStats",
    "Lane",
    "NetworkKind",
    "Packet",
    "PacketState",
    "PhysChannel",
    "SimNetwork",
    "SmartBidirectionalNetwork",
    "UnidirectionalNetwork",
    "WormholeEngine",
    "build_network",
]
