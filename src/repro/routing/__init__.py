"""Distributed routing decisions executed inside each switch.

The topology package answers *static* questions (which paths exist);
this package answers the *dynamic* one the simulator asks every time a
header flit sits at a switch input: *which output(s) may this packet
take next?*

* :mod:`repro.routing.tags` -- destination-tag routing for the
  unidirectional MINs (TMIN / DMIN / VMIN share it; only the channel
  multiplicity behind the chosen port differs).
* :mod:`repro.routing.turnaround` -- the turnaround routing algorithm of
  Fig. 7, executed per switch: forward (any free right port), turnaround
  (left port ``l_{d_t}``) and backward (left port ``l_{d_j}``) moves.

Both routers return :class:`RouteDecision` objects naming candidate
output ports; the wormhole engine resolves candidates against channel
availability (random free choice for DMIN lanes and BMIN forward hops).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "tags": ("TagRouter",),
    "turnaround": ("Move", "RouteDecision", "TurnaroundRouter"),
})

__all__ = ["Move", "RouteDecision", "TagRouter", "TurnaroundRouter"]
