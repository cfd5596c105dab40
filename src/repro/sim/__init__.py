"""Discrete-event simulation kernel.

A small, self-contained process-based DES kernel in the style of SimPy,
written from scratch because this reproduction may not rely on external
simulation packages.  It provides only what the simulator uses:

* :class:`~repro.sim.core.Environment` -- the event loop / scheduler,
  with :meth:`~repro.sim.core.Environment.call_later` for one-shot timers.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process` -- the event primitives.  Processes
  are Python generators that ``yield`` events to wait on them.
* :class:`~repro.sim.resources.Resource` /
  :class:`~repro.sim.resources.Request` -- a FIFO shared resource with
  ``capacity`` slots (the circuit/packet-switching engines hold one per
  channel).
* :class:`~repro.sim.rng.RandomStream` -- reproducible random-variate
  streams (exponential, uniform-integer, bimodal, ...) used by the
  workload generators.

The wormhole network engine (:mod:`repro.wormhole`) uses this kernel for
its master clock and packet-arrival processes, the transport and retry
layers for their timers; the kernel is equally usable standalone (see
``examples/`` and the unit tests).
"""

from repro.sim.core import Environment, EmptySchedule, StopSimulation
from repro.sim.events import Event, Process, ProcessCrash, Timeout
from repro.sim.resources import Request, Resource
from repro.sim.rng import RandomStream

__all__ = [
    "EmptySchedule",
    "Environment",
    "Event",
    "Process",
    "ProcessCrash",
    "RandomStream",
    "Request",
    "Resource",
    "StopSimulation",
    "Timeout",
]
