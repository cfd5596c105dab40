"""repro.obs -- the observability subsystem.

Layered over the structured :class:`~repro.obs.bus.EventBus` every
:class:`~repro.wormhole.engine.WormholeEngine` publishes into:

* :class:`EventBus` -- typed pub/sub with a compile-away fast path
  (zero hot-loop cost with no sinks attached);
* :class:`ContentionSink` -- per-channel / per-stage utilization,
  busy intervals, and blocked-time attribution;
* :class:`LatencyHistogram` -- HDR-style mergeable histogram
  (p50/p95/p99/max at bounded relative error, O(1) record);
* :class:`PerfettoSink` -- Chrome/Perfetto ``trace_event`` JSON export
  (one track per lane, per-packet flow arrows);
* :class:`KernelProfiler` -- sim-kernel rates (events/s, cycles/s,
  wall-us per sim-us, heap depth);
* :class:`ProgressMeter` -- throttled stderr heartbeat for long sweeps;
* :class:`ObsSession` -- bundles the standard sinks with one call.

See ``docs/observability.md`` for the architecture tour.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "bus": ("HOT_KINDS", "KIND_METHODS", "KINDS", "EventBus"),
    "contention": ("ChannelLedger", "ContentionSink", "stage_of"),
    "histogram": ("LatencyHistogram",),
    "perfetto": ("CYCLE_MICROSECONDS", "PerfettoSink"),
    "profiler": ("KernelProfiler",),
    "progress": ("ProgressMeter",),
    "session": ("ObsSession",),
})

__all__ = [
    "EventBus",
    "KINDS",
    "HOT_KINDS",
    "KIND_METHODS",
    "ContentionSink",
    "ChannelLedger",
    "stage_of",
    "LatencyHistogram",
    "PerfettoSink",
    "CYCLE_MICROSECONDS",
    "KernelProfiler",
    "ProgressMeter",
    "ObsSession",
]
