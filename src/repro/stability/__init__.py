"""Overload robustness: keep every run well-behaved past saturation.

The paper only reports loads *up to* the saturation knee (its §5
100-message source-queue criterion); beyond that knee the bare
simulator grows source queues without bound and a stalled run is
indistinguishable from a slow one.  This package adds the four
mechanisms that make the post-saturation region a first-class,
measurable regime:

* :mod:`~repro.stability.admission` -- bounded source queues with
  pluggable policies (block/backpressure, shed-newest, shed-oldest),
  wired into :meth:`repro.wormhole.engine.WormholeEngine.offer` with
  shed/throttled counters flowing through ``EngineStats`` into
  :class:`~repro.metrics.collector.Measurement` and every export;
* :mod:`~repro.stability.governor` -- a per-source AIMD injection
  governor closing the loop on backlog/latency signals published on
  the engine's :class:`~repro.obs.bus.EventBus`;
* :mod:`~repro.stability.watchdog` -- a runtime progress watchdog that
  distinguishes deadlock (nothing moves) from livelock/starvation
  (flits move but a worm never advances) from mere congestion, and
  recovers stalled worms by timeout-abort-and-reinject through
  :class:`~repro.faults.recovery.SourceRetry`;
* :mod:`~repro.stability.steady` -- MSER-style steady-state truncation
  and per-point stability classification (stable / metastable /
  collapsed) feeding the post-saturation sweep in
  :mod:`repro.experiments.stability`.

All four are strictly opt-in: a bare engine pays one ``is None`` test
per cycle for the watchdog slot and one attribute read per offer for
the admission slot, and behaves bit-identically to the pre-package
simulator (certified by ``tests/differential``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "admission": (
        "ADMISSION_MODES", "BLOCK", "SHED_NEWEST", "SHED_OLDEST",
        "BoundedQueue",
    ),
    "governor": ("AIMDConfig", "AIMDGovernor"),
    "steady": (
        "COLLAPSED", "METASTABLE", "STABLE", "STABILITY_CLASSES",
        "SteadyState", "analyze_series", "classify", "mser_truncation",
    ),
    "watchdog": (
        "CONGESTION", "DEADLOCK", "LIVELOCK", "ProgressWatchdog", "StallEvent",
    ),
})

__all__ = [
    "ADMISSION_MODES",
    "BLOCK",
    "SHED_NEWEST",
    "SHED_OLDEST",
    "BoundedQueue",
    "AIMDConfig",
    "AIMDGovernor",
    "COLLAPSED",
    "METASTABLE",
    "STABLE",
    "STABILITY_CLASSES",
    "SteadyState",
    "analyze_series",
    "classify",
    "mser_truncation",
    "CONGESTION",
    "DEADLOCK",
    "LIVELOCK",
    "ProgressWatchdog",
    "StallEvent",
]
