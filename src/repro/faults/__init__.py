"""Fault injection and recovery (the paper's Section 2 motivation, live).

The paper argues for dilated and bidirectional MINs partly on fault
tolerance: a unique-path TMIN loses (src, dst) pairs on any single
channel fault, while DMIN/BMIN keep alternative paths.  This package
turns that argument into a measurable subsystem:

* :mod:`repro.faults.plan` -- deterministic fault schedules
  (:class:`FaultPlan` / :class:`FaultEvent`): transient or permanent,
  channel- or whole-switch-level, soft (routing-table removal) or hard
  (wire cut, worms aborted mid-flight);
* :mod:`repro.faults.mtbf` -- stochastic churn (:class:`MTBFChurn`):
  exponential fail/repair per channel, the availability experiments'
  load knob;
* :mod:`repro.faults.recovery` -- source-side retry with exponential
  backoff (:class:`SourceRetry` / :class:`RetryPolicy`), surfacing
  delivered / failed / retried / dropped counts through the engine's
  stats into :class:`~repro.metrics.collector.Measurement`.

See ``experiments/availability.py`` for the throughput-vs-fault-rate
degradation sweeps and ``examples/fault_storm.py`` for a quick demo.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "mtbf": ("MTBFChurn", "fabric_channels"),
    "plan": (
        "FaultEvent", "FaultInjector", "FaultPlan", "switch_output_channels",
    ),
    "recovery": ("RetryPolicy", "SourceRetry"),
})

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "MTBFChurn",
    "RetryPolicy",
    "SourceRetry",
    "fabric_channels",
    "switch_output_channels",
]
