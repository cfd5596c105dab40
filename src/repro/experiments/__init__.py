"""The paper's simulation experiments (Section 5), reproducible end to end.

* :mod:`repro.experiments.config` -- network / run configurations, with
  ``SCALED`` (quick, short messages) and ``FULL_FIDELITY`` (the paper's
  8-1024-flit messages and longer windows) presets;
* :mod:`repro.experiments.runner` -- run one simulation point
  (warmup, measure) or a whole offered-load sweep;
* :mod:`repro.experiments.figures` -- one builder per evaluation figure
  (Fig. 16 through Fig. 20), each returning a
  :class:`~repro.experiments.figures.FigureResult` with all series;
* :mod:`repro.experiments.report` -- aligned text tables and the
  shape-checks recorded in EXPERIMENTS.md;
* :mod:`repro.experiments.availability` -- degradation sweeps
  (throughput / latency / delivery ratio vs. channel fault rate) using
  :mod:`repro.faults`;
* :mod:`repro.experiments.stability` -- post-saturation overload
  sweeps (steady-state classification past the knee) using
  :mod:`repro.stability`;
* :mod:`repro.experiments.parallel` -- multi-process sweeps run as
  :mod:`repro.serve` jobs (per-point retry and timeout, result-cache
  resume, a ``progress`` heartbeat callback);
* :mod:`repro.experiments.traced` -- one measured point with the
  :mod:`repro.obs` observability subsystem attached (contention
  ledgers, latency histograms, optional Perfetto trace).

Command line: ``python -m repro.experiments --figure 18 --mode scaled``
(or ``--availability`` / ``--stability``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": (
        "FULL_FIDELITY", "SCALED", "SMOKE", "NetworkConfig", "RunConfig",
    ),
    "figures": (
        "FIGURE_BUILDERS", "FigureResult", "fig16", "fig17", "fig18", "fig19",
        "fig20",
    ),
    "runner": (
        "LoadPoint", "PointTimeout", "SweepResult", "run_point",
        "set_point_deadline", "sweep",
    ),
    "report": ("render_figure", "shape_checks"),
    "plotting": ("ascii_curve_plot", "plot_figure"),
    "export": ("write_figure_csv", "write_figure_json"),
    "saturation": (
        "CONVERGED", "HI_SUSTAINABLE", "LO_SATURATED", "SATURATION_STATUSES",
        "SaturationPoint", "find_saturation",
    ),
    "stability": (
        "LOAD_FACTORS", "StabilityPoint", "StabilityResult",
        "render_stability", "stability_checks", "stability_comparison",
        "stability_point", "stability_sweep",
    ),
    "workload_spec": ("WorkloadSpec",),
    "parallel": ("ProgressFn", "parallel_matrix", "parallel_sweep"),
    "traced": ("run_traced_point",),
    "availability": (
        "AvailabilityPoint", "AvailabilityResult", "availability_checks",
        "availability_comparison", "availability_point", "availability_sweep",
        "render_availability",
    ),
})

__all__ = [
    "AvailabilityPoint",
    "AvailabilityResult",
    "CONVERGED",
    "HI_SUSTAINABLE",
    "LOAD_FACTORS",
    "LO_SATURATED",
    "PointTimeout",
    "SATURATION_STATUSES",
    "StabilityPoint",
    "StabilityResult",
    "FIGURE_BUILDERS",
    "FULL_FIDELITY",
    "FigureResult",
    "LoadPoint",
    "ProgressFn",
    "availability_checks",
    "availability_comparison",
    "availability_point",
    "availability_sweep",
    "render_availability",
    "NetworkConfig",
    "RunConfig",
    "SCALED",
    "SMOKE",
    "SaturationPoint",
    "SweepResult",
    "WorkloadSpec",
    "ascii_curve_plot",
    "parallel_matrix",
    "parallel_sweep",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "find_saturation",
    "plot_figure",
    "render_figure",
    "render_stability",
    "run_point",
    "run_traced_point",
    "set_point_deadline",
    "shape_checks",
    "stability_checks",
    "stability_comparison",
    "stability_point",
    "stability_sweep",
    "sweep",
    "write_figure_csv",
    "write_figure_json",
]
