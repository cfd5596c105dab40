"""What each entry point imports, checked in fresh interpreters.

Every simulation point runs in a fresh process (a CLI run, a suite
child, a forked service worker), and each pays for the modules it
imports before its first cycle.  The package ``__init__``s that gather
subsystems a point never runs export their names lazily
(:mod:`repro._lazy`), so:

* the engine entry modules leave the service, the verifier and the
  figure/report/observability layers unloaded;
* every name a lazy package lists in ``__all__`` still resolves, by
  attribute, by ``from pkg import *`` and in ``dir(pkg)``;
* :mod:`repro.serve`, the parent the service forks its workers from,
  already holds everything a point of any kind runs, so a worker
  imports (and compiles) nothing.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The modules a point of the engine workloads imports before it runs.
ENGINE_ENTRY = (
    "repro.experiments.runner",
    "repro.experiments.workload_spec",
    "repro.metrics.collector",
)

#: The packages whose ``__init__`` exports lazily.
LAZY_PACKAGES = (
    "repro.experiments",
    "repro.obs",
    "repro.faults",
    "repro.stability",
    "repro.traffic",
    "repro.topology",
    "repro.routing",
    "repro.partition",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_engine_entry_leaves_out_unused_subsystems():
    loaded = _run(f"""
        import importlib, json, sys
        for name in {ENGINE_ENTRY!r}:
            importlib.import_module(name)
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
    """)
    banned_prefixes = ("repro.serve", "repro.verify")
    banned = {
        f"repro.experiments.{m}"
        for m in ("figures", "plotting", "report", "export", "saturation",
                  "stability", "traced", "availability", "parallel")
    } | {
        f"repro.obs.{m}"
        for m in ("session", "perfetto", "contention", "profiler",
                  "histogram", "progress")
    }
    leaked = [m for m in loaded if m in banned or m.startswith(banned_prefixes)]
    assert leaked == []
    assert len(loaded) <= 40, loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_every_name(package):
    report = _run(f"""
        import importlib, json
        pkg = importlib.import_module({package!r})
        missing = [n for n in pkg.__all__ if getattr(pkg, n, None) is None]
        star = {{}}
        exec("from {package} import *", star)
        print(json.dumps({{
            "missing": missing,
            "star": sorted(set(pkg.__all__) - set(star)),
            "dir": sorted(set(pkg.__all__) - set(dir(pkg))),
        }}))
    """)
    assert report == {"missing": [], "star": [], "dir": []}


def test_lazy_package_rejects_unknown_name():
    import repro.obs

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.obs.nope


def test_from_import_of_lazy_names():
    """The spellings the docs and the frozen benchmark suite use."""
    from repro.experiments import SCALED, fig18, render_figure
    from repro.experiments.figures import fig18 as defined
    from repro.stability import ProgressWatchdog
    from repro.stability.watchdog import ProgressWatchdog as watchdog

    assert fig18 is defined and ProgressWatchdog is watchdog
    assert SCALED.name and callable(render_figure)


def test_serve_parent_holds_every_point_closure():
    """A forked worker compiles nothing: running one point of each kind
    after ``import repro.serve`` loads no further ``repro`` module."""
    new = _run("""
        import dataclasses, json, sys
        import repro.serve
        from repro.experiments.config import SMOKE, NetworkConfig
        from repro.experiments.workload_spec import WorkloadSpec
        from repro.serve.job import FaultSpec, PointSpec

        def loaded():
            return {m for m in sys.modules if m.startswith("repro")}

        before = loaded()
        run = dataclasses.replace(
            SMOKE, warmup_packets=5, measure_packets=20, max_cycles=5_000
        )
        min_net, wl = NetworkConfig("dmin", k=2, n=3), WorkloadSpec(k=2, n=3)
        torus = NetworkConfig("torus3d", k=2, n=3, router="adaptive")
        points = [
            PointSpec(min_net, wl, 0.3, 1, run),
            PointSpec(torus, wl, 0.3, 1, run),
            PointSpec(min_net, wl, 0.3, 1, run, faults=FaultSpec(rate=0.05)),
            PointSpec(min_net, wl, 0.3, 1, run, transport={}),
            PointSpec(min_net, wl, 0.3, 1, run, stability={"batches": 8}),
        ]
        for point in points:
            repro.serve.run_point_spec(point)
        print(json.dumps(sorted(loaded() - before)))
    """)
    assert new == []
