"""Cross-process determinism: same seed, same bytes, any worker count.

The paper's curves are only reproducible if a seeded run is a pure
function of its configuration -- independent of process boundaries,
worker scheduling, and the engine fast path.  Three certificates:

* two *separate* interpreter processes exporting the same seeded
  figure produce byte-identical CSV and JSON files;
* ``parallel_sweep`` with 1 worker and with 4 workers returns the
  same measurements (process-pool dispatch order must not leak into
  results);
* the fast and reference engines (and ``batch``, fast's alias) export
  byte-identical files, so the engine switch can never silently change
  published numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.parallel import parallel_sweep
from repro.experiments.workload_spec import WorkloadSpec

REPO = Path(__file__).resolve().parent.parent.parent

#: Small enough to run four subprocess sweeps in a few seconds, big
#: enough to exercise warmup, measurement, and multi-series export.
_EXPORT_SCRIPT = """
import sys
from dataclasses import replace

from repro.experiments.config import PRESETS, NetworkConfig
from repro.experiments.export import write_figure_csv, write_figure_json
from repro.experiments.figures import FigureResult
from repro.experiments.runner import sweep
from repro.experiments.workload_spec import WorkloadSpec

out = sys.argv[1]
cfg = replace(
    PRESETS["smoke"], warmup_packets=20, measure_packets=80, max_cycles=8000
)
spec = WorkloadSpec(pattern="uniform")
series = tuple(
    sweep(NetworkConfig(kind), spec.builder(cfg), cfg, loads=(0.3, 0.7))
    for kind in ("tmin", "dmin")
)
fig = FigureResult("det", "determinism probe", "probe", series)
write_figure_csv(fig, out + "/fig.csv")
write_figure_json(fig, out + "/fig.json")
"""


def _export_in_subprocess(out_dir: Path, engine: str | None = None) -> None:
    """Run the export script in a fresh interpreter; files land in out_dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_SANITIZE", None)
    if engine is None:
        env.pop("REPRO_ENGINE", None)
    else:
        env["REPRO_ENGINE"] = engine
    subprocess.run(
        [sys.executable, "-c", _EXPORT_SCRIPT, str(out_dir)],
        check=True,
        env=env,
        cwd=REPO,
        timeout=300,
    )


def test_two_processes_byte_identical_exports(tmp_path: Path) -> None:
    """Two fresh interpreters, same seed: byte-identical CSV and JSON."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _export_in_subprocess(a)
    _export_in_subprocess(b)
    for name in ("fig.csv", "fig.json"):
        first = (a / name).read_bytes()
        second = (b / name).read_bytes()
        assert first == second, f"{name} differs across process runs"
    # Sanity: the files are real exports, not empty stubs.
    rows = (a / "fig.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # header + 2 series x 2 loads
    payload = json.loads((a / "fig.json").read_text())
    labels = [s["label"] for s in payload["series"]]
    assert labels[0].startswith("TMIN") and labels[1].startswith("DMIN")


def test_fast_and_reference_exports_byte_identical(tmp_path: Path) -> None:
    """REPRO_ENGINE=fast and =reference publish the exact same bytes."""
    fast, ref = tmp_path / "fast", tmp_path / "ref"
    fast.mkdir()
    ref.mkdir()
    _export_in_subprocess(fast, engine="fast")
    _export_in_subprocess(ref, engine="reference")
    for name in ("fig.csv", "fig.json"):
        assert (fast / name).read_bytes() == (ref / name).read_bytes(), (
            f"{name} differs between fast and reference engines"
        )


def test_batch_and_fast_exports_byte_identical(tmp_path: Path) -> None:
    """REPRO_ENGINE=batch, the retired tier's name, is an alias of fast
    and publishes its exact bytes."""
    batch, fast = tmp_path / "batch", tmp_path / "fast"
    batch.mkdir()
    fast.mkdir()
    _export_in_subprocess(batch, engine="batch")
    _export_in_subprocess(fast, engine="fast")
    for name in ("fig.csv", "fig.json"):
        assert (batch / name).read_bytes() == (fast / name).read_bytes(), (
            f"{name} differs between batch and fast engines"
        )


def _canonical(sweep_result) -> list[tuple[float, str]]:
    """NaN-stable canonical form of a sweep (JSON text per measurement)."""
    out = []
    for p in sweep_result.points:
        assert p.ok, p.error
        out.append(
            (p.offered_load, json.dumps(asdict(p.measurement), sort_keys=True))
        )
    return out


def test_worker_count_does_not_change_results() -> None:
    """parallel_sweep: 1 worker and 4 workers agree point for point."""
    cfg = replace(
        PRESETS["smoke"],
        warmup_packets=20,
        measure_packets=80,
        max_cycles=8000,
        loads=(0.2, 0.4, 0.6, 0.8),
    )
    net = NetworkConfig("bmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    solo = parallel_sweep(net, spec, cfg, max_workers=1)
    quad = parallel_sweep(net, spec, cfg, max_workers=4)
    assert _canonical(solo) == _canonical(quad)
