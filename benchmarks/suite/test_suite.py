"""Self-test of the benchmark suite (smoke sizes; about a minute).

    PYTHONPATH=src python -m pytest benchmarks/suite

Outside tier 1's ``testpaths``: it runs the suite itself, as a user
would, and checks the contract the suite promises -- every metric of
``BENCHMARK.json`` printed with its unit on every workload, a wrong pin
detected, a vanished probe target reported instead of crashing, and the
engine loop reproducing ``run_point`` exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _suite(*args: str, cwd: Path = ROOT, timeout: float = 170.0):
    """Run ``run.py`` as the benchmark command; (returncode, lines)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks/suite/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    rc, lines = _suite("--smoke", "--trace", trace)
    result = _result(lines)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in CATALOG["workloads"]:
        for metric in CATALOG[section]:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            if section == "end_to_end":
                assert got["value"] > 0, (workload["name"], metric["name"])
    if section == "per_layer":
        # The probed layers' self times account for the run phase.
        for name in ("contended", "streaming"):
            for tier in ("fast", "batch"):
                coverage = result["metrics"][f"{name}/trace.coverage.{tier}"]["value"]
                assert 0.9 <= coverage <= 1.0, (name, tier, coverage)


def test_single_workload_prints_the_contract_line():
    rc, lines = _suite(
        "--workload", "serve", "--seed", "11", "--seconds", "1", "--trace", "0",
        "--smoke",
    )
    result = _result(lines)
    assert rc == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in CATALOG["end_to_end"]}


def test_corrupted_pin_fails_the_run(tmp_path):
    pins = json.loads((SUITE / "expected.json").read_text())
    first = pins["smoke"]["contended"][0]
    pins["smoke"]["contended"][0] = first[::-1]
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(pins))
    rc, lines = _suite("--workload", "contended", "--smoke", "--expected", str(bad))
    result = _result(lines)
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_missing_probe_target_is_reported_absent(tmp_path, monkeypatch):
    sys.path.insert(0, str(SUITE))
    import child
    from repro.wormhole.engine import WormholeEngine

    # The reference Phase A never runs on the fast tier: deleting it
    # stands in for an engine refactor that renamed a probed method.
    monkeypatch.delattr(WormholeEngine, "_phase_allocate")
    out = tmp_path / "result.json"
    rc = child.main([
        "--workload", "contended", "--tier", "fast", "--seed", "3",
        "--smoke", "--trace", "--out", str(out), "--workdir", str(tmp_path),
    ])
    result = json.loads(out.read_text())
    assert rc == 0
    assert result["absent"] == ["repro.wormhole.engine:WormholeEngine._phase_allocate"]
    assert result["layers"]["wormhole.phase_a_s"] > 0
    assert not hasattr(WormholeEngine, "_phase_allocate")


def test_engine_loop_reproduces_run_point():
    sys.path.insert(0, str(SUITE))
    import workloads
    from repro.experiments.runner import run_point
    from repro.metrics.collector import measurement_to_dict

    result = workloads.run_engine("contended", "fast", 5, smoke=True)
    points, run_cfg, spec = workloads.engine_scenario("contended", 5, smoke=True)
    for (net, load), got in zip(points, result["points"]):
        m = run_point(net, spec.builder(run_cfg), load, run_cfg, engine="fast")
        assert got["digest"] == workloads.digest(measurement_to_dict(m))


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        SUITE, tmp_path / "benchmarks/suite",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    rc, lines = _suite("--workload", "contended", cwd=tmp_path, timeout=60)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
