"""End-to-end sweep service tests: dedupe, cache resume, degradation.

The acceptance drills: a corrupted cache entry is transparently
quarantined and recomputed without failing the job, and a re-submitted
spec is served wholly from the cache.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.recovery import RetryPolicy
from repro.serve.canonical import payload_json
from repro.serve.cache import ResultCache
from repro.serve.compute import run_point_spec
from repro.serve.export import MANIFEST_CSV_FIELDS, write_manifest_csv
from repro.serve.job import FaultSpec, JobManifest, JobSpec
from repro.serve.service import SweepService
from repro.serve.supervisor import SupervisePolicy

TINY = dataclasses.replace(
    SMOKE, warmup_packets=10, measure_packets=40, max_cycles=20_000
)

FAST_POLICY = SupervisePolicy(
    workers=2,
    retry=RetryPolicy(
        max_attempts=2, base_delay=0.01, factor=2.0, max_delay=0.05, jitter=0.0
    ),
)


def _tiny_spec(loads=(0.2, 0.5, 0.5), **kwargs):
    """2 small networks x loads (default includes one duplicate)."""
    return JobSpec(
        networks=(
            NetworkConfig("dmin", k=2, n=3),
            NetworkConfig("tmin", k=2, n=3),
        ),
        run=TINY,
        workload=WorkloadSpec(),
        loads=loads,
        **kwargs,
    )


def _service(tmp_path, **kwargs):
    kwargs.setdefault("policy", FAST_POLICY)
    kwargs.setdefault("job_root", tmp_path / "jobs")
    return SweepService(cache=tmp_path / "cache", **kwargs)


def _fail_half_runner(point):
    if point.load == 0.5:
        raise RuntimeError("injected failure")
    return run_point_spec(point)


# --------------------------------------------------------------- cold run


def test_cold_job_end_to_end(tmp_path):
    service = _service(tmp_path)
    spec = _tiny_spec()
    manifest = service.run_job_sync(spec)

    assert manifest.complete and manifest.incomplete == []
    assert manifest.counts == {
        "requested": 6, "unique": 4, "deduplicated": 2,
        "cached": 0, "computed": 4, "failed": 0, "pending": 0,
    }
    # every grid entry (duplicates included) reports its serving status
    assert len(manifest.points) == 6
    assert {p["status"] for p in manifest.points} == {"computed"}
    # the manifest landed on disk and round-trips
    path = service.manifest_path(spec)
    assert path.exists()
    again = JobManifest.read(path)
    assert again.to_dict() == manifest.to_dict()
    assert again.statuses()["computed"] == 6


def test_cached_payloads_match_in_process_run(tmp_path):
    service = _service(tmp_path)
    spec = _tiny_spec(loads=(0.2, 0.5))
    service.run_job_sync(spec)
    for point in spec.points():
        cached = service.cache.get(point.key())
        assert payload_json(cached) == payload_json(run_point_spec(point))


def test_progress_names_each_point(tmp_path):
    """Progress heartbeats carry the point's readable label."""
    spec = _tiny_spec()
    calls = []
    manifest = _service(
        tmp_path, progress=lambda done, total, label: calls.append(
            (done, total, label)
        ),
    ).run_job_sync(spec)
    assert manifest.complete
    assert [(done, total) for done, total, _ in calls] == [
        (1, 4), (2, 4), (3, 4), (4, 4)
    ]
    labels = sorted(label for _, _, label in calls)
    assert labels == sorted({p.label for p in spec.points()})
    assert labels[0].startswith("DMIN(d=2, cube)/uniform@0.2#s")


# ----------------------------------------------------------- warm resume


def test_warm_rerun_served_entirely_from_cache(tmp_path):
    spec = _tiny_spec()
    _service(tmp_path).run_job_sync(spec)

    warm = _service(tmp_path)  # fresh service, same cache directory
    manifest = warm.run_job_sync(spec)
    assert manifest.complete
    assert manifest.counts["cached"] == 4
    assert manifest.counts["computed"] == 0
    assert manifest.supervisor == {"interrupted": False}
    assert {p["status"] for p in manifest.points} == {"cached"}


# ------------------------------------------------- corruption acceptance


def test_corrupt_entry_transparently_recomputed(tmp_path):
    """Bit-rot in the cache quarantines + recomputes; the job still
    completes and the healed entry verifies again."""
    spec = _tiny_spec(loads=(0.2, 0.5))
    first = _service(tmp_path).run_job_sync(spec)
    assert first.complete

    victim = spec.points()[0]
    cache = ResultCache(tmp_path / "cache")
    entry = cache.path_for(victim.key())
    entry.write_bytes(entry.read_bytes()[:-40] + b"rot rot rot rot rot rot")

    service = _service(tmp_path)
    manifest = service.run_job_sync(spec)
    assert manifest.complete, f"incomplete: {manifest.incomplete}"
    assert manifest.cache["corrupt"] == 1
    assert manifest.counts["computed"] == 1    # only the victim
    assert manifest.counts["cached"] == 3
    assert list((tmp_path / "cache" / "quarantine").iterdir())

    healed = ResultCache(tmp_path / "cache").get(victim.key())
    assert payload_json(healed) == payload_json(run_point_spec(victim))


# ------------------------------------------------- graceful degradation


def test_poisoned_points_degrade_to_incomplete_manifest(tmp_path):
    spec = _tiny_spec(loads=(0.2, 0.5))
    service = _service(tmp_path, runner=_fail_half_runner)
    manifest = service.run_job_sync(spec)

    assert not manifest.complete
    assert manifest.counts["failed"] == 2      # load 0.5 on both networks
    assert manifest.counts["computed"] == 2
    assert len(manifest.incomplete) == 2
    failed = [p for p in manifest.points if p["status"] == "failed"]
    assert all("injected failure" in p["error"] for p in failed)
    assert all(p["load"] == 0.5 for p in failed)

    # re-running with a healthy runner serves the failures' remainder
    # from cache and computes only the previously poisoned points
    healthy = _service(tmp_path)
    second = healthy.run_job_sync(spec)
    assert second.complete
    assert second.counts["cached"] == 2 and second.counts["computed"] == 2


def test_stop_before_run_leaves_points_pending(tmp_path):
    service = _service(tmp_path)
    service.request_stop()
    manifest = service.run_job_sync(_tiny_spec(loads=(0.2,)))
    assert not manifest.complete
    assert manifest.counts["pending"] == 2
    assert {p["status"] for p in manifest.points} == {"pending"}


# ------------------------------------------------------------ fault grid


def test_faulted_points_are_distinct_and_runnable(tmp_path):
    net = (NetworkConfig("dmin", k=2, n=3),)
    clean = JobSpec(networks=net, run=TINY, workload=WorkloadSpec(),
                    loads=(0.3,))
    faulted = JobSpec(networks=net, run=TINY, workload=WorkloadSpec(),
                      loads=(0.3,), faults=FaultSpec(rate=0.05))
    assert clean.points()[0].key() != faulted.points()[0].key()

    service = _service(tmp_path)
    assert service.run_job_sync(clean).complete
    assert service.run_job_sync(faulted).complete
    assert len(service.cache) == 2


# ----------------------------------------------------------------- export


def test_manifest_csv_export(tmp_path):
    spec = _tiny_spec()
    service = _service(tmp_path)
    manifest = service.run_job_sync(spec)
    out = tmp_path / "out.csv"
    write_manifest_csv(manifest, service.cache, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(MANIFEST_CSV_FIELDS)
    assert len(lines) == 1 + 4                 # header + unique points only


def test_export_identical_after_worker_computation(tmp_path):
    """Satellite drill: the supervised run's final export is
    byte-identical to a single-process run's export."""
    spec = _tiny_spec(loads=(0.2, 0.5))

    supervised = _service(tmp_path / "a")
    manifest_a = supervised.run_job_sync(spec)
    csv_a = tmp_path / "a.csv"
    write_manifest_csv(manifest_a, supervised.cache, csv_a)

    # single process: compute every point inline into a fresh cache
    solo_cache = ResultCache(tmp_path / "b" / "cache")
    for p in spec.points():
        if solo_cache.get(p.key()) is None:
            solo_cache.put(p.key(), run_point_spec(p))
    solo = SweepService(
        cache=solo_cache, policy=FAST_POLICY, job_root=tmp_path / "b" / "jobs"
    )
    manifest_b = solo.run_job_sync(spec)
    assert manifest_b.counts["computed"] == 0
    csv_b = tmp_path / "b.csv"
    write_manifest_csv(manifest_b, solo_cache, csv_b)

    assert csv_a.read_bytes() == csv_b.read_bytes()


# -------------------------------------------------------------------- CLI


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", *args],
        capture_output=True, text=True, cwd=str(cwd),
        env={"PYTHONPATH": str(Path.cwd() / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_inline_spec_round_trip(tmp_path):
    args = [
        "--cache", str(tmp_path / "cache"),
        "--networks", "dmin",
        "--loads", "0.2",
        "--mode", "smoke",
        "--workers", "1",
        "--quiet",
    ]
    cold = _run_cli(args, tmp_path)
    assert cold.returncode == 0, cold.stderr
    assert "COMPLETE" in cold.stdout
    assert "1 unique" in cold.stdout

    warm = _run_cli([*args, "--json"], tmp_path)
    assert warm.returncode == 0, warm.stderr
    manifest = json.loads(warm.stdout)
    assert manifest["complete"] is True
    assert manifest["counts"]["cached"] == 1

    manifests = list((tmp_path / "cache" / "jobs").glob("*.manifest.json"))
    assert len(manifests) == 1


def test_cli_spec_file(tmp_path):
    spec_file = tmp_path / "job.json"
    spec_file.write_text(json.dumps({
        "networks": [{"kind": "dmin", "k": 2, "n": 3}],
        "workload": {"pattern": "uniform", "k": 2, "n": 3},
        "run": {"mode": "smoke", "warmup_packets": 10,
                "measure_packets": 40, "max_cycles": 20000},
        "loads": [0.2, 0.4],
        "seeds": [1, 2],
    }))
    result = _run_cli(
        ["--spec", str(spec_file), "--cache", str(tmp_path / "cache"),
         "--workers", "2", "--quiet", "--csv", str(tmp_path / "out.csv")],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "4 unique" in result.stdout
    assert (tmp_path / "out.csv").exists()
    assert len((tmp_path / "out.csv").read_text().strip().splitlines()) == 5


def test_cli_survives_reader_closing_stdout(tmp_path):
    """A reader that closes stdout before the summary (``... | head``)
    costs the settled job neither its exit code nor a traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--cache", str(tmp_path / "cache"), "--networks", "dmin",
         "--loads", "0.2", "--mode", "smoke", "--workers", "1",
         "--quiet", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(tmp_path),
        env={"PYTHONPATH": str(Path.cwd() / "src"), "PATH": "/usr/bin:/bin"},
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0, stderr
    assert "Traceback" not in stderr, stderr
    assert list((tmp_path / "cache" / "jobs").glob("*.manifest.json"))


def test_cli_rejects_missing_spec(tmp_path):
    result = _run_cli(["--cache", str(tmp_path / "cache")], tmp_path)
    assert result.returncode != 0
    assert "--networks" in result.stderr or "--spec" in result.stderr


def test_cli_rejects_malformed_spec_before_dispatch(tmp_path):
    """A bad spec must die at parse time (exit 2), not burn workers
    on doomed points."""
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"networks": "dmin"}))  # str, not list
    result = _run_cli(
        ["--spec", str(spec_file), "--cache", str(tmp_path / "cache")],
        tmp_path,
    )
    assert result.returncode == 2
    assert "bad job spec" in result.stderr
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag", ["--stall-after", "--point-timeout"])
def test_cli_rejects_nonpositive_timeouts(tmp_path, flag):
    """A zero timeout is a usage error (exit 2) before any worker runs."""
    result = _run_cli(
        ["--cache", str(tmp_path / "cache"), "--networks", "dmin",
         "--loads", "0.2", "--mode", "smoke", "--quiet", flag, "0"],
        tmp_path,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "bad supervisor policy" in result.stderr
    assert not (tmp_path / "cache").exists()


def test_serve_imports_no_asyncio():
    """The service and the worker-side compute module load no asyncio
    (a fresh process proves it): every worker and CLI start pays for
    each module the closure pulls in."""
    code = (
        "import sys\n"
        "import repro.serve, repro.serve.compute\n"
        "assert 'asyncio' not in sys.modules, 'repro.serve imported asyncio'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_spec_rejects_non_list_networks():
    with pytest.raises(ValueError, match="'networks' must be a list"):
        JobSpec.from_dict({"networks": "dmin"})


def test_spec_rejects_unknown_network_kind():
    with pytest.raises(ValueError, match="not a valid NetworkKind"):
        JobSpec.from_dict({"networks": ["zmin"]})


def test_sigterm_crash_drill(tmp_path):
    """The scripted CI drill: SIGTERM mid-job -> partial manifest ->
    identical re-run resumes from cache -> complete, byte-stable."""
    result = subprocess.run(
        [sys.executable, str(Path("tools/serve_smoke.py").resolve()),
         "--workdir", str(tmp_path / "drill")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "PASS" in result.stdout


def test_spec_json_round_trip():
    spec = _tiny_spec(seeds=(1, 2), engine="reference",
                      faults=FaultSpec(rate=0.01))
    again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again.job_id == spec.job_id
    assert [p.key() for p in again.points()] == [
        p.key() for p in spec.points()
    ]
