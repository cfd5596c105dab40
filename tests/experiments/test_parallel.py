"""Tests for the declarative workload specs and the parallel runner.

The parallel runner is a front end over :mod:`repro.serve`, so the
runners below reach the supervised workers: they are module-level (they
cross the process boundary) and coordinate crash drills through
sentinel files named by environment variables, which forked workers
inherit.
"""

import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.parallel import parallel_matrix, parallel_sweep
from repro.experiments.runner import LoadPoint, run_point, sweep
from repro.experiments.workload_spec import WorkloadSpec
from repro.serve.cache import ResultCache

QUICK = replace(SMOKE, warmup_packets=20, measure_packets=100, loads=(0.2, 0.5))


# Module-level so they pickle into worker processes.


def _measure(task):
    network, spec, load, run_cfg = task
    return LoadPoint(load, run_point(network, spec.builder(run_cfg), load, run_cfg))


def crashing_runner(task):
    """Dies on the 0.5 point, measures the rest."""
    _network, _spec, load, _cfg = task
    if load == 0.5:
        raise RuntimeError("simulated worker crash")
    return _measure(task)


def always_crashing_runner(task):
    raise RuntimeError("this runner must never be invoked")


def flaky_runner(task):
    """Crashes until the sentinel file exists (created on first call):
    the first attempt dies, the supervisor's retry succeeds."""
    sentinel = os.environ["REPRO_FLAKY_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed once")
        raise OSError("transient failure")
    return _measure(task)


def killing_runner(task):
    """SIGKILLs its own worker on the 0.5 point's first attempt."""
    _network, _spec, load, _cfg = task
    sentinel = Path(os.environ["REPRO_KILL_SENTINEL"])
    if load == 0.5 and not sentinel.exists():
        sentinel.write_text("killed here")
        os.kill(os.getpid(), signal.SIGKILL)
    return _measure(task)


def sleeping_runner(task):
    time.sleep(30.0)
    return _measure(task)  # pragma: no cover - killed as wedged


def counting_runner(task):
    """Tallies one line per invocation under REPRO_COUNT_DIR, per point."""
    network, _spec, load, _cfg = task
    outdir = Path(os.environ["REPRO_COUNT_DIR"])
    with open(outdir / f"{network.kind}-{load}", "a") as fh:
        fh.write("ran\n")
    return _measure(task)


# ------------------------------------------------------------- WorkloadSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(pattern="tsunami")
    with pytest.raises(ValueError):
        WorkloadSpec(clustering="ring")
    with pytest.raises(ValueError):
        WorkloadSpec(pattern="shuffle", clustering="cluster16")


def test_spec_labels():
    assert WorkloadSpec().label == "uniform"
    assert WorkloadSpec(pattern="hotspot", hot_fraction=0.1).label == "hotspot 10%"
    assert "cluster16" in WorkloadSpec(clustering="cluster16").label
    assert "4:1:1:1" in WorkloadSpec(
        clustering="cluster16", ratios=(4, 1, 1, 1)
    ).label
    assert "i=2" in WorkloadSpec(pattern="butterfly").label


def test_spec_clusters():
    assert WorkloadSpec().clusters().N == 64
    assert WorkloadSpec(clustering="cluster32").clusters().name == "cluster-32"
    shared = WorkloadSpec(clustering="cluster16-shared").clusters()
    assert "XX0" in shared.name


def test_spec_builder_matches_figure_builder():
    """The spec rebuilds the exact closure the figure builders use:
    identical measurements."""
    from repro.experiments.figures import uniform_workload
    from repro.experiments.runner import run_point
    from repro.traffic.clusters import global_cluster

    net = NetworkConfig("tmin")
    a = run_point(net, uniform_workload(global_cluster(), QUICK), 0.3, QUICK)
    b = run_point(net, WorkloadSpec().builder(QUICK), 0.3, QUICK)
    assert a == b


def test_spec_is_picklable():
    import pickle

    spec = WorkloadSpec(pattern="hotspot", hot_fraction=0.1)
    assert pickle.loads(pickle.dumps(spec)) == spec


# ----------------------------------------------------------- parallel runner


def test_parallel_sweep_matches_sequential():
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    seq = sweep(net, spec.builder(QUICK), QUICK, label="x")
    par = parallel_sweep(net, spec, QUICK, label="x", max_workers=2)
    assert par == seq


def test_parallel_matrix_structure():
    nets = [NetworkConfig("tmin", k=2, n=3), NetworkConfig("bmin", k=2, n=3)]
    spec = WorkloadSpec(k=2, n=3)
    results = parallel_matrix(nets, spec, QUICK, max_workers=2)
    assert len(results) == 2
    assert [len(r.points) for r in results] == [2, 2]
    assert results[0].label.startswith("TMIN")
    assert results[1].label.startswith("BMIN")
    # Matrix points equal per-network parallel sweeps.
    solo = parallel_sweep(nets[1], spec, QUICK, max_workers=2)
    assert results[1].points == solo.points


# --------------------------------------------------------- crash tolerance


def test_worker_crash_keeps_other_points():
    """A crashed point loses only itself, never the others: the result
    is partial, with the error string attached to the casualty."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(
        net, spec, QUICK, max_workers=2, retries=0,
        point_runner=crashing_runner,
    )
    assert not result.complete
    assert result.errors() == [(0.5, "RuntimeError: simulated worker crash")]
    by_load = {p.offered_load: p for p in result.points}
    assert by_load[0.2].ok                      # the good point survived
    assert by_load[0.5].measurement is None
    # The partial sweep still answers what it can.
    assert result.max_sustained_throughput() > 0
    with pytest.raises(ValueError):
        result.latency_at(0.5)


def test_sequential_retry_recovers_transient_crash(tmp_path, monkeypatch):
    """A point that crashes on its first attempt succeeds on the retry."""
    sentinel = tmp_path / "flaky.flag"
    monkeypatch.setenv("REPRO_FLAKY_SENTINEL", str(sentinel))
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(
        net, spec, QUICK, loads=(0.2,), max_workers=1,
        retries=2, point_runner=flaky_runner,
    )
    assert result.complete
    assert sentinel.exists()  # proof the first attempt crashed
    # Bit-identical to the sequential runner despite the detour.
    seq = sweep(net, spec.builder(QUICK), QUICK, loads=(0.2,))
    assert result.points == seq.points


def test_sigkilled_worker_recovered_bit_identical(tmp_path, monkeypatch):
    """A worker SIGKILLed mid-point is respawned and the point retried:
    the sweep completes, bit-identical to the sequential runner."""
    sentinel = tmp_path / "killed.flag"
    monkeypatch.setenv("REPRO_KILL_SENTINEL", str(sentinel))
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(
        net, spec, QUICK, max_workers=2, point_runner=killing_runner,
    )
    assert sentinel.exists()  # proof a worker died
    assert result.complete
    assert result.points == sweep(net, spec.builder(QUICK), QUICK).points


def test_cooperative_deadline_fires_inside_the_simulation_loop():
    """set_point_deadline + a practically endless point: the simulation
    loop's cooperative check converts the overrun into PointTimeout."""
    from repro.experiments.runner import (
        PointTimeout,
        run_point,
        set_point_deadline,
    )

    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    endless = replace(
        QUICK, warmup_packets=10**9, measure_packets=10**9,
        max_cycles=10**9,
    )
    set_point_deadline(0.3)
    try:
        with pytest.raises(PointTimeout):
            run_point(net, spec.builder(endless), 0.5, endless)
    finally:
        set_point_deadline(None)
    # One timeout per arming: a fresh (undeadlined) point runs fine.
    assert run_point(net, spec.builder(QUICK), 0.2, QUICK).cycles > 0


def test_deadline_validation_and_disarm():
    from repro.experiments.runner import set_point_deadline

    with pytest.raises(ValueError):
        set_point_deadline(0.0)
    set_point_deadline(None)  # disarm is always legal


def test_cutoff_works_in_a_worker_thread():
    """The cooperative deadline is per thread, so it cuts off a point
    running outside the main thread (where SIGALRM cannot be armed)."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.experiments.runner import PointTimeout, set_point_deadline

    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    endless = replace(
        QUICK, warmup_packets=10**9, measure_packets=10**9,
        max_cycles=10**9,
    )

    def endless_point():
        set_point_deadline(0.3)
        try:
            return run_point(net, spec.builder(endless), 0.5, endless)
        finally:
            set_point_deadline(None)

    with ThreadPoolExecutor(max_workers=1) as pool:
        fut = pool.submit(endless_point)
        with pytest.raises(PointTimeout):
            fut.result(timeout=60)


def test_per_point_timeout_converts_hang_to_error():
    """A point that hangs outside the simulation loop never beats: the
    supervisor kills its worker as wedged once ``timeout`` passes."""
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    t0 = time.monotonic()
    result = parallel_sweep(
        net, spec, QUICK, loads=(0.2,), max_workers=1,
        timeout=0.5, retries=0, point_runner=sleeping_runner,
    )
    assert time.monotonic() - t0 < 10.0
    assert not result.complete
    (load, error) = result.errors()[0]
    assert load == 0.2
    assert "worker wedged" in error


# ------------------------------------------------------------ cache / resume


def test_checkpoint_resume_skips_finished_points(tmp_path):
    """Second run over the same cache recomputes nothing: a runner
    that would crash on any invocation returns the first run's points."""
    cache = tmp_path / "cache"
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=cache)
    assert first.complete

    resumed = parallel_sweep(
        net, spec, QUICK, max_workers=2, cache=cache,
        point_runner=always_crashing_runner,
    )
    assert resumed == first
    assert resumed.dispatch["computed"] == 0


def test_checkpoint_completes_partial_run(tmp_path):
    """A run that crashed on one point leaves the finished points in
    the cache; the resume computes only the missing one."""
    cache = tmp_path / "cache"
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    partial = parallel_sweep(
        net, spec, QUICK, max_workers=2, retries=0,
        cache=cache, point_runner=crashing_runner,
    )
    assert not partial.complete
    assert len(ResultCache(cache)) == 1         # only the ok point persisted

    resumed = parallel_sweep(net, spec, QUICK, max_workers=2, cache=cache)
    assert resumed.complete
    assert (resumed.dispatch["cached"], resumed.dispatch["computed"]) == (1, 1)
    assert len(ResultCache(cache)) == 2
    # And it matches a from-scratch sequential sweep.
    seq = sweep(net, spec.builder(QUICK), QUICK)
    assert resumed.points == seq.points


def test_duplicate_points_simulate_once(tmp_path, monkeypatch):
    """Identical (network, spec, load) entries fold onto one dispatch;
    the duplicates share the representative's result."""
    monkeypatch.setenv("REPRO_COUNT_DIR", str(tmp_path))
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    result = parallel_sweep(
        net, spec, QUICK, loads=(0.2, 0.5, 0.5, 0.2), max_workers=2,
        point_runner=counting_runner,
    )
    assert result.complete and len(result.points) == 4
    assert result.points[1] == result.points[2]
    assert result.points[0] == result.points[3]
    assert result.dispatch["requested"] == 4
    assert result.dispatch["unique"] == 2
    assert result.dispatch["deduplicated"] == 2
    # proof of a single simulation per unique point
    tallies = {p.name: len(p.read_text().splitlines())
               for p in tmp_path.iterdir()}
    assert len(tallies) == 2 and set(tallies.values()) == {1}
    # dedupe never changes the answers
    seq = sweep(net, spec.builder(QUICK), QUICK, loads=(0.2, 0.5, 0.5, 0.2))
    assert result.points == seq.points


def test_dispatch_stats_report_checkpoint_hits(tmp_path):
    cache = tmp_path / "cache"
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=cache)
    assert (first.dispatch["cached"], first.dispatch["computed"]) == (0, 2)

    resumed = parallel_sweep(
        net, spec, QUICK, max_workers=2, cache=cache,
        point_runner=always_crashing_runner,
    )
    assert resumed.dispatch["cached"] == 2
    assert resumed.dispatch["unique"] == 2    # distinct keys, all from disk
    assert resumed.dispatch["deduplicated"] == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[: len(raw) // 2],                    # torn write
        lambda raw: "not json at all",
        lambda raw: '{"version": 1, "points": {"k": {"nope": true}}}',
        lambda raw: '["a", "list"]',
    ],
    ids=["truncated", "garbage", "bad_schema", "not_object"],
)
def test_corrupt_checkpoint_quarantined_and_restarted(tmp_path, corrupt):
    """A corrupt cache entry never raises: it is moved to the cache's
    quarantine, and the resume recomputes exactly that point."""
    cache_dir = tmp_path / "cache"
    net = NetworkConfig("dmin", k=2, n=3)
    spec = WorkloadSpec(k=2, n=3)
    first = parallel_sweep(net, spec, QUICK, max_workers=2, cache=cache_dir)
    cache = ResultCache(cache_dir)
    (entry, _) = sorted(p for p in cache_dir.glob("??/*.json"))
    content = corrupt(entry.read_text())
    entry.write_text(content)

    resumed = parallel_sweep(net, spec, QUICK, max_workers=2, cache=cache_dir)
    assert resumed == first
    assert (resumed.dispatch["cached"], resumed.dispatch["computed"]) == (1, 1)
    (evidence,) = cache.quarantine_dir.iterdir()
    assert evidence.read_text() == content
    assert len(cache) == 2                      # the slot healed
