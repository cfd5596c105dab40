"""Supervised worker pool: completion, death recovery, poison, stop.

The runners here are module-level functions (they cross the process
boundary).  Crash drills coordinate through sentinel files passed via
environment variables, which forked workers inherit.
"""

import dataclasses
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.config import SMOKE, NetworkConfig
from repro.experiments.workload_spec import WorkloadSpec
from repro.faults.recovery import RetryPolicy
from repro.serve.canonical import payload_json
from repro.serve.compute import run_point_spec
from repro.serve.job import PointSpec
from repro.serve.supervisor import (
    PointOutcome,
    SupervisePolicy,
    SupervisorReport,
    WorkerSupervisor,
)

TINY = dataclasses.replace(
    SMOKE, warmup_packets=10, measure_packets=40, max_cycles=20_000
)

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, factor=2.0, max_delay=0.05, jitter=0.0
)

_KILL_ENV = "REPRO_SERVE_TEST_KILL_SENTINEL"
_SLOW_ENV = "REPRO_SERVE_TEST_SLOW_DIR"


def _tiny_points(loads=(0.2, 0.4, 0.6)):
    net = NetworkConfig("dmin", k=2, n=3)
    wl = WorkloadSpec(k=2, n=3)
    return [PointSpec(net, wl, load, 5, TINY) for load in loads]


# ------------------------------------------------------- picklable runners


def _echo_runner(task):
    return {"value": task["value"] * 2}


def _fail_marked_runner(task):
    if task.get("fail"):
        raise RuntimeError("marked to fail")
    return {"value": task["value"]}


def _always_fail_runner(task):
    raise RuntimeError("always fails")


def _kill_once_runner(point):
    """SIGKILL this worker on the marked point's first attempt."""
    sentinel = Path(os.environ[_KILL_ENV])
    if point.load == 0.4 and not sentinel.exists():
        sentinel.write_text("killed here")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_point_spec(point)


def _slow_first_runner(task):
    """First dispatch of each task wedges; any later dispatch returns fast."""
    marker = Path(os.environ[_SLOW_ENV]) / f"{task['id']}.first"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return {"value": task["id"]}
    time.sleep(30.0)
    return {"value": task["id"]}


def _sleep_runner(task):
    time.sleep(30.0)  # never beats the heartbeat
    return {"value": 0}


# ------------------------------------------------------------ happy paths


def test_completes_all_tasks():
    tasks = [(f"k{i}", {"value": i}) for i in range(7)]
    report = WorkerSupervisor(
        _echo_runner, SupervisePolicy(workers=3, retry=FAST_RETRY)
    ).run(tasks)
    assert report.complete
    assert report.results == {f"k{i}": {"value": 2 * i} for i in range(7)}
    assert report.counters() == {
        "retries": 0, "worker_deaths": 0, "stall_kills": 0,
        "interrupted": False,
    }


@pytest.mark.parametrize(
    "bad", [{"workers": 0}, {"stall_after": 0}, {"point_timeout": 0},
            {"point_timeout": -1.0}],
)
def test_policy_rejects_bad_settings(bad):
    """A zero deadline would kill every worker before its point runs."""
    with pytest.raises(ValueError):
        SupervisePolicy(**bad)


def test_empty_task_list():
    report = WorkerSupervisor(_echo_runner).run([])
    assert report.complete and report.outcomes == {}


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError, match="duplicate task keys"):
        WorkerSupervisor(_echo_runner).run([("k", 1), ("k", 2)])


def test_wind_down_never_waits_out_the_join_deadline():
    """Every idle worker gets its own ``None`` sentinel at wind-down.

    An idle worker may take any sentinel and exit at once.  Counting
    the sentinels while that happens skips a worker now and then, and
    the worker left without one blocks on the task queue until the
    2 s join deadline kills it.  Many small jobs make the race show.
    """
    policy = SupervisePolicy(workers=4, retry=FAST_RETRY)
    for job in range(25):
        tasks = [(f"k{i}", {"value": i}) for i in range(4)]
        report = WorkerSupervisor(_echo_runner, policy).run(tasks)
        assert report.complete
        assert report.elapsed_s < 1.5, f"job {job} took {report.elapsed_s:.2f}s"


def test_spawns_no_more_workers_than_tasks():
    """A one-task job forks one worker, whatever ``policy.workers`` says."""
    import multiprocessing

    before = {p.pid for p in multiprocessing.active_children()}
    live = []

    def count_children(key, outcome):
        live.append(len(
            {p.pid for p in multiprocessing.active_children()} - before
        ))

    report = WorkerSupervisor(
        _echo_runner,
        SupervisePolicy(workers=4, retry=FAST_RETRY),
        on_result=count_children,
    ).run([("k", {"value": 1})])
    assert report.complete
    assert live == [1]


def test_on_result_called_per_settled_point():
    seen = {}
    sup = WorkerSupervisor(
        _echo_runner,
        SupervisePolicy(workers=2, retry=FAST_RETRY),
        on_result=lambda key, outcome: seen.setdefault(key, outcome),
    )
    sup.run([(f"k{i}", {"value": i}) for i in range(4)])
    assert set(seen) == {f"k{i}" for i in range(4)}
    assert all(isinstance(o, PointOutcome) and o.ok for o in seen.values())


def test_matches_single_process_execution():
    """Supervised answers are byte-identical to in-process ones."""
    points = _tiny_points()
    tasks = [(p.key(), p) for p in points]
    report = WorkerSupervisor(
        run_point_spec, SupervisePolicy(workers=2, retry=FAST_RETRY)
    ).run(tasks)
    assert report.complete
    for p in points:
        assert (
            payload_json(report.results[p.key()])
            == payload_json(run_point_spec(p))
        )


# -------------------------------------------------------- failure policy


def test_poison_point_degrades_not_wedges():
    """A persistently failing point settles as failed; the rest finish."""
    tasks = [
        ("good1", {"value": 1}),
        ("bad", {"value": 2, "fail": True}),
        ("good2", {"value": 3}),
    ]
    events = []
    report = WorkerSupervisor(
        _fail_marked_runner,
        SupervisePolicy(workers=2, retry=FAST_RETRY),
        on_event=lambda kind, **info: events.append(kind),
    ).run(tasks)
    assert not report.complete
    assert report.outcomes["bad"].status == "failed"
    assert report.outcomes["bad"].attempts == FAST_RETRY.max_attempts
    assert "marked to fail" in report.outcomes["bad"].error
    assert report.results == {"good1": {"value": 1}, "good2": {"value": 3}}
    assert report.retries == FAST_RETRY.max_attempts - 1
    assert events.count("poison") == 1


def test_all_points_poisoned():
    report = WorkerSupervisor(
        _always_fail_runner,
        SupervisePolicy(workers=1, retry=RetryPolicy(
            max_attempts=1, base_delay=0.01, factor=2.0,
            max_delay=0.05, jitter=0.0,
        )),
    ).run([("a" * 64, {"x": 1}), ("b" * 64, {"x": 2})])
    assert not report.complete
    assert set(report.failures) == {"a" * 64, "b" * 64}


# -------------------------------------------------------- crash recovery


def test_worker_sigkill_recovery_byte_identical(tmp_path, monkeypatch):
    """SIGKILL a worker mid-point: the supervisor respawns and retries,
    and the final answers are byte-identical to a single-process run."""
    monkeypatch.setenv(_KILL_ENV, str(tmp_path / "killed"))
    points = _tiny_points(loads=(0.2, 0.4, 0.6))
    tasks = [(p.key(), p) for p in points]
    events = []
    report = WorkerSupervisor(
        _kill_once_runner,
        SupervisePolicy(workers=2, retry=FAST_RETRY, poll_interval=0.02),
        on_event=lambda kind, **info: events.append((kind, info)),
    ).run(tasks)

    assert (tmp_path / "killed").exists(), "the drill never fired"
    assert report.worker_deaths >= 1
    assert any(k == "worker_death" for k, _ in events)
    assert report.complete, f"failures: {report.failures}"
    killed = next(p for p in points if p.load == 0.4)
    assert report.outcomes[killed.key()].attempts >= 2
    for p in points:
        assert (
            payload_json(report.results[p.key()])
            == payload_json(run_point_spec(p))
        )


def test_wedged_worker_stall_killed():
    """A live-but-silent worker is killed once its heartbeat goes stale."""
    report = WorkerSupervisor(
        _sleep_runner,
        SupervisePolicy(
            workers=1,
            retry=RetryPolicy(
                max_attempts=1, base_delay=0.01, factor=2.0,
                max_delay=0.05, jitter=0.0,
            ),
            stall_after=0.4,
            poll_interval=0.02,
        ),
    ).run([("wedge", {})])
    assert report.stall_kills >= 1
    assert not report.complete
    assert "wedged" in report.outcomes["wedge"].error


def test_cooperative_timeout_beats_inside_simulation():
    """A runaway simulation point trips the cooperative deadline -- and
    because the sim loop beats the heartbeat, it is *not* a stall kill."""
    endless = dataclasses.replace(
        TINY, measure_packets=10**9, max_cycles=10**9
    )
    point = PointSpec(
        NetworkConfig("dmin", k=2, n=3), WorkloadSpec(k=2, n=3),
        0.4, 5, endless,
    )
    report = WorkerSupervisor(
        run_point_spec,
        SupervisePolicy(
            workers=1,
            retry=RetryPolicy(
                max_attempts=1, base_delay=0.01, factor=2.0,
                max_delay=0.05, jitter=0.0,
            ),
            point_timeout=0.3,
            stall_after=2.0,
            poll_interval=0.02,
        ),
    ).run([(point.key(), point)])
    outcome = report.outcomes[point.key()]
    assert outcome.status == "failed"
    assert "PointTimeout" in outcome.error
    assert report.stall_kills == 0, "heartbeat should keep beating"
    assert report.worker_deaths == 0


# -------------------------------------------------------------- stop path


def test_request_stop_interrupts_gracefully(tmp_path, monkeypatch):
    monkeypatch.setenv(_SLOW_ENV, str(tmp_path))
    sup = WorkerSupervisor(
        _slow_first_runner,
        SupervisePolicy(workers=1, retry=FAST_RETRY, poll_interval=0.02),
        on_result=lambda key, outcome: sup.request_stop(),
    )
    # first task settles (its marker pre-created), then stop is
    # requested; the second never runs and settles as interrupted.
    (tmp_path / "1.first").touch()
    report = sup.run([("fast", {"id": 1}), ("slow", {"id": 2})])
    assert report.interrupted
    assert report.outcomes["fast"].ok
    assert report.outcomes["slow"].status == "interrupted"


def test_report_helpers():
    r = SupervisorReport()
    r.outcomes["a"] = PointOutcome("a", "ok", payload={"v": 1})
    r.outcomes["b"] = PointOutcome("b", "failed", error="boom")
    assert r.results == {"a": {"v": 1}}
    assert r.failures == {"b": "boom"}
    assert not r.complete
