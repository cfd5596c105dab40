"""Tests for ObsSession (lifecycle), KernelProfiler, and ProgressMeter."""

import io

import pytest

from repro.obs.profiler import KernelProfiler
from repro.obs.progress import ProgressMeter
from repro.obs.session import ObsSession
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.wormhole import WormholeEngine, build_network


def _engine(kind="tmin", seed=0):
    env = Environment()
    eng = WormholeEngine(env, build_network(kind, 2, 3), rng=RandomStream(seed))
    return env, eng


# ---------------------------------------------------------------- ObsSession


def test_session_records_latency_histograms():
    env, eng = _engine()
    with ObsSession(eng) as obs:
        eng.offer(1, 6, 8)
        eng.offer(0, 7, 8)
        eng.drain()
    assert obs.latency.count == 2
    assert obs.network_latency.count == 2
    # Queueing included in one, excluded in the other.
    assert obs.latency.mean >= obs.network_latency.mean


def test_session_detaches_restoring_fast_path():
    env, eng = _engine()
    obs = ObsSession(eng)
    assert eng.bus.enabled and eng.bus.hot
    obs.close()
    assert not eng.bus.enabled and not eng.bus.hot
    obs.close()  # idempotent
    obs.detach()


def test_session_write_trace_requires_trace_flag():
    env, eng = _engine()
    obs = ObsSession(eng)
    with pytest.raises(RuntimeError, match="trace=True"):
        obs.write_trace(io.StringIO())


def test_session_trace_mode_writes(tmp_path):
    env, eng = _engine()
    obs = ObsSession(eng, trace=True)
    eng.offer(1, 6, 8)
    eng.drain()
    obs.close()
    count = obs.write_trace(str(tmp_path / "t.json"))
    assert count > 0


def test_session_to_dict_and_report():
    env, eng = _engine()
    with ObsSession(eng) as obs:
        eng.offer(0, 7, 10)
        eng.offer(1, 7, 10)
        eng.drain()
    d = obs.to_dict()
    assert {"elapsed_cycles", "latency", "stages", "channels", "kernel"} <= set(d)
    assert d["latency"]["count"] == 2
    text = obs.report()
    for section in ("contention over", "heatmap", "latency", "kernel profile"):
        assert section in text


def test_session_windows_align():
    """Busy-interval sums == flits in the session window (the identity
    run_traced_point relies on for the trace/utilization criterion)."""
    env, eng = _engine()
    with ObsSession(eng) as obs:
        eng.offer(1, 6, 32)
        eng.drain()
    for led in obs.contention.ledgers.values():
        assert led.busy_cycles() == led.flits


# ------------------------------------------------------------ KernelProfiler


def test_profiler_counts_kernel_activity():
    env, eng = _engine()
    prof = KernelProfiler().install(eng)
    eng.offer(1, 6, 8)
    eng.drain()
    prof.finish()
    assert prof.events_fired > 0
    assert prof.events_scheduled > 0
    assert prof.cycles_run > 0
    assert prof.sim_cycles_elapsed > 0
    assert prof.wall_seconds > 0
    assert prof.max_heap_depth >= 1
    d = prof.to_dict()
    assert d["events_fired"] == prof.events_fired
    assert "wall time" in prof.render()


def test_profiler_reports_span_skipped_cycles():
    """One long worm in an idle fabric: the span-sleep clock credits
    most of its cycles without a tick, and the profiler says so."""
    env = Environment()
    eng = WormholeEngine(
        env, build_network("dmin", 2, 3), rng=RandomStream(0),
        engine="fast", sanitize=False,
    )
    prof = KernelProfiler().install(eng)
    eng.offer(1, 6, 512)
    eng.drain()
    prof.finish()
    assert prof.cycles_skipped == eng.cycles_skipped > 0
    assert 0.5 < prof.span_skip_ratio < 1.0
    d = prof.to_dict()
    assert d["cycles_skipped"] == prof.cycles_skipped
    assert d["span_skip_ratio"] == prof.span_skip_ratio
    assert "cycles skipped" in prof.render()


def test_profiler_reports_channel_sweep_counters():
    """A VMIN worm blocked behind two others holding its destination's
    lanes: its full body lanes follow, and the profiler reports their
    moves and the sweep's visits.  Under an ObsSession (hot sinks, as
    for ``--obs-report``) nothing follows, and the report says so."""
    offers = ((0, 7, 300), (1, 7, 300), (2, 7, 100))
    env, eng = _engine("vmin")
    prof = KernelProfiler().install(eng)
    for src, dst, length in offers:
        eng.offer(src, dst, length)
    eng.run_cycles(200)
    prof.finish()
    assert prof.lanes_followed == eng.lanes_followed > 0
    assert prof.sweep_visits == eng.sweep_visits > 0
    d = prof.to_dict()
    assert d["lanes_followed"] == prof.lanes_followed
    assert d["sweep_visits"] == prof.sweep_visits
    env, eng = _engine("vmin")
    with ObsSession(eng) as obs:
        for src, dst, length in offers:
            eng.offer(src, dst, length)
        eng.run_cycles(200)
    assert obs.profiler.lanes_followed == 0 < obs.profiler.sweep_visits
    text = obs.report()
    assert "lanes followed" in text and "sweep visits" in text


def test_profiler_flags_a_hot_sink():
    """ObsSession's contention sink is a hot bus sink, so its window
    runs the exact-order channel sweep (nothing skipped or followed);
    the profiler records that and says so, and a bare profiler does
    not.  Both report the Phase A counters."""
    env, eng = _engine("dmin")
    prof = KernelProfiler().install(eng)
    for src in range(4):
        eng.offer(src, 7, 64)
    eng.drain()
    prof.finish()
    assert not prof.hot_sink and prof.to_dict()["hot_sink"] is False
    assert "hot sink" not in prof.render()
    assert prof.shuffle_draws == eng.shuffle_draws > 0
    assert prof.alloc_scans == eng.alloc_scans > 0
    env, eng = _engine("dmin")
    with ObsSession(eng) as obs:
        for src in range(4):
            eng.offer(src, 7, 64)
        eng.drain()
    d = obs.to_dict()["kernel"]
    assert obs.profiler.hot_sink and d["hot_sink"] is True
    assert d["cycles_skipped"] == 0
    assert d["shuffle_draws"] == obs.profiler.shuffle_draws > 0
    assert "hot sink attached" in obs.report()
    # The flag is frozen with the window: detaching does not clear it.
    assert not eng.bus.hot and obs.profiler.hot_sink


def test_profiler_finish_is_idempotent():
    env, eng = _engine()
    prof = KernelProfiler().install(eng)
    eng.offer(1, 6, 8)
    eng.drain()
    prof.finish()
    frozen = prof.wall_seconds
    eng.offer(2, 5, 8)
    eng.drain()
    prof.finish()
    assert prof.wall_seconds == frozen


def test_environment_kernel_counters():
    env = Environment()
    assert env.events_scheduled == 0 and env.events_fired == 0
    env.schedule(env.event(), delay=1.0)
    env.schedule(env.event(), delay=2.0)
    assert env.events_scheduled == 2
    assert env.max_heap_depth == 2
    env.run(until=3)
    assert env.events_fired >= 2


# ------------------------------------------------------------- ProgressMeter


def test_progress_meter_throttles_and_finishes():
    out = io.StringIO()
    meter = ProgressMeter(interval=3600.0, stream=out, prefix="sweep")
    meter(1, 10, "a")   # first call prints (last print at -inf)
    meter(2, 10, "b")   # throttled
    meter(3, 10, "c")   # throttled
    meter(10, 10, "z")  # final always prints
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[sweep] 1/10")
    assert "100%" in lines[1] and "z" in lines[1]
    assert meter.lines_printed == 2


def test_progress_meter_interval_zero_prints_everything():
    out = io.StringIO()
    meter = ProgressMeter(interval=0.0, stream=out)
    for i in range(4):
        meter(i, 4)
    assert len(out.getvalue().strip().splitlines()) == 4


def test_progress_meter_unknown_total():
    out = io.StringIO()
    meter = ProgressMeter(interval=0.0, stream=out)
    meter(5, 0, "open-ended")
    assert "5 done" in out.getvalue()


def test_progress_meter_validation():
    with pytest.raises(ValueError):
        ProgressMeter(interval=-1)
