"""Unit tests for the DES kernel's environment and event loop."""

import pytest

from repro.sim import EmptySchedule, Environment, ProcessCrash, Timeout


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(10)
    env.run()
    assert env.now == 10


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1)

    env.process(ticker())
    env.run(until=5)
    assert env.now == 5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"
    assert env.now == 3


def test_run_with_no_events_returns_none():
    env = Environment()
    assert env.run() is None


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_processed_in_time_order():
    env = Environment()
    log = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        log.append((env.now, tag))

    env.process(waiter(5, "b"))
    env.process(waiter(2, "a"))
    env.process(waiter(9, "c"))
    env.run()
    assert log == [(2, "a"), (5, "b"), (9, "c")]


def test_fifo_order_at_equal_times():
    env = Environment()
    log = []

    def waiter(tag):
        yield env.timeout(1)
        log.append(tag)

    for tag in "abcd":
        env.process(waiter(tag))
    env.run()
    assert log == list("abcd")


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_event_succeed_value_propagates():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    env.process(waiter())
    ev.succeed("payload")
    env.run()
    assert got == ["payload"]


def test_event_fail_raises_inside_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    env.event().fail(ValueError("nobody listens"))
    with pytest.raises(ProcessCrash):
        env.run()


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError())


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_event_state_properties():
    env = Environment()
    ev = env.event()
    assert not ev.triggered and not ev.processed
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok
    ev.succeed(5)
    assert ev.triggered and not ev.processed
    assert ev.ok and ev.value == 5
    env.run()
    assert ev.processed


def test_process_return_value_is_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 99

    p = env.process(proc())
    env.run()
    assert p.value == 99


def test_process_waits_on_other_process():
    env = Environment()

    def child():
        yield env.timeout(4)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return result + "!"

    p = env.process(parent())
    env.run()
    assert p.value == "child-result!"
    assert env.now == 4


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("x")
    times = []

    def proc():
        yield env.timeout(1)  # let ev be processed first
        val = yield ev
        times.append((env.now, val))

    env.process(proc())
    env.run()
    assert times == [(1, "x")]


def test_yield_non_event_kills_process():
    env = Environment()

    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(ProcessCrash):
        env.run()


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def boomer():
        yield env.timeout(1)
        raise KeyError("k")

    caught = []

    def waiter():
        try:
            yield env.process(boomer())
        except KeyError as exc:
            caught.append(exc)

    env.process(waiter())
    env.run()
    assert len(caught) == 1


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(2)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        got.append((yield env.timeout(2, value="tick")))

    env.process(proc())
    env.run()
    assert got == ["tick"]


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_len_counts_scheduled_events():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    assert len(env) == 2


def test_isolated_environments_do_not_interact():
    env1, env2 = Environment(), Environment()
    env1.timeout(5)
    env2.run()
    assert env2.now == 0.0
    env1.run()
    assert env1.now == 5


def test_nested_simulation_time_interleaving():
    """Two ticker processes at different periods interleave correctly."""
    env = Environment()
    log = []

    def ticker(period, tag, n):
        for _ in range(n):
            yield env.timeout(period)
            log.append((env.now, tag))

    env.process(ticker(2, "fast", 3))
    env.process(ticker(3, "slow", 2))
    env.run()
    # At t=6 the slow tick fires first: its timeout was scheduled at t=3,
    # before the fast ticker's (scheduled at t=4), and ties break FIFO.
    assert log == [(2, "fast"), (3, "slow"), (4, "fast"), (6, "slow"), (6, "fast")]


def test_repr_smoke():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    t = env.timeout(3)
    assert "Timeout" in repr(t)

    def proc():
        yield env.timeout(0)

    p = env.process(proc(), name="worker")
    assert "worker" in repr(p)
    env.run()
    assert "processed" in repr(ev)
