"""Edge-case tests for the DES kernel: trigger(), late waits, chains."""

import pytest

from repro.sim import Environment, Event, ProcessCrash


def test_event_trigger_copies_state():
    env = Environment()
    src = env.event()
    dst = env.event()
    src.callbacks.append(dst.trigger)
    src.succeed("payload")
    env.run()
    assert dst.processed and dst.ok and dst.value == "payload"


def test_event_trigger_copies_failure():
    env = Environment()
    src = env.event()
    dst = env.event()
    dst.defused = True  # we only inspect, nobody handles
    src.callbacks.append(dst.trigger)
    src.defused = True
    src.fail(ValueError("x"))
    env.run()
    assert dst.processed and not dst.ok
    assert isinstance(dst.value, ValueError)


def test_event_trigger_is_noop_when_already_triggered():
    env = Environment()
    src = env.event()
    dst = env.event()
    dst.succeed("mine")
    src.callbacks.append(dst.trigger)
    src.succeed("theirs")
    env.run()
    assert dst.value == "mine"


def test_process_chain_of_immediate_events():
    """A process yielding a chain of already-processed events never
    re-enters the scheduler (the _resume fast loop)."""
    env = Environment()
    done = []
    pre = [env.event() for _ in range(5)]
    for i, ev in enumerate(pre):
        ev.succeed(i)
    env.run()  # process them all

    def proc():
        total = 0
        for ev in pre:
            total += yield ev
        done.append((env.now, total))

    env.process(proc())
    env.run()
    assert done == [(0, 10)]


def test_waiting_on_already_failed_event_raises_in_process():
    env = Environment()
    bad = env.event()
    bad.defused = True
    bad.fail(KeyError("gone"))
    env.run()
    caught = []

    def proc():
        try:
            yield bad
        except KeyError:
            caught.append(True)

    env.process(proc())
    env.run()
    assert caught == [True]


def test_crash_propagates_original_exception_as_cause():
    env = Environment()

    def boom():
        yield env.timeout(1)
        raise ZeroDivisionError("kaboom")

    env.process(boom())
    with pytest.raises(ProcessCrash) as excinfo:
        env.run()
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)


def test_two_processes_wait_on_same_event():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(tag):
        val = yield gate
        woken.append((tag, val))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def opener():
        yield env.timeout(5)
        gate.succeed("open")

    env.process(opener())
    env.run()
    assert sorted(woken) == [("a", "open"), ("b", "open")]


def test_schedule_with_delay_direct():
    env = Environment()
    ev = Event(env)
    ev._ok = True
    ev._value = "late"
    env.schedule(ev, delay=7)
    seen = []
    ev.callbacks.append(lambda e: seen.append((env.now, e.value)))
    env.run()
    assert seen == [(7, "late")]
