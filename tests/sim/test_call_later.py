"""``Environment.call_later`` fires where a one-shot timer process would.

A one-shot timer used to be a whole process, ``yield timeout(delay);
fn(*args)``: an URGENT ``Initialize``, the timeout and a no-op finish
event.  ``call_later`` is one schedule entry.  The timeout of the
process form takes its sequence number only when the ``Initialize``
pops, so a naive ``now + delay`` entry would jump equal-time ties (a
1-cycle timer armed mid-tick would fire before the clock's next tick).

Random programs -- integral, fractional and zero delays, same-instant
ties, timers armed from inside timers, ``run(until=t)`` stops on arm
instants and long-lived processes -- run once per form on the kernel's
binary-heap event queue; the dispatch log and the ``peek()``/``len()``
seen at every stop must not depend on the form.  The process form's
no-op finish event is the one thing not reproduced (see the test that
pins it).
"""

from __future__ import annotations

from itertools import count

import pytest

from repro.sim import Environment

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FORMS = ("call_later", "process")

#: Few distinct values, so equal-time ties are the common case.
delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 3.0, 1024.0, 1500.25])
times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 7.0])

#: A timer: its delay and the timers it arms when it fires.
timers = st.recursive(
    st.tuples(delays, st.just(())),
    lambda inner: st.tuples(delays, st.lists(inner, max_size=3).map(tuple)),
    max_leaves=8,
)

programs = st.fixed_dictionaries(
    {
        # (arm time, armed by the driver process or an event callback, timer)
        "arms": st.lists(
            st.tuples(times, st.booleans(), timers), min_size=1, max_size=8
        ),
        # A unit-period clock: ticks it runs, and which ticks arm a timer.
        "ticks": st.integers(0, 8),
        "tick_arms": st.dictionaries(st.integers(0, 8), timers, max_size=3),
        # run(until=t) stops; True also arms a timer at the stop instant.
        "stops": st.lists(st.tuples(times, st.booleans()), max_size=4),
    }
)


def arm(env: Environment, form: str, delay: float, fn, *args) -> None:
    if form == "call_later":
        env.call_later(delay, fn, *args)
        return

    def timer():
        yield env.timeout(delay)
        fn(*args)

    env.process(timer())


def execute(program: dict, form: str) -> list:
    env = Environment()
    log: list = []
    labels = count()

    def arm_timer(spec) -> None:
        delay, children = spec
        arm(env, form, delay, fire, next(labels), children)

    def fire(label: int, children) -> None:
        log.append(("fire", label, env.now))
        for child in children:
            arm_timer(child)

    def driver(arms):
        for at, spec in arms:
            yield env.timeout(at - env.now)
            arm_timer(spec)

    def clock(ticks, tick_arms):
        for i in range(ticks):
            log.append(("tick", i, env.now))
            if i in tick_arms:
                arm_timer(tick_arms[i])
            yield env.timeout(1.0)

    by_driver = sorted((at, spec) for at, driven, spec in program["arms"] if driven)
    env.process(driver(by_driver))
    for at, driven, spec in program["arms"]:
        if not driven:
            env.timeout(at).callbacks.append(lambda _e, spec=spec: arm_timer(spec))
    env.process(clock(program["ticks"], program["tick_arms"]))
    for at, arm_here in sorted(program["stops"]):
        if at < env.now:
            continue
        env.run(until=at)
        log.append(("stop", env.now, env.peek(), len(env)))
        if arm_here:
            arm_timer((1.0, ((0.0, ()),)))
            log.append(("armed", env.now, env.peek(), len(env)))
            env.run(until=env.now)  # the priority -1 stop still wins
            log.append(("again", env.now, env.peek(), len(env)))
    env.run()
    log.append(("end", env.now, env.peek(), len(env)))
    return log


# One case: the kernel's only event queue is a binary heap.
@pytest.mark.parametrize("queue", ["heap"])
@given(program=programs)
@settings(max_examples=150, deadline=None)
def test_call_later_replays_the_timer_process(queue, program):
    assert execute(program, "call_later") == execute(program, "process")


def test_one_cycle_timer_fires_after_the_tick_queued_behind_it():
    """The trap: armed mid-tick, a 1-cycle timer's entry is younger
    than the clock's next tick, exactly as the process form's was."""
    for form in FORMS:
        env = Environment()
        log = []

        def clock():
            for _ in range(3):
                log.append(("tick", env.now))
                if env.now <= 0:
                    arm(env, form, 1.0, lambda: log.append(("timer", env.now)))
                yield env.timeout(1.0)

        env.process(clock())
        env.run()
        assert log == [("tick", 0.0), ("tick", 1.0), ("timer", 1.0), ("tick", 2.0)]


def test_no_finish_event_after_the_timer_fires():
    """The one difference from the process form: that form left a
    no-op finish entry at the fire instant, so a process resuming at
    the same instant saw ``peek() == now``; a timed callback leaves
    nothing behind and ``peek()`` shows the next real entry."""
    seen = {}
    for form in FORMS:
        env = Environment()
        arm(env, form, 2.0, lambda: None)
        env.timeout(9.0)

        def observer():
            yield env.timeout(2.0)  # queued after the timer: resumes second
            seen[form] = env.peek()

        env.process(observer())
        env.run()
    assert seen == {"process": 2.0, "call_later": 9.0}


def test_armed_callback_pins_peek_and_counts_in_len():
    env = Environment()
    env.timeout(5.0)
    env.call_later(3.0, lambda: None)
    assert env.peek() == 0.0  # the virtual slot sits at now
    assert len(env) == 2
    env.step()  # gives the timer its entry, then dispatches it at t=3
    assert env.now == 3.0
    assert env.peek() == 5.0
    assert len(env) == 1


def test_one_entry_per_timer():
    env = Environment()
    fired = []
    for i in range(10):
        env.call_later(float(i), fired.append, i)
    env.run()
    assert fired == list(range(10))
    assert env.events_scheduled == env.events_fired == 10


def test_negative_delay_rejected():
    with pytest.raises(ValueError, match="negative delay"):
        Environment().call_later(-1.0, print)


def test_callback_exception_propagates():
    env = Environment()

    def boom():
        raise KeyError("timer")

    env.call_later(2.0, boom)
    with pytest.raises(KeyError):
        env.run()
    assert env.now == 2.0
