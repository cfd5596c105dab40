"""The simulation environment: clock, event queue, and run loop.

One binary heap ordered by ``(time, priority, insertion order)`` holds
every scheduled entry: the cycle clock's unit ticks, fractional-time
arrivals and timers alike.  Push and pop cost O(log n) in the number
of pending entries, about one per live process or armed timer.  Both
engine tiers share it; the fast tier's span-sleep clock moves time with
:meth:`Environment.advance_to` when nothing is due, so most of its
cycles put no entry on the queue at all.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, Process, ProcessCrash, Timeout


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at an event."""


Infinity = float("inf")


class Environment:
    """Execution environment of a simulation.

    Keeps the current simulation time (:attr:`now`) and a priority queue
    of scheduled events.  Time advances by processing events in
    ``(time, priority, insertion order)`` order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default 0).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        #: The event queue: a heap of ``(time, priority, eid, event)``.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Armed timed callbacks awaiting their entry: (eid, time, event).
        self._armed: deque[tuple[int, float, Event]] = deque()
        self._eid = count()
        # Always-on kernel counters (plain increments; read by
        # :class:`repro.obs.profiler.KernelProfiler`).
        #: Total entries pushed onto the schedule (events, timed callbacks).
        self.events_scheduled = 0
        #: Total entries popped and dispatched by :meth:`step`.
        self.events_fired = 0
        #: High-water mark of the pending-event count.
        self.max_heap_depth = 0

    # -- clock and introspection ------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._armed:
            return self._now
        return self._queue[0][0] if self._queue else Infinity

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue) + len(self._armed)

    def advance_to(self, when: float) -> None:
        """Advance the clock to ``when`` without dispatching an event.

        The batched-wake fast path: a clock process that has proven --
        via :meth:`peek` -- that no event is scheduled at or before
        ``when`` may move time forward directly instead of scheduling
        a wake event and round-tripping through :meth:`step`.  The
        caller owns that proof; dispatch order is unaffected because
        the skipped wake event would have been the only one in the
        window.
        """
        if when < self._now:
            raise ValueError(
                f"when ({when}) must not be before now ({self._now})"
            )
        self._now = when

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0
    ) -> None:
        """Schedule ``event`` to be processed ``delay`` time units from now."""
        self._schedule_at(self._now + delay, priority, event)

    def _schedule_at(self, t: float, priority: int, event: Event) -> None:
        """Push ``event`` at absolute time ``t``."""
        self.events_scheduled += 1
        queue = self._queue
        heappush(queue, (t, priority, next(self._eid), event))
        depth = len(queue)
        if depth > self.max_heap_depth:
            self.max_heap_depth = depth

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` time units from now (one entry).

        Replaces a process ``yield timeout(delay); fn(*args)`` without
        moving an equal-time tie: that timeout took its eid only when
        the process's URGENT ``Initialize`` popped, so the call holds a
        virtual ``(now, URGENT, eid)`` slot and :meth:`step` schedules
        the real entry when that slot's turn comes.  An exception from
        ``fn`` propagates out of :meth:`step` unwrapped.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        call = Event(self)
        call._ok = True
        call.callbacks.append(lambda _: fn(*args))
        self._armed.append((next(self._eid), self._now + delay, call))

    def _arm_due(self) -> None:
        # Only an entry at now that orders before a virtual (now, URGENT,
        # eid) slot holds it back; the NORMAL entries added here never do.
        gate: tuple[float, ...] = self._queue[0][:3] if self._queue else (Infinity,)
        while self._armed and (self._now, PRIORITY_URGENT, self._armed[0][0]) < gate:
            _, when, call = self._armed.popleft()
            self._schedule_at(when, PRIORITY_NORMAL, call)

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event occurring ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event occurring at the *absolute* time ``when``.

        The batched wake primitive: a clock that skips ``k`` provably
        event-free cycles must land exactly on the tick-grid timestamp
        ``t + k`` of its chained unit timeouts.  ``timeout(when - now)``
        schedules at ``now + (when - now)``, which for fractional
        ``now`` need not equal ``when`` in floating point; scheduling
        the absolute value sidesteps the round trip entirely.
        """
        if when < self._now:
            raise ValueError(
                f"when ({when}) must not be before now ({self._now})"
            )
        event = Event(self)
        event._ok = True
        event._value = value
        self._schedule_at(when, PRIORITY_NORMAL, event)
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # -- run loop -----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` if no events are left, and
        :class:`ProcessCrash` if the event failed with nobody handling it.
        """
        if self._armed:
            self._arm_due()
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.events_fired += 1

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event.defused:
            exc = event._value
            raise ProcessCrash(
                f"unhandled failure in {event!r}: {exc!r}"
            ) from exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until ``until``.

        * ``None`` -- run until no events remain.
        * a number -- run until the clock reaches that time.
        * an :class:`Event` -- run until the event is processed and
          return its value (re-raising its exception on failure).
        """
        stop: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                # Already processed: nothing to run.
                if stop._ok:
                    return stop._value
                raise stop._value
            stop.callbacks.append(self._stop_callback)
        else:
            at = float(until)
            if at < self._now:
                raise ValueError(f"until ({at}) must not be before now ({self._now})")
            stop = Event(self)
            stop._ok = True
            stop._value = None
            # Urgent priority: stop before any same-time normal event.
            self._schedule_at(at, -1, stop)
            stop.callbacks.append(self._stop_callback)

        try:
            while True:
                self.step()
        except StopSimulation:
            assert stop is not None
            if stop._ok:
                return stop._value
            raise stop._value from None
        except EmptySchedule:
            if stop is not None and not stop.processed:
                raise RuntimeError(
                    f"no scheduled events left but {stop!r} was not triggered"
                ) from None
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)
