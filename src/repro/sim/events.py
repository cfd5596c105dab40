"""Event primitives for the DES kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes wait
on events by ``yield``-ing them; when the event is *triggered* (succeeds
or fails), every registered callback runs and waiting processes resume.

The lifecycle of an event is::

    untriggered --> triggered (scheduled) --> processed (callbacks ran)

Events may *succeed* with a value or *fail* with an exception.  A failed
event re-raises its exception inside every process that waits on it,
unless the failure was explicitly marked as *defused* (e.g. because a
waiting process already caught it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Environment

# Scheduling priorities: lower value runs earlier at equal times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_PENDING = object()  #: sentinel for "no value yet"


class ProcessCrash(RuntimeError):
    """Raised by :meth:`Environment.run` when a process dies unhandled."""


class Event:
    """A one-shot occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The environment the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks invoked (with the event) once the event is processed.
        #: ``None`` once the event has been processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: A failed event whose exception was handled elsewhere sets this
        #: to avoid crashing the environment.
        self.defused = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise AttributeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise AttributeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to occur now with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to occur now, failing with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if self.triggered:
            return
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that occurs ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Initialize(Event):
    """Internal: starts a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=PRIORITY_URGENT)


class Process(Event):
    """Wraps a generator; the event triggers when the generator finishes.

    The generator yields :class:`Event` instances; it is resumed with the
    event's value (or the event's exception is thrown into it).  The
    value of a ``StopIteration`` / ``return`` becomes the process value.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not exited."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                # Misuse: yielded a non-event.  Kill the process loudly.
                self._ok = False
                self._value = TypeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Not yet processed: register and go to sleep.
                next_event.callbacks.append(self._resume)
                break
            # Already processed: continue immediately with its outcome.
            event = next_event

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"
