"""The shared-resource primitive built on the event kernel.

:class:`Resource` follows the SimPy model: ``capacity`` slots;
processes ``yield resource.request()`` to acquire and call
``resource.release(req)`` (or use the request as a context manager) to
free a slot.  Waiters are granted in FIFO order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """Acquisition event for :class:`Resource`; usable as context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A resource with a fixed number of usage slots."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event triggers when granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by ``request``; grants the next waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(f"{request!r} does not hold {self!r}") from None
        self._grant_next()

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed()

    def _cancel(self, request: Request) -> None:
        if request in self.queue:
            self.queue.remove(request)
        elif request in self.users:
            self.release(request)
