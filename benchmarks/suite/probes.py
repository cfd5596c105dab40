"""Host-time probes for the traced benchmark run.

Every per-layer number of the suite is measured from *outside* the
program: a probe replaces one existing function or method -- for the
lifetime of one benchmark child process -- with a wrapper that counts
its calls and times them, then calls the original.  Nothing under
``src/`` knows the probes exist.

Each probe keeps three aggregates per scope (one scope per simulation
point, or per serve job): ``calls``, ``total`` seconds and ``self``
seconds, where self time is the call's duration minus the time spent in
other probed calls made inside it.  Summing the self times of every
probe that fired inside a phase therefore never counts a second twice,
which is what lets the suite check that the named layers account for
the whole run phase.

Coarse work (a point's setup / warmup / window, a serve job, the
supervisor) is additionally recorded as a span: name, start, end and
the id of the enclosing span.  Spans stay in memory and are written out
by the driver when the run ends.

A probe whose target no longer exists -- an engine refactor renamed or
removed the method -- is listed in :attr:`Tracer.absent` and skipped;
it never raises, so the traced run survives refactors and reports
which of its probes went blind.

Times are read from the reference clock (``refclock.py``), so a probe
never counts a calibration that interrupted the call it times.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from refclock import clock


class Tracer:
    """Installs probes, aggregates them per scope, records spans."""

    def __init__(self) -> None:
        #: Targets that could not be resolved (``"module:Qual.name"``).
        self.absent: list[str] = []
        #: scope name -> probe key -> [calls, total_s, self_s, size].
        self.scopes: dict[str, dict[str, list]] = {}
        #: Finished spans, in end order.
        self.spans: list[dict] = []
        #: scope name -> objects captured by ``capture`` probes (the
        #: engines a point built), for end-of-point counter reads.
        self.captures: dict[str, list] = {}
        self._current: dict[str, list] = self.scopes.setdefault("", {})
        self._captured: list = self.captures.setdefault("", [])
        self._stack: list[float] = []
        #: (id, name, parent id) of the open spans, innermost last.
        self._open: list[tuple] = []
        self._undo: list[tuple] = []

    # ---------------------------------------------------------- probes

    def probe(
        self,
        target: str,
        key: str,
        *,
        size: Optional[Callable[[tuple], int]] = None,
        before: Optional[Callable[[tuple], None]] = None,
        capture: bool = False,
        span: bool = False,
    ) -> None:
        """Wrap ``target`` (``"module:Qual.name"``) under ``key``.

        ``size(args)`` adds to the probe's size aggregate (e.g. worms
        per ``plan_moves`` call); ``before(args)`` runs untimed before
        the call; ``capture`` records the first argument (``self``) in
        the current scope's :attr:`captures` after the call; ``span``
        records a span per call.  A target that does not resolve is
        listed under :attr:`absent` instead.
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = qualname.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        own = attr in vars(owner)
        wrapper = self._wrap(original, key, size, before, capture, span)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, own))

    def _wrap(self, fn, key, size, before, capture, span):
        tracer = self
        stack = self._stack

        def probed(*args, **kwargs):
            if before is not None:
                before(args)
            if span:
                tracer._enter(key)
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = tracer._current.get(key)
                if rec is None:
                    rec = tracer._current[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if size is not None:
                    rec[3] += size(args)
                if capture:
                    tracer._captured.append(args[0])
                if span:
                    tracer._exit(t0, t0 + dt)

        return functools.wraps(fn)(probed)

    def close(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ---------------------------------------------------------- scopes

    def scope(self, name: str) -> None:
        """Direct subsequent probe aggregates to scope ``name``."""
        self._current = self.scopes.setdefault(name, {})
        self._captured = self.captures.setdefault(name, [])

    def add(self, key: str, amount: int) -> None:
        """Count one occurrence of ``amount`` under ``key`` (no timing)."""
        rec = self._current.get(key)
        if rec is None:
            rec = self._current[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[3] += amount

    def total(self, key: str, field: int, scopes=None) -> float:
        """Sum one aggregate field of ``key`` over ``scopes`` (default
        all); fields are 0 calls, 1 total s, 2 self s, 3 size."""
        names = self.scopes if scopes is None else scopes
        return sum(
            self.scopes[name][key][field]
            for name in names
            if key in self.scopes.get(name, {})
        )

    # ----------------------------------------------------------- spans

    def _enter(self, name: str) -> None:
        # Every span ever opened is either finished or still open, so
        # this is its creation index: unique.
        sid = len(self.spans) + len(self._open)
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, name, parent))

    def _exit(self, start: float, end: float) -> None:
        sid, name, parent = self._open.pop()
        self.spans.append(
            {"id": sid, "parent": parent, "name": name,
             "start": start, "end": end}
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one coarse span."""
        self._enter(name)
        t0 = clock()
        try:
            yield
        finally:
            self._exit(t0, clock())
