"""Sim-kernel profiling: how hard is the event kernel itself working?

The :class:`repro.sim.core.Environment` maintains three always-on
counters (plain integer increments, no branches):

* ``events_scheduled`` -- total schedule entries pushed;
* ``events_fired`` -- total entries popped and dispatched;
* ``max_heap_depth`` -- high-water mark of the pending-event heap.

:class:`KernelProfiler` snapshots those counters plus the wall clock
around an observation window and derives the roofline numbers the
ROADMAP's "as fast as the hardware allows" push needs: events/s,
cycles/s, and **wall-microseconds per simulated microsecond** (the
slowdown factor vs. the modelled hardware).  It also reports how many
cycles the engine's span-sleep clock credited without executing them
(``cycles_skipped``, ``span_skip_ratio``) and its channel-sweep path
counters: blocked worms parked (``worms_parked``), flits moved by
following lanes (``lanes_followed``), channel visits
(``sweep_visits``), the visits to multi-lane wires that found no lane
ready (``sweep_idle``; on the VMIN every visit that moved no flit) and
the shared wires that left the sweep because every owner sleeps
(``wires_slept``), and its Phase A counters: service-order
Fisher-Yates draws (``shuffle_draws``) and full allocation scans
(``alloc_scans``).  A hot bus sink switches span sleep, free-run and
following off, so the engine runs the exact-event-order channel sweep;
the profiler records a hot sink attached at the window's start or end
(``hot_sink``) and says so in its report.

This is measurement of the *simulator*, not the simulated network --
the wall-clock reads are confined to this module and are exempt from
the RPV002 determinism lint (they never influence simulation state).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.wormhole.engine import WormholeEngine

#: Microseconds per simulation cycle (the paper's 20 flits/us).
CYCLE_MICROSECONDS = 0.05

#: Engine path counters the profiler reports as window deltas.
ENGINE_COUNTERS = (
    "cycles_skipped", "worms_parked", "lanes_followed", "sweep_visits",
    "sweep_idle", "wires_slept", "shuffle_draws", "alloc_scans",
)


#: The report line that flags a window profiled under a hot bus sink.
_HOT_NOTE = (
    "  hot sink attached: exact-order channel sweep "
    "(no span sleep, free-run or following)\n"
)


class KernelProfiler:
    """Deltas of the kernel counters + wall clock over a window.

    ``events_scheduled``/``events_fired`` count schedule entries: a
    process pays one to start, one per timeout it waits on and one to
    finish; a timed callback (``Environment.call_later``) pays one.
    """

    def __init__(self) -> None:
        self.engine: Optional["WormholeEngine"] = None
        self._t0_wall = 0.0
        self._t0_sim = 0.0
        self._t0_scheduled = 0
        self._t0_fired = 0
        self._t0_cycles = 0
        self._t0_counters: dict[str, int] = {}
        self._wall: Optional[float] = None
        self._sim: Optional[float] = None
        self._scheduled: Optional[int] = None
        self._fired: Optional[int] = None
        self._cycles: Optional[int] = None
        self._counters: Optional[dict[str, int]] = None
        #: Whether a hot bus sink was attached at the window's start or
        #: end (see :attr:`hot_sink`).
        self._hot = False

    # -- lifecycle ---------------------------------------------------------

    def install(self, engine: "WormholeEngine") -> "KernelProfiler":
        """Snapshot the baseline (call at window start)."""
        self.engine = engine
        env = engine.env
        self._t0_wall = time.perf_counter()  # lint-sim: ignore[RPV002] -- profiling harness, not sim state
        self._t0_sim = env.now
        self._t0_scheduled = env.events_scheduled
        self._t0_fired = env.events_fired
        self._t0_cycles = engine.cycles_run
        self._t0_counters = {
            name: getattr(engine, name) for name in ENGINE_COUNTERS
        }
        self._hot = engine.bus.hot
        return self

    def finish(self) -> "KernelProfiler":
        """Freeze the window (idempotent; keeps the first snapshot)."""
        if self._wall is not None:
            return self
        assert self.engine is not None, "install() before finish()"
        env = self.engine.env
        self._wall = time.perf_counter() - self._t0_wall  # lint-sim: ignore[RPV002] -- profiling harness, not sim state
        self._sim = env.now - self._t0_sim
        self._scheduled = env.events_scheduled - self._t0_scheduled
        self._fired = env.events_fired - self._t0_fired
        self._cycles = self.engine.cycles_run - self._t0_cycles
        self._counters = {name: self._counter(name) for name in ENGINE_COUNTERS}
        self._hot = self._hot or self.engine.bus.hot
        return self

    # -- live reads (finish() freezes them) --------------------------------

    @property
    def wall_seconds(self) -> float:
        if self._wall is not None:
            return self._wall
        return time.perf_counter() - self._t0_wall  # lint-sim: ignore[RPV002] -- profiling harness, not sim state

    @property
    def sim_cycles_elapsed(self) -> float:
        if self._sim is not None:
            return self._sim
        assert self.engine is not None
        return self.engine.env.now - self._t0_sim

    @property
    def events_scheduled(self) -> int:
        if self._scheduled is not None:
            return self._scheduled
        assert self.engine is not None
        return self.engine.env.events_scheduled - self._t0_scheduled

    @property
    def events_fired(self) -> int:
        if self._fired is not None:
            return self._fired
        assert self.engine is not None
        return self.engine.env.events_fired - self._t0_fired

    @property
    def cycles_run(self) -> int:
        if self._cycles is not None:
            return self._cycles
        assert self.engine is not None
        return self.engine.cycles_run - self._t0_cycles

    def _counter(self, name: str) -> int:
        """Window delta of one of :data:`ENGINE_COUNTERS`."""
        if self._counters is not None:
            return self._counters[name]
        assert self.engine is not None
        return getattr(self.engine, name) - self._t0_counters[name]

    @property
    def cycles_skipped(self) -> int:
        """Cycles the span-sleep clock credited without a tick."""
        return self._counter("cycles_skipped")

    @property
    def worms_parked(self) -> int:
        """Blocked worms the channel sweep took off its active list."""
        return self._counter("worms_parked")

    @property
    def lanes_followed(self) -> int:
        """Flits following lanes moved inside the channel sweep."""
        return self._counter("lanes_followed")

    @property
    def sweep_visits(self) -> int:
        """Active-list entries the channel sweep visited."""
        return self._counter("sweep_visits")

    @property
    def sweep_idle(self) -> int:
        """Channel-sweep visits to multi-lane wires that found no lane
        ready (single-lane wires are not counted)."""
        return self._counter("sweep_idle")

    @property
    def wires_slept(self) -> int:
        """Shared wires that left the sweep because every owner sleeps."""
        return self._counter("wires_slept")

    @property
    def shuffle_draws(self) -> int:
        """Fisher-Yates draws of Phase A's service-order shuffle."""
        return self._counter("shuffle_draws")

    @property
    def alloc_scans(self) -> int:
        """Full Phase A allocation scans (all-blocked exits excluded)."""
        return self._counter("alloc_scans")

    @property
    def hot_sink(self) -> bool:
        """A hot bus sink was attached at the window's start or end.

        The engine then ran the exact-event-order channel sweep, with
        span sleep, free-run and following off, so ``cycles_skipped``
        and ``lanes_followed`` read 0 on a path untraced runs never
        take.
        """
        if self._wall is not None or self.engine is None:
            return self._hot
        return self._hot or self.engine.bus.hot

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event heap (whole run, not a delta)."""
        assert self.engine is not None
        return self.engine.env.max_heap_depth

    # -- derived rates -----------------------------------------------------

    @property
    def sim_microseconds(self) -> float:
        """Simulated time covered, in the paper's microseconds."""
        return self.sim_cycles_elapsed * CYCLE_MICROSECONDS

    @property
    def events_per_second(self) -> float:
        wall = self.wall_seconds
        return self.events_fired / wall if wall > 0 else 0.0

    @property
    def cycles_per_second(self) -> float:
        wall = self.wall_seconds
        return self.cycles_run / wall if wall > 0 else 0.0

    @property
    def span_skip_ratio(self) -> float:
        """Share of the window's cycles that were never executed."""
        cycles = self.cycles_run
        return self.cycles_skipped / cycles if cycles else 0.0

    @property
    def wall_us_per_sim_us(self) -> float:
        """Slowdown factor: wall microseconds spent per simulated us."""
        sim_us = self.sim_microseconds
        return (self.wall_seconds * 1e6) / sim_us if sim_us > 0 else 0.0

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "sim_cycles": self.cycles_run,
            "cycles_skipped": self.cycles_skipped,
            "span_skip_ratio": self.span_skip_ratio,
            "worms_parked": self.worms_parked,
            "lanes_followed": self.lanes_followed,
            "sweep_visits": self.sweep_visits,
            "sweep_idle": self.sweep_idle,
            "wires_slept": self.wires_slept,
            "shuffle_draws": self.shuffle_draws,
            "alloc_scans": self.alloc_scans,
            "hot_sink": self.hot_sink,
            "sim_microseconds": self.sim_microseconds,
            "events_scheduled": self.events_scheduled,
            "events_fired": self.events_fired,
            "max_heap_depth": self.max_heap_depth,
            "events_per_second": self.events_per_second,
            "cycles_per_second": self.cycles_per_second,
            "wall_us_per_sim_us": self.wall_us_per_sim_us,
        }

    def render(self) -> str:
        return (
            "kernel profile:\n"
            f"  wall time          {self.wall_seconds:12.3f} s\n"
            f"  sim time           {self.sim_microseconds:12.1f} us "
            f"({self.cycles_run} cycles)\n"
            f"  cycles skipped     {self.cycles_skipped:12d} "
            f"({self.span_skip_ratio:.1%} span sleep)\n"
            f"  worms parked       {self.worms_parked:12d}\n"
            f"  lanes followed     {self.lanes_followed:12d}\n"
            f"  sweep visits       {self.sweep_visits:12d}\n"
            f"  idle visits        {self.sweep_idle:12d}\n"
            f"  wires slept        {self.wires_slept:12d}\n"
            f"  shuffle draws      {self.shuffle_draws:12d}\n"
            f"  allocation scans   {self.alloc_scans:12d}\n"
            f"{_HOT_NOTE if self.hot_sink else ''}"
            f"  events scheduled   {self.events_scheduled:12d}\n"
            f"  events fired       {self.events_fired:12d} "
            f"({self.events_per_second:,.0f}/s)\n"
            f"  max heap depth     {self.max_heap_depth:12d}\n"
            f"  cycle rate         {self.cycles_per_second:12,.0f} cycles/s\n"
            f"  slowdown           {self.wall_us_per_sim_us:12,.0f} "
            f"wall-us per sim-us"
        )

    def __repr__(self) -> str:
        return (
            f"<KernelProfiler cycles={self.cycles_run} "
            f"events={self.events_fired} wall={self.wall_seconds:.3f}s>"
        )
