"""Reference clock: host time corrected for the machine's speed of the moment.

A benchmark machine shared with other tenants does not run at one
speed.  On the 2-vCPU machine the suite was calibrated on, the same
simulation point took 0.28 s for a while and then 0.45 s for a minute,
with every second of it on the CPU: the core itself slowed down, so
neither more repetitions nor process CPU time removes the difference.
At other moments the hypervisor takes the virtual CPU away for a while
(steal time), which wall time counts and process CPU time does not.

This clock handles both.  Between calibrations it advances with a *base*
clock chosen by the caller: process CPU time where all the work happens
in this process, so stolen time is not counted, or wall time where the
work happens in other processes the caller waits for.  Every
``PERIOD_S`` of wall time a timer signal interrupts the program and
runs a fixed pure-Python calibration kernel, timed in this thread's CPU
time (``SLICES`` slices, the fastest one counts).  The base time since
the previous sample is converted at the speed that sample measured, and
the calibration itself is left out::

    reference seconds = base seconds * REF_SLICE_S / (slice time now)

so a reading is the time the program would have taken had the machine
run the kernel at ``REF_SLICE_S`` a slice throughout -- this machine on
a quiet day.  A program change that saves a tenth of its host time saves
a tenth of its reference time, whatever the neighbours do.

The kernel does the interpreter's everyday work -- attribute loads and
stores on slotted objects, pointer chasing, dict reads and writes of
small ints, method calls -- and allocates nothing the garbage collector
tracks, so calibrating never advances the program's GC schedule.

Until :meth:`RefClock.start` is called the clock reads plain wall time.
Only the process that starts it is corrected: forked workers inherit
the handler but not the timer.
"""

from __future__ import annotations

import signal
import time

wall = time.perf_counter  # lint-sim: ignore[RPV002] -- harness wall time
#: CPU seconds of this process, all threads (stolen time excluded).
cpu = time.process_time
_thread_cpu = time.thread_time

#: Wall seconds between calibrations.
PERIOD_S = 0.02
#: Calibration slices per sample; the fastest one is the sample.
SLICES = 3
#: Kernel iterations per slice (about 0.3 ms).
SLICE_ITERS = 1200
#: CPU seconds of one slice at the reference speed: the fastest slices
#: measured on the 2-vCPU x86-64 machine the bounds were calibrated on,
#: with CPython 3.11.
REF_SLICE_S = 2.6e-4


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self) -> None:
        self.value = 0
        self.next = self

    def bump(self, k: int) -> bool:
        self.value = (self.value + k) & 0xFFFF
        return self.value & 1 == 0


def _ring(n: int) -> list:
    cells = [_Cell() for _ in range(n)]
    for i, cell in enumerate(cells):
        cell.next = cells[(i * 7 + 3) % n]
    return cells


_CELLS = _ring(64)
_TABLE = dict.fromkeys(range(128), 0)


def kernel(n: int, cell=_CELLS[0], table=_TABLE) -> int:
    """The calibration work: ``n`` rounds of interpreter-bound steps."""
    acc = 0
    for i in range(n):
        if cell.bump(i & 7):
            acc += 1
        acc ^= cell.value
        cell = cell.next
        k = i & 127
        table[k] = (table[k] + acc) & 0xFF
    return acc


def slice_seconds() -> float:
    """One calibration sample: CPU seconds of the fastest slice."""
    best = float("inf")
    for _ in range(SLICES):
        t0 = _thread_cpu()
        kernel(SLICE_ITERS)
        best = min(best, _thread_cpu() - t0)
    return best


class RefClock:
    """A monotonic clock in reference seconds (see the module docs)."""

    def __init__(self) -> None:
        self._base = wall
        # (reference seconds at ``mark``, base time ``mark`` at the end
        # of the last calibration, reference seconds per base second
        # since then) -- one tuple, so a reader sees one consistent state.
        self._state = (0.0, wall(), 1.0)
        self._busy = False
        self._previous = signal.SIG_DFL
        #: Calibrations made, and the base seconds they took.
        self.samples = 0
        self.calibrating_s = 0.0
        #: Sum of the measured rates, for :attr:`mean_rate`.
        self._rates = 0.0

    def now(self) -> float:
        """Reference seconds since the clock was created or started."""
        while True:
            state = self._state
            t = self._base()
            # A calibration between the two reads moved the state on:
            # read again rather than mix two states.
            if self._state is state:
                acc, mark, rate = state
                return acc + (t - mark) * rate

    @property
    def mean_rate(self) -> float:
        """Mean reference seconds per base second over the samples (below
        1 when the machine ran slower than the reference)."""
        return self._rates / self.samples if self.samples else 1.0

    def start(self, base=wall) -> None:
        """Restart at 0 on ``base`` (:data:`wall` or :data:`cpu`);
        calibrate now, then every ``PERIOD_S`` of wall time."""
        self._base = base
        self._state = (0.0, base(), 1.0)
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop calibrating; the clock keeps the last measured rate."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._calibrate()

    def _calibrate(self) -> None:
        self._busy = True
        t0 = self._base()
        acc, mark, rate = self._state
        acc += (t0 - mark) * rate
        rate = REF_SLICE_S / slice_seconds()
        t1 = self._base()
        self._state = (acc, t1, rate)
        self.samples += 1
        self.calibrating_s += t1 - t0
        self._rates += rate
        self._busy = False


#: The clock of this process; ``clock()`` reads it.
CLOCK = RefClock()
clock = CLOCK.now
