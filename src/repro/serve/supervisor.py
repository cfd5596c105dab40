"""Supervised worker pool: liveness, retry, quarantine.

``concurrent.futures`` cannot express the failure policy the sweep
service needs (a SIGKILLed worker poisons a ``ProcessPoolExecutor``
wholesale), so the supervisor manages ``multiprocessing.Process``
workers directly.  Each worker receives its points and reports its
answers over its own duplex pipe, and the parent hands a point only to
an idle worker.  No queue, lock or feeder thread is shared between
workers, so a worker killed at any instant -- computing, sending, or
idle in its ``recv`` -- silences nobody but itself:

* **heartbeat liveness** -- each worker owns a
  :class:`repro.obs.progress.HeartbeatSlot` in a shared array and beats
  it from the simulation loop's cooperative check, so the parent can
  tell a *slow* point (recent beat) from a *wedged* worker (stale
  beat).  The parent beats the slot when it hands the worker a point,
  so the stall clock starts at the dispatch.  Wedged workers are killed
  and their point re-dispatched;
* **death recovery** -- a worker that dies (SIGKILL, OOM, segfault) is
  detected by its pipe's EOF and ``Process.is_alive()``, respawned into
  the same slot, and its in-flight point (if it had one) retried;
* **retry with backoff** -- failed attempts re-dispatch after
  :meth:`repro.faults.recovery.RetryPolicy.nominal_delay` (the same
  schedule the in-simulation source retry uses, in wall seconds);
* **poison-point quarantine** -- a point that fails
  ``retry.max_attempts`` times settles as ``failed`` instead of
  wedging the job: the service reports it in the manifest's
  ``incomplete`` list (graceful degradation, not job failure);
* **cooperative deadlines** -- ``point_timeout`` arms the PR 5
  monotonic per-point deadline inside each worker, converting runaway
  points into ordinary retryable errors.

A point is never dispatched again while a worker runs it: it is a
pure function of its spec, so a second copy could only repeat the same
work.  The supervisor is synchronous (the service calls it from
:meth:`~repro.serve.service.SweepService.run_job_sync`);
:meth:`WorkerSupervisor.request_stop` is thread- and signal-safe and
turns the remaining points into ``interrupted`` outcomes, which a
resumed job recomputes.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_for
from typing import Callable, Optional, Sequence

from repro.experiments.runner import set_point_deadline, set_point_heartbeat
from repro.faults.recovery import RetryPolicy
from repro.obs.progress import HeartbeatSlot

#: Wall-seconds-scale backoff for worker re-dispatch (RetryPolicy's
#: defaults are simulation-cycle-scale; the schedule shape is shared).
DEFAULT_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.05, factor=2.0, max_delay=2.0, jitter=0.0
)

#: Seconds the supervision loop waits for a worker's answer before it
#: sweeps liveness and due retries again.
POLL_INTERVAL = 0.05

#: Outcome events the ``on_event`` callback can receive.
EVENT_KINDS = ("dispatch", "retry", "poison", "worker_death", "stall_kill")


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs of the supervised pool."""

    workers: int = 2
    retry: RetryPolicy = DEFAULT_RETRY
    point_timeout: Optional[float] = None   # cooperative deadline, seconds
    stall_after: float = 60.0               # stale-heartbeat kill threshold

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.stall_after <= 0:
            raise ValueError("stall_after must be positive")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError("point_timeout must be positive")


@dataclass
class PointOutcome:
    """How one point settled."""

    key: str
    status: str                      # "ok" | "failed" | "interrupted"
    payload: Optional[dict] = None   # present iff status == "ok"
    error: Optional[str] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SupervisorReport:
    """Everything one :meth:`WorkerSupervisor.run` call did."""

    outcomes: dict[str, PointOutcome] = field(default_factory=dict)
    retries: int = 0
    worker_deaths: int = 0
    stall_kills: int = 0
    elapsed_s: float = 0.0
    interrupted: bool = False

    @property
    def results(self) -> dict[str, dict]:
        return {k: o.payload for k, o in self.outcomes.items() if o.ok}

    @property
    def failures(self) -> dict[str, str]:
        return {
            k: o.error or o.status
            for k, o in self.outcomes.items()
            if not o.ok
        }

    @property
    def complete(self) -> bool:
        return all(o.ok for o in self.outcomes.values())

    def counters(self) -> dict:
        return {
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "stall_kills": self.stall_kills,
            "interrupted": self.interrupted,
        }


def _format_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_main(
    worker_id: int,
    conn: Connection,
    beats: Sequence[float],
    runner: Callable[[object], object],
    point_timeout: Optional[float],
) -> None:
    """One worker process: run points from its pipe until ``None``.

    Protocol on the worker's own duplex ``conn``: the parent sends
    ``(key, task)`` only while the worker is idle, and the worker
    answers ``("done", key, payload)`` or ``("error", key, error_str)``.
    Sends are synchronous, so nothing is left half-written when the
    point kills the worker.
    """
    slot = HeartbeatSlot(beats, worker_id)
    while True:
        item = conn.recv()
        if item is None:
            return
        key, task = item
        set_point_heartbeat(slot.beat)
        if point_timeout is not None:
            set_point_deadline(point_timeout)
        try:
            payload = runner(task)
        except BaseException as exc:  # report everything; parent decides
            conn.send(("error", key, _format_error(exc)))
        else:
            conn.send(("done", key, payload))
        finally:
            set_point_deadline(None)
            set_point_heartbeat(None)


@dataclass
class _Worker:
    """Parent-side view of one worker slot."""

    index: int
    proc: multiprocessing.Process
    conn: Connection                 # parent end of the worker's pipe
    current: Optional[str] = None    # key in flight on this worker


class WorkerSupervisor:
    """Runs keyed tasks across supervised workers (see module doc)."""

    def __init__(
        self,
        runner: Callable,
        policy: SupervisePolicy = SupervisePolicy(),
        on_result: Optional[Callable[[str, PointOutcome], None]] = None,
        on_event: Optional[Callable[..., None]] = None,
    ) -> None:
        self.runner = runner
        self.policy = policy
        self.on_result = on_result
        self.on_event = on_event
        self._stop = False

    # ------------------------------------------------------------- control

    def request_stop(self) -> None:
        """Ask the running supervision loop to wind down (signal-safe).

        Unsettled points become ``interrupted`` outcomes; a resumed job
        recomputes exactly those.
        """
        self._stop = True

    def _event(self, kind: str, **info: object) -> None:
        if self.on_event is not None:
            self.on_event(kind, **info)

    # ----------------------------------------------------------------- run

    def run(self, tasks: Sequence[tuple[str, object]]) -> SupervisorReport:
        """Execute every (key, task) pair; returns the settled report.

        Keys must be unique (the service dedupes before dispatch); the
        tasks and the runner must be picklable.
        """
        t0 = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
        self._stop = False
        report = SupervisorReport()
        tasks_by_key = dict(tasks)
        if len(tasks_by_key) != len(tasks):
            raise ValueError("duplicate task keys; dedupe before dispatch")
        if not tasks_by_key:
            return report

        policy = self.policy
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            ctx = multiprocessing.get_context("spawn")
        # A short job forks no idle workers: one per task at most.
        n_workers = min(policy.workers, len(tasks_by_key))
        beats = ctx.RawArray("d", n_workers)
        # The parent never touches the raw array directly (RPV009):
        # slot accessors keep the liveness protocol -- never-beaten
        # sentinel, monotonic source, age semantics -- in one place.
        slots = [HeartbeatSlot(beats, i) for i in range(n_workers)]

        def spawn(index: int) -> _Worker:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    index, child_conn, beats,
                    self.runner, policy.point_timeout,
                ),
                daemon=True,
            )
            proc.start()
            # Only the worker holds the other end: once it exits, reads
            # see EOF.
            child_conn.close()
            return _Worker(index=index, proc=proc, conn=conn)

        def respawn(w: _Worker) -> _Worker:
            w.conn.close()
            return spawn(w.index)

        workers = [spawn(i) for i in range(n_workers)]

        unsettled = set(tasks_by_key)
        attempts: dict[str, int] = {k: 0 for k in tasks_by_key}
        #: (ready_time, serial, key) -- scheduled (re)dispatches.  An
        #: unsettled key is either here or some worker's ``current``.
        ready: list[tuple[float, int, str]] = []
        serial = 0

        def schedule(key: str, delay: float = 0.0) -> None:
            nonlocal serial
            now = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
            heapq.heappush(ready, (now + delay, serial, key))
            serial += 1

        def dispatch() -> None:
            """Hand each due point to an idle worker."""
            now = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
            for w in workers:
                if not (ready and ready[0][0] <= now):
                    return
                if w.current is not None:
                    continue
                _, _, key = heapq.heappop(ready)
                attempts[key] += 1
                w.current = key
                # The stall clock starts now, not at the worker's last
                # beat before it went idle.
                slots[w.index].beat()
                self._event("dispatch", key=key, attempt=attempts[key])
                try:
                    w.conn.send((key, tasks_by_key[key]))
                except OSError:
                    pass  # the worker died; the liveness sweep retries the key

        def settle(outcome: PointOutcome) -> None:
            report.outcomes[outcome.key] = outcome
            unsettled.discard(outcome.key)
            if self.on_result is not None:
                self.on_result(outcome.key, outcome)

        def record_failure(key: str, error: str) -> None:
            """One attempt failed: retry, or poison the point."""
            if attempts[key] < policy.retry.max_attempts:
                delay = policy.retry.nominal_delay(max(attempts[key], 1))
                report.retries += 1
                self._event("retry", key=key, attempt=attempts[key], error=error)
                schedule(key, delay)
            else:
                self._event("poison", key=key, error=error)
                settle(PointOutcome(
                    key, "failed", error=error, attempts=attempts[key],
                ))

        def kill_worker(w: _Worker) -> None:
            w.proc.terminate()
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=5.0)

        for key in tasks_by_key:
            schedule(key)

        try:
            while unsettled and not self._stop:
                dispatch()

                # Answers (wait briefly for the first).
                readable = wait_for([w.conn for w in workers], POLL_INTERVAL)
                for w in workers:
                    if w.conn not in readable:
                        continue
                    try:
                        kind, key, value = w.conn.recv()
                    except (EOFError, OSError):
                        continue  # the worker died; the liveness sweep respawns it
                    w.current = None
                    # The idle worker's next point goes out before
                    # ``on_result`` (the service's cache write) runs.
                    dispatch()
                    if kind == "done":
                        settle(PointOutcome(
                            key, "ok", payload=value, attempts=attempts[key],
                        ))
                    else:
                        record_failure(key, value)

                # Liveness sweep: deaths (busy or idle) and wedges.
                for w in workers:
                    key = w.current
                    if not w.proc.is_alive():
                        exitcode = w.proc.exitcode
                        report.worker_deaths += 1
                        self._event(
                            "worker_death", worker=w.index, key=key,
                            exitcode=exitcode,
                        )
                        workers[w.index] = respawn(w)
                        if key is not None:
                            record_failure(
                                key,
                                f"worker died (exitcode {exitcode})",
                            )
                        continue
                    if key is None:
                        continue
                    beat_age = slots[w.index].age()
                    if beat_age > policy.stall_after:
                        # Wedged: beating stopped but the process lives.
                        report.stall_kills += 1
                        self._event(
                            "stall_kill", worker=w.index, key=key,
                            beat_age=beat_age,
                        )
                        kill_worker(w)
                        workers[w.index] = respawn(w)
                        record_failure(
                            key,
                            f"worker wedged (no heartbeat for {beat_age:.1f}s)",
                        )
        finally:
            if unsettled:
                report.interrupted = self._stop
                for key in sorted(unsettled):
                    settle_status = "interrupted" if self._stop else "failed"
                    report.outcomes[key] = PointOutcome(
                        key, settle_status,
                        error="supervision loop exited early",
                        attempts=attempts[key],
                    )
            # Wind the pool down without letting a hung worker wedge us.
            # Every task is settled by now, so a worker still busy is
            # computing a stale answer (an interrupted point): kill it
            # outright instead of waiting out the join deadline.  Each
            # idle worker gets its sentinel on its own pipe.
            for w in workers:
                if w.current is not None:
                    kill_worker(w)
                    continue
                try:
                    w.conn.send(None)
                except OSError:
                    pass  # already dead
            deadline = time.monotonic() + 2.0  # lint-sim: ignore[RPV002] -- harness shutdown, not sim state
            for w in workers:
                w.proc.join(timeout=max(0.0, deadline - time.monotonic()))  # lint-sim: ignore[RPV002] -- harness shutdown, not sim state
                if w.proc.is_alive():
                    kill_worker(w)
            for w in workers:
                w.conn.close()

        report.elapsed_s = time.monotonic() - t0  # lint-sim: ignore[RPV002] -- harness timing, not sim state
        return report


def kill_current_worker() -> None:  # pragma: no cover - used by tests' runners
    """SIGKILL the calling worker process (crash-drill helper)."""
    os.kill(os.getpid(), 9)
