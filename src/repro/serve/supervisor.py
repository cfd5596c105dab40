"""Supervised worker pool: liveness, retry, quarantine.

``concurrent.futures`` cannot express the failure policy the sweep
service needs (a SIGKILLed worker poisons a ``ProcessPoolExecutor``
wholesale), so the supervisor manages ``multiprocessing.Process``
workers directly:

* **heartbeat liveness** -- each worker owns a
  :class:`repro.obs.progress.HeartbeatSlot` in a shared array and beats
  it from the simulation loop's cooperative check, so the parent can
  tell a *slow* point (recent beat) from a *wedged* worker (stale
  beat).  Wedged workers are killed and their point re-dispatched;
* **death recovery** -- a worker that dies (SIGKILL, OOM, segfault) is
  detected by ``Process.is_alive()``, respawned into the same slot, and
  its in-flight point retried on the fresh worker.  Each worker reports
  over its own pipe, so a worker killed mid-message cannot leave a
  shared queue lock held and silence the others;
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
import queue as queue_mod
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

#: Outcome events the ``on_event`` callback can receive.
EVENT_KINDS = ("dispatch", "retry", "poison", "worker_death", "stall_kill")


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs of the supervised pool."""

    workers: int = 2
    retry: RetryPolicy = DEFAULT_RETRY
    point_timeout: Optional[float] = None   # cooperative deadline, seconds
    stall_after: float = 60.0               # stale-heartbeat kill threshold
    poll_interval: float = 0.05

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
    task_q: "queue_mod.Queue[object]",
    results: Connection,
    beats: Sequence[float],
    runner: Callable[[object], object],
    point_timeout: Optional[float],
) -> None:
    """One worker process: pull tasks until the ``None`` sentinel.

    Protocol on the worker's own ``results`` pipe (all tuples lead with
    the message kind): ``("start", key)`` before computing,
    ``("done", key, payload)`` / ``("error", key, error_str)`` after.
    Sends are synchronous, so nothing is left half-written when the
    point kills the worker.
    """
    slot = HeartbeatSlot(beats, worker_id)
    while True:
        item = task_q.get()
        if item is None:
            return
        key, task = item
        slot.beat()
        results.send(("start", key))
        set_point_heartbeat(slot.beat)
        if point_timeout is not None:
            set_point_deadline(point_timeout)
        try:
            payload = runner(task)
        except BaseException as exc:  # report everything; parent decides
            results.send(("error", key, _format_error(exc)))
        else:
            results.send(("done", key, payload))
        finally:
            set_point_deadline(None)
            set_point_heartbeat(None)
            slot.beat()


@dataclass
class _Worker:
    """Parent-side view of one worker slot."""

    index: int
    proc: multiprocessing.Process
    results: Connection              # read end of the worker's pipe
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
        task_q = ctx.Queue()
        # A short job forks no idle workers: one per task at most.
        n_workers = min(policy.workers, len(tasks_by_key))
        beats = ctx.RawArray("d", n_workers)
        # The parent never touches the raw array directly (RPV009):
        # slot accessors keep the liveness protocol -- never-beaten
        # sentinel, monotonic source, age semantics -- in one place.
        slots = [HeartbeatSlot(beats, i) for i in range(n_workers)]

        def spawn(index: int) -> _Worker:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    index, task_q, writer, beats,
                    self.runner, policy.point_timeout,
                ),
                daemon=True,
            )
            proc.start()
            # Only the worker writes: once it exits, reads see EOF.
            writer.close()
            slots[index].beat()
            return _Worker(index=index, proc=proc, results=reader)

        def respawn(w: _Worker) -> _Worker:
            w.results.close()
            return spawn(w.index)

        workers = [spawn(i) for i in range(n_workers)]

        unsettled = set(tasks_by_key)
        attempts: dict[str, int] = {k: 0 for k in tasks_by_key}
        #: (ready_time, serial, key) -- scheduled (re)dispatches.
        ready: list[tuple[float, int, str]] = []
        serial = 0
        queued = 0          # pushed but not yet "start"-acknowledged
        last_progress = t0  # last instant anything moved (orphan sweep)

        def schedule(key: str, delay: float = 0.0) -> None:
            nonlocal serial
            now = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
            heapq.heappush(ready, (now + delay, serial, key))
            serial += 1

        def settle(outcome: PointOutcome) -> None:
            nonlocal last_progress
            report.outcomes[outcome.key] = outcome
            unsettled.discard(outcome.key)
            last_progress = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
            if self.on_result is not None:
                self.on_result(outcome.key, outcome)

        def record_failure(key: str, error: str) -> None:
            """One attempt failed: retry, or poison the point."""
            if key not in unsettled:
                return
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
                now = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state

                # Dispatch due (re)tries while the queue has appetite.
                while (
                    ready
                    and ready[0][0] <= now
                    and queued < n_workers
                ):
                    _, _, key = heapq.heappop(ready)
                    if key not in unsettled:
                        continue
                    attempts[key] += 1
                    task_q.put((key, tasks_by_key[key]))
                    queued += 1
                    self._event("dispatch", key=key, attempt=attempts[key])

                # Drain results (wait briefly for the first).
                messages = []
                readable = wait_for([w.results for w in workers], policy.poll_interval)
                for w in workers:
                    if w.results not in readable:
                        continue
                    try:
                        while w.results.poll():
                            messages.append((w, w.results.recv()))
                    except (EOFError, OSError):
                        pass  # the worker died; the liveness sweep respawns it
                for w, msg in messages:
                    kind, key = msg[0], msg[1]
                    if kind == "start":
                        queued = max(0, queued - 1)
                        w.current = key
                    elif kind == "done":
                        if w.current == key:
                            w.current = None
                        if key in unsettled:
                            settle(PointOutcome(
                                key, "ok", payload=msg[2],
                                attempts=attempts[key],
                            ))
                    elif kind == "error":
                        if w.current == key:
                            w.current = None
                        record_failure(key, msg[2])
                if messages:
                    last_progress = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state

                # Liveness sweep: deaths and wedges.
                now = time.monotonic()  # lint-sim: ignore[RPV002] -- harness scheduling, not sim state
                for w in workers:
                    if not w.proc.is_alive():
                        exitcode = w.proc.exitcode
                        report.worker_deaths += 1
                        key = w.current
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
                        last_progress = now
                        continue
                    key = w.current
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
                        last_progress = now

                # Orphan sweep: a worker died between task_q.get() and
                # its "start" message, silently swallowing a dispatch.
                # If nothing has moved for a while and nothing is in
                # flight, re-issue every unsettled key.
                stale = now - last_progress > max(2.0, 4 * policy.poll_interval)
                if (
                    stale
                    and not ready
                    and all(w.current is None for w in workers)
                    and unsettled
                ):
                    for key in unsettled:
                        schedule(key)
                    queued = 0
                    last_progress = now
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
            # computing a stale answer (an interrupted point):
            # kill it outright instead of waiting out the join deadline.
            # Split idle from busy before any sentinel goes out: an idle
            # worker may take any sentinel and exit at once, so checking
            # liveness while putting them would skip a worker and leave
            # another blocked on the queue until the join deadline.
            idle = [w for w in workers if w.proc.is_alive() and w.current is None]
            for w in workers:
                if w.current is not None and w.proc.is_alive():
                    kill_worker(w)
            for _ in idle:
                task_q.put(None)
            deadline = time.monotonic() + 2.0  # lint-sim: ignore[RPV002] -- harness shutdown, not sim state
            for w in workers:
                w.proc.join(timeout=max(0.0, deadline - time.monotonic()))  # lint-sim: ignore[RPV002] -- harness shutdown, not sim state
                if w.proc.is_alive():
                    kill_worker(w)
            task_q.cancel_join_thread()
            task_q.close()
            for w in workers:
                w.results.close()

        report.elapsed_s = time.monotonic() - t0  # lint-sim: ignore[RPV002] -- harness timing, not sim state
        return report


def kill_current_worker() -> None:  # pragma: no cover - used by tests' runners
    """SIGKILL the calling worker process (crash-drill helper)."""
    os.kill(os.getpid(), 9)
