"""The portfolio race loop: race member lifts, keep the first verified win.

One :meth:`MemberScheduler.race` call races N member lifters against one
task.  The loop is the same whatever the backend, which only decides
*where* a member runs: on a thread (:class:`MemberScheduler`) or in a
worker process (:class:`~.process_scheduler.ProcessMemberScheduler`).

* Every member runs :func:`_race_member` under a
  :class:`~repro.lifting.executor.TokenBudget`: the tighter of the
  portfolio's window and the caller's budget, plus one token shared by
  the race.  STAGG members resume their own ``state.fork()`` of the
  oracle-derived :class:`~repro.lifting.pipeline.PipelineState`; other
  members run their plain ``lift``.
* The first member to succeed — validated and verified — sets the token
  itself, before reporting, so its siblings stop at their next existing
  poll point (searches every queue pop, the validator every 64
  substitutions).
* Members put ``(index, event)`` and ``(index, report, error, elapsed,
  cancelled)`` messages on one results queue.  One collector re-emits the
  events with the member bound, propagates a parent budget's expiry, and
  declares a worker lost when it ended without a result.  One producer
  per member keeps its events in FIFO order, ahead of its result.
* Every worker is joined before ``race`` returns; a worker process past
  the grace window is terminated.  No worker outlives the race.

Determinism: the winner is the *lowest-index* success.  Usually exactly
one member succeeds before the others are cancelled, so "first win" and
"lowest index" coincide; when two succeed within one poll window, member
order breaks the tie the same way on every run, on either backend.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.executor import TokenBudget
from ..lifting.observer import LiftEvent, LiftObserver, bind, safe_notify
from ..lifting.pipeline import PipelineState

#: How long the collector waits for a message before re-checking the parent
#: budget and the workers' liveness; the winner cancels its siblings itself,
#: so this only bounds how late a *parent* expiry or a lost worker is seen.
POLL_INTERVAL_SECONDS = 0.02

#: How long losers get to reach their next poll point after the race is
#: decided before a worker process is terminated.  Poll points are dense
#: (every queue pop / 64 substitutions), so reaching this is a bug, not a
#: plan.
JOIN_GRACE_SECONDS = 10.0

#: Poll intervals a dead worker gets for its result to arrive before the
#: result is declared lost (a process queue's feeder thread flushes on exit,
#: so in-flight results land within a poll or two of process death).
_DEAD_WORKER_STRIKES = 10


@dataclass
class MemberRun:
    """One member's outcome in a race."""

    name: str
    index: int
    report: Optional[SynthesisReport] = None
    #: Non-empty when the member itself raised or its worker was lost
    #: (member lifts normally report errors instead of raising, so this is a
    #: harness-level failure).
    error: str = ""
    elapsed_seconds: float = 0.0
    #: True when this run was actually cut short by cancellation: the
    #: member's own snapshot when it finished, so a member that completed
    #: before the win is never reported cancelled.
    cancelled: bool = False

    @property
    def succeeded(self) -> bool:
        return self.report is not None and self.report.success

    @property
    def timed_out(self) -> bool:
        return self.report is not None and self.report.timed_out


class _QueueSink(LiftObserver):
    """Member-side observer: forward every event to the results queue."""

    def __init__(self, index: int, results: object) -> None:
        self._index = index
        self._results = results

    def emit(self, event: LiftEvent) -> None:
        self._results.put((self._index, event))


def _live(value: object) -> object:
    """A member input as given: live on a thread, pickled for a process."""
    return pickle.loads(value) if isinstance(value, bytes) else value


def _race_member(
    index: int, lifter: object, state: Optional[object], task: object,
    timeout_seconds: Optional[float], token: object, results: object, forward: bool,
) -> None:
    """Run one member under a token-linked budget and report on *results*.

    The entry point of every worker, thread or process.  The budget is built
    *here* (budgets hold a live ``threading.Event`` and never cross process
    boundaries); *state* is given only to members that resume it.  With
    *forward*, the member's events go to the collector over *results*.
    """
    budget = TokenBudget(timeout_seconds, token)
    observer = _QueueSink(index, results) if forward else None
    report: Optional[SynthesisReport] = None
    error = ""
    started = time.monotonic()
    try:
        member = _live(lifter)
        if state is not None:
            shared: PipelineState = _live(state)
            report = member.lift_from_state(
                shared.fork(), budget=budget, observer=observer
            )
        else:
            report = member.lift(_live(task), budget=budget, observer=observer)
    except Exception as exc:  # noqa: BLE001 - never kill the race
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - started
    succeeded = report is not None and report.success
    # Snapshot now: a token set after this point hit a member that had
    # already completed on its own.
    cancelled = budget.cancelled and not succeeded
    if succeeded:
        # Set the token before reporting: waiting for the collector to read
        # the result would let a lower-index member that is still checking
        # its last candidate finish and take the win from a faster one.
        token.set()
    results.put((index, report, error, elapsed, cancelled))


class MemberScheduler:
    """Race member lifters on threads with first-win cancel.

    Threads share the oracle-derived state by reference and cancel through
    a ``threading.Event``; :class:`~.process_scheduler.ProcessMemberScheduler`
    overrides the backend hooks below to race the same loop across cores.
    """

    def race(
        self,
        members: Sequence[Tuple[str, object]],
        *,
        task: object,
        task_name: str,
        shared_state: Optional[PipelineState] = None,
        budget: Optional[Budget] = None,
        deadline_seconds: Optional[float] = None,
        observer: Optional[LiftObserver] = None,
    ) -> Tuple[List[MemberRun], Optional[MemberRun]]:
        """Run every ``(name, lifter)`` member concurrently; return (runs, winner).

        ``budget`` is the caller's (parent) budget: its expiry or
        cancellation cancels every member.  ``deadline_seconds`` is the
        portfolio's own remaining wall-clock window; each member's deadline
        is the tighter of the two at race start (all members race
        concurrently, so every member spans the same shared window —
        "carving" splits authority to cancel, not time).
        """
        if not members:
            raise ValueError("cannot race an empty member list")
        timeout = shared_window(budget, deadline_seconds)
        # Pack before any worker exists: a serialization failure surfaces
        # here, naming the offending field or member.
        lifters, state, task_input = self._pack(members, task, shared_state)
        token, results = self._channel()
        runs = [MemberRun(name=name, index=index) for index, (name, _) in enumerate(members)]
        workers: List[object] = []
        started_at: List[float] = []
        try:
            for run, packed, (_name, lifter) in zip(runs, lifters, members):
                safe_notify(observer, LiftEvent("member_started", task_name, run.name))
                started_at.append(time.monotonic())
                resumes = hasattr(lifter, "lift_from_state")
                workers.append(self._spawn(f"portfolio-{task_name}-{run.name}", (
                    run.index, packed, state if resumes else None, task_input,
                    timeout, token, results, observer is not None,
                )))
            self._collect(
                runs, workers, started_at, results, token, budget, task_name, observer
            )
        finally:
            self._join_all(workers, token)
        return runs, settle_race(runs, task_name, observer)

    # ------------------------------------------------------------------ #
    # Backend hooks: where a member runs and how its inputs get there
    # ------------------------------------------------------------------ #
    def _pack(
        self,
        members: Sequence[Tuple[str, object]],
        task: object,
        shared_state: Optional[PipelineState],
    ) -> Tuple[List[object], Optional[object], object]:
        """(lifters, state, task) as the workers receive them: live objects."""
        return [lifter for _name, lifter in members], shared_state, task

    def _channel(self) -> Tuple[object, object]:
        """The race's shared cancel token and its results queue."""
        return threading.Event(), queue.SimpleQueue()

    def _spawn(self, name: str, args: tuple) -> threading.Thread:
        """Start one worker running :func:`_race_member` on *args*."""
        worker = threading.Thread(
            target=_race_member, args=args, name=name, daemon=True
        )
        worker.start()
        return worker

    def _lost(self, worker: threading.Thread) -> str:
        """The error recorded for a worker that ended without a result."""
        return f"worker thread {worker.name} exited without a result"

    def _stop(self, worker: threading.Thread) -> None:
        """End a worker still running past the grace window."""
        # A thread cannot be killed; members are cooperative, so wait.
        worker.join()

    # ------------------------------------------------------------------ #
    # The race loop
    # ------------------------------------------------------------------ #
    def _collect(
        self, runs: List[MemberRun], workers: List[object], started_at: List[float],
        results: object, token: object, budget: Optional[Budget], task_name: str,
        observer: Optional[LiftObserver],
    ) -> None:
        """Drain results until every member reported or was declared lost.

        Forwarded ``(index, event)`` messages are re-emitted on the way,
        with the member bound.
        """
        bound = [bind(observer, member=run.name) for run in runs]
        pending = {run.index for run in runs}
        dead_since: Dict[int, float] = {}
        while pending:
            try:
                message = results.get(timeout=POLL_INTERVAL_SECONDS)
            except queue.Empty:
                message = None
            if message is not None and len(message) == 2:
                index, event = message
                safe_notify(bound[index], event)
            elif message is not None:
                index, report, error, elapsed, cancelled = message
                run = runs[index]
                run.report, run.error = report, error
                run.elapsed_seconds, run.cancelled = elapsed, cancelled
                pending.discard(index)
                safe_notify(observer, member_finished(run, task_name))
            # Propagate a parent-side expiry/cancel to every member.
            if budget is not None and budget.expired():
                token.set()
            # A worker that ended without reporting (a hard crash, or a
            # BaseException on a thread) must not hang the race; give its
            # queued result a few polls to flush, then record the loss.
            now = time.monotonic()
            for index in sorted(pending):
                if workers[index].is_alive():
                    continue
                dead_at = dead_since.setdefault(index, now)
                if now - dead_at < _DEAD_WORKER_STRIKES * POLL_INTERVAL_SECONDS:
                    continue
                run = runs[index]
                run.error = self._lost(workers[index])
                run.elapsed_seconds = now - started_at[index]
                pending.discard(index)
                safe_notify(observer, member_finished(run, task_name))

    def _join_all(self, workers: List[object], token: object) -> None:
        """Join every worker; stop any that outlives the grace window."""
        token.set()  # idempotent: guarantees losers see the stop signal
        deadline = time.monotonic() + JOIN_GRACE_SECONDS
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.is_alive():  # pragma: no cover - cooperative members exit
                self._stop(worker)


def shared_window(
    budget: Optional[Budget], deadline_seconds: Optional[float]
) -> Optional[float]:
    """The member deadline: tighter of caller budget and own window."""
    candidates = []
    if deadline_seconds is not None:
        candidates.append(max(0.0, deadline_seconds))
    if budget is not None:
        remaining = budget.remaining()
        if remaining is not None:
            candidates.append(remaining)
    return min(candidates) if candidates else None


def settle_race(
    runs: Sequence[MemberRun], task_name: str, observer: Optional[LiftObserver]
) -> Optional[MemberRun]:
    """Pick the lowest-index success and announce the race's outcome.

    Winner first, cancellations after: observers (and traces) see
    member_started < portfolio_winner < member_cancelled per member, so a
    reader knows *why* the losers were cancelled — whatever the backend.
    """
    winner: Optional[MemberRun] = None
    for run in runs:
        if run.succeeded and (winner is None or run.index < winner.index):
            winner = run
    if winner is not None:
        safe_notify(observer, LiftEvent("portfolio_winner", task_name, winner.name))
        for run in runs:
            if run.index != winner.index and run.cancelled:
                safe_notify(observer, LiftEvent("member_cancelled", task_name, run.name))
    return winner


def member_finished(run: MemberRun, task_name: str) -> LiftEvent:
    """The ``member_finished`` event for *run* (win, loss, timeout or crash)."""
    return LiftEvent("member_finished", task_name, run.name, attrs={
        "success": run.succeeded, "seconds": run.elapsed_seconds,
    })
