"""The process-backed member scheduler: race lifts across cores, first win.

The thread scheduler (:mod:`.scheduler`) is throttled by the GIL: racing
members spend their time in Python-level search and validation loops, so N
threads share one core and the race costs roughly the *sum* of the members'
work instead of the max.  This scheduler races each member in its own
``multiprocessing.Process``, keeping the same contract:

* **Explicit serialization, loud failures.**  The parent pickles the
  oracle-derived :class:`~repro.lifting.pipeline.PipelineState` exactly once
  (via :func:`~repro.lifting.pipeline.ensure_picklable`, which names the
  offending field on failure) and each member lifter once; children rebuild
  config-derived artifacts themselves (``lift_from_state`` starts from
  ``reset_derived()``), so nothing config-derived ever crosses the boundary.
* **Cooperative cross-process cancellation.**  Children poll a shared
  ``multiprocessing.Event`` through a
  :class:`~repro.lifting.executor.TokenBudget` at the *existing* budget poll
  points (searches every queue pop, the validator every 64 substitutions).
  The first verified win flips the token, in the winning child itself;
  losers wind down at their next poll — no new poll sites, no signals.
* **Join-all semantics.**  Every child is joined before ``race`` returns;
  a child that ignores the token past the grace window is terminated.  No
  child outlives the race.
* **Deterministic winner.**  Lowest-index success wins, exactly as in the
  thread race, so thread- and process-backed runs attribute the same winner
  for in-budget runs.
* **Forwarded events.**  When the race has an observer, each child lifts
  with a sink that puts ``(index, event)`` messages on the result queue,
  and the parent re-emits them with the member bound — observers see the
  same stream as in the thread race.  One producer per child keeps FIFO
  order, so a member's events arrive before its result.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.executor import ExecutionConfig, TokenBudget
from ..lifting.observer import LiftEvent, LiftObserver, bind, safe_notify
from ..lifting.pipeline import PipelineState, ensure_picklable
from .scheduler import (
    POLL_INTERVAL_SECONDS,
    MemberRun,
    member_finished,
    settle_race,
    shared_window,
)

#: How long losers get to reach their next poll point after the race is
#: decided before the parent terminates them.  Poll points are dense (every
#: queue pop / 64 substitutions), so reaching this is a bug, not a plan.
JOIN_GRACE_SECONDS = 10.0

#: Poll intervals a dead child gets for its result to arrive before the
#: result is declared lost (the queue's feeder thread flushes on exit, so
#: in-flight results land within a poll or two of process death).
_DEAD_CHILD_STRIKES = 10


def _pickle_lifter(name: str, lifter: object) -> bytes:
    """Serialize one member lifter, failing loudly with the member's name."""
    try:
        return pickle.dumps(lifter)
    except Exception as cause:  # noqa: BLE001 - re-raised with context
        raise TypeError(
            f"portfolio member {name!r} ({type(lifter).__qualname__}) is not "
            f"picklable and cannot race in a worker process: {cause}. "
            "Keep live handles out of lifter state or use the thread backend."
        ) from cause


class _QueueSink(LiftObserver):
    """Child-side observer: forward every event to the parent's queue."""

    def __init__(self, index: int, results: object) -> None:
        self._index = index
        self._results = results

    def emit(self, event: LiftEvent) -> None:
        self._results.put((self._index, event))


def _race_member(
    index: int,
    lifter_bytes: bytes,
    state_bytes: Optional[bytes],
    task_bytes: bytes,
    timeout_seconds: Optional[float],
    token: object,
    results: object,
    forward: bool,
) -> None:
    """Child entry point: run one member under a token-linked budget.

    Runs in the worker process.  The budget is built *here* (budgets hold a
    live ``threading.Event`` and never cross process boundaries); the shared
    token makes the first win visible at every existing poll point.  With
    *forward*, the member's events go to the parent over *results*.
    """
    budget = TokenBudget(timeout_seconds, token)
    observer = _QueueSink(index, results) if forward else None
    report: Optional[SynthesisReport] = None
    error = ""
    started = time.monotonic()
    try:
        lifter = pickle.loads(lifter_bytes)
        if state_bytes is not None and hasattr(lifter, "lift_from_state"):
            state: PipelineState = pickle.loads(state_bytes)
            report = lifter.lift_from_state(
                state.fork(), budget=budget, observer=observer
            )
        else:
            task = pickle.loads(task_bytes)
            report = lifter.lift(task, budget=budget, observer=observer)
    except Exception as exc:  # noqa: BLE001 - never kill the race
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - started
    succeeded = report is not None and report.success
    cancelled = budget.cancelled and not succeeded
    if succeeded:
        # Flip the token before reporting: waiting for the parent to read
        # the result would let a lower-index member that is still checking
        # its last candidate finish and take the win from a faster one.
        token.set()
    results.put((index, pickle.dumps(report), error, elapsed, cancelled))


class ProcessMemberScheduler:
    """Race member lifters across a process pool with first-win cancel.

    The race spawns one process per member (a portfolio rarely has more
    members than the machine has cores; the OS timeshares otherwise) —
    ``ExecutionConfig.workers`` sizes *pools* (evaluation, service threads, shard
    validation), not the race fan-out, which is fixed by the member list.
    """

    def __init__(
        self,
        execution: Optional[ExecutionConfig] = None,
        poll_interval: float = POLL_INTERVAL_SECONDS,
        join_grace: float = JOIN_GRACE_SECONDS,
    ) -> None:
        self._execution = execution or ExecutionConfig(backend="processes")
        self._poll_interval = poll_interval
        self._join_grace = join_grace

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
        """Run every member concurrently in its own process.

        Same window semantics as :meth:`.MemberScheduler.race`: each child's
        deadline is the tighter of the caller's budget and the portfolio's
        remaining window at race start.  Returns ``(runs, winner or None)``.
        """
        if not members:
            raise ValueError("cannot race an empty member list")
        sub_timeout = shared_window(budget, deadline_seconds)
        # Serialize once, before any process exists: pickling failures must
        # surface in the parent with a field-level (state) or member-level
        # (lifter) message, never as a cryptic spawn-time traceback.
        state_bytes = (
            ensure_picklable(shared_state) if shared_state is not None else None
        )
        task_bytes = pickle.dumps(task)
        member_bytes = [_pickle_lifter(name, lifter) for name, lifter in members]

        context = multiprocessing.get_context()
        token = context.Event()
        results: "multiprocessing.Queue" = context.Queue()
        runs = [
            MemberRun(name=name, index=index, budget=Budget(timeout_seconds=sub_timeout))
            for index, (name, _lifter) in enumerate(members)
        ]
        processes = []
        started_at = []
        for run, blob, (name, lifter) in zip(runs, member_bytes, members):
            process = context.Process(
                target=_race_member,
                args=(
                    run.index,
                    blob,
                    state_bytes if hasattr(lifter, "lift_from_state") else None,
                    task_bytes,
                    sub_timeout,
                    token,
                    results,
                    observer is not None,
                ),
                name=f"portfolio-{task_name}-{name}",
                daemon=True,
            )
            run.started = True
            safe_notify(observer, LiftEvent("member_started", task_name, run.name))
            started_at.append(time.monotonic())
            process.start()
            processes.append(process)

        self._collect(
            runs, processes, started_at, results, token, budget, task_name, observer
        )
        self._join_all(processes, token)
        results.close()
        results.join_thread()

        return runs, settle_race(runs, task_name, observer)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _collect(
        self,
        runs: List[MemberRun],
        processes: List["multiprocessing.Process"],
        started_at: List[float],
        results: "multiprocessing.Queue",
        token: object,
        budget: Optional[Budget],
        task_name: str,
        observer: Optional[LiftObserver],
    ) -> None:
        """Drain results until every member reported or was declared lost.

        Forwarded ``(index, event)`` messages are re-emitted on the way,
        with the member bound.
        """
        members = [bind(observer, member=run.name) for run in runs]
        pending = {run.index for run in runs}
        dead_since: Dict[int, float] = {}
        while pending:
            try:
                message = results.get(timeout=self._poll_interval)
            except queue_module.Empty:
                message = None
            if message is not None and len(message) == 2:
                index, event = message
                safe_notify(members[index], event)
            elif message is not None:
                index, payload, error, elapsed, cancelled = message
                run = runs[index]
                run.report = pickle.loads(payload)
                run.error = error
                run.elapsed_seconds = elapsed
                run.finished = True
                run.cancelled = cancelled and not run.succeeded
                pending.discard(index)
                safe_notify(observer, member_finished(run, task_name))
            # Propagate a parent-side expiry/cancel to every child.
            if budget is not None and budget.expired():
                token.set()
            # A child that died without reporting (hard crash) must not
            # hang the race; give its queued result a few polls to flush,
            # then record the loss.
            now = time.monotonic()
            for run in runs:
                if run.index not in pending or processes[run.index].is_alive():
                    continue
                dead_at = dead_since.setdefault(run.index, now)
                if now - dead_at < _DEAD_CHILD_STRIKES * self._poll_interval:
                    continue
                run.error = (
                    f"worker process exited without a result "
                    f"(exitcode {processes[run.index].exitcode})"
                )
                run.elapsed_seconds = now - started_at[run.index]
                run.finished = True
                pending.discard(run.index)
                safe_notify(observer, member_finished(run, task_name))

    def _join_all(
        self, processes: List["multiprocessing.Process"], token: object
    ) -> None:
        """Join every child; terminate any that outlives the grace window."""
        token.set()  # idempotent: guarantees losers see the stop signal
        deadline = time.monotonic() + self._join_grace
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():  # pragma: no cover - cooperative members exit
                process.terminate()
                process.join()
