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

Member-internal stage events cannot cross the process boundary, so
observers see the member lifecycle (``member_started`` / ``member_finished``
/ ``portfolio_winner`` / ``member_cancelled``, in the thread scheduler's
order) but not per-stage progress inside members — the documented telemetry
trade of the process backend.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
from typing import List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.executor import ExecutionConfig, TokenBudget
from ..lifting.observer import LiftObserver, safe_notify
from ..lifting.pipeline import PipelineState, ensure_picklable
from .scheduler import POLL_INTERVAL_SECONDS, MemberRun, MemberScheduler

#: How long losers get to reach their next poll point after the race is
#: decided before the parent terminates them.  Poll points are dense (every
#: queue pop / 64 substitutions), so reaching this is a bug, not a plan.
JOIN_GRACE_SECONDS = 10.0

#: Empty-queue polls with a dead child before its result is declared lost
#: (the queue's feeder thread flushes on exit, so in-flight results land
#: within a poll or two of process death).
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


def _race_member(
    index: int,
    lifter_bytes: bytes,
    state_bytes: Optional[bytes],
    task_bytes: bytes,
    timeout_seconds: Optional[float],
    token: object,
    results: object,
) -> None:
    """Child entry point: run one member under a token-linked budget.

    Runs in the worker process.  The budget is built *here* (budgets hold a
    live ``threading.Event`` and never cross process boundaries); the shared
    token makes the first win visible at every existing poll point.
    """
    budget = TokenBudget(timeout_seconds, token)
    report: Optional[SynthesisReport] = None
    error = ""
    started = time.monotonic()
    try:
        lifter = pickle.loads(lifter_bytes)
        if state_bytes is not None and hasattr(lifter, "lift_from_state"):
            state: PipelineState = pickle.loads(state_bytes)
            report = lifter.lift_from_state(state.fork(), budget=budget)
        else:
            task = pickle.loads(task_bytes)
            report = lifter.lift(task, budget=budget)
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
    ``ExecutionConfig.workers`` sizes *pools* (evaluation, service, shard
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

        Same window semantics as :meth:`MemberScheduler.race`: each child's
        deadline is the tighter of the caller's budget and the portfolio's
        remaining window at race start.  Returns ``(runs, winner or None)``.
        """
        if not members:
            raise ValueError("cannot race an empty member list")
        sub_timeout = MemberScheduler._shared_window(budget, deadline_seconds)
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
                ),
                name=f"portfolio-{task_name}-{name}",
                daemon=True,
            )
            run.started = True
            safe_notify(observer, "member_started", run.name, task_name)
            process.start()
            processes.append(process)

        self._collect(runs, processes, results, token, budget, task_name, observer)
        self._join_all(processes, token)
        results.close()
        results.join_thread()

        winner: Optional[MemberRun] = None
        for run in runs:
            if run.succeeded and (winner is None or run.index < winner.index):
                winner = run
        # Winner first, cancellations after — the thread scheduler's
        # observer ordering, so traces read identically across backends.
        if winner is not None:
            safe_notify(observer, "portfolio_winner", winner.name, task_name)
        for run in runs:
            if winner is not None and run.index != winner.index and run.cancelled:
                safe_notify(observer, "member_cancelled", run.name, task_name)
        return runs, winner

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _collect(
        self,
        runs: List[MemberRun],
        processes: List["multiprocessing.Process"],
        results: "multiprocessing.Queue",
        token: object,
        budget: Optional[Budget],
        task_name: str,
        observer: Optional[LiftObserver],
    ) -> None:
        """Drain results until every member reported or was declared lost."""
        pending = {run.index for run in runs}
        dead_strikes = {run.index: 0 for run in runs}
        while pending:
            try:
                index, payload, error, elapsed, cancelled = results.get(
                    timeout=self._poll_interval
                )
            except queue_module.Empty:
                # Propagate a parent-side expiry/cancel to every child.
                if budget is not None and budget.expired():
                    token.set()
                # A child that died without reporting (hard crash) must not
                # hang the race; give its queued result a few polls to
                # flush, then record the loss.
                for run in runs:
                    if run.index not in pending:
                        continue
                    if processes[run.index].is_alive():
                        dead_strikes[run.index] = 0
                        continue
                    dead_strikes[run.index] += 1
                    if dead_strikes[run.index] >= _DEAD_CHILD_STRIKES:
                        exitcode = processes[run.index].exitcode
                        run.error = (
                            f"worker process exited without a result "
                            f"(exitcode {exitcode})"
                        )
                        run.finished = True
                        pending.discard(run.index)
                        safe_notify(
                            observer, "member_finished",
                            run.name, task_name, False, run.elapsed_seconds,
                        )
                continue
            run = runs[index]
            run.report = pickle.loads(payload)
            run.error = error
            run.elapsed_seconds = elapsed
            run.finished = True
            run.cancelled = cancelled and not run.succeeded
            pending.discard(index)
            safe_notify(
                observer, "member_finished",
                run.name, task_name, run.succeeded, run.elapsed_seconds,
            )

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
