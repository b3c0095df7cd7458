"""The member scheduler: race lifting runs on threads, first verified win.

One :class:`MemberScheduler` call races N member runners against the same
task.  Each member gets its own cooperative sub-budget carved from the
shared deadline (the portfolio's wall-clock window and/or the caller's
:class:`~repro.lifting.budget.Budget`); the first member to return a
*successful* report — validated on the I/O examples and verified by the
bounded checker — flips every other member's cancellation token, and the
losers wind down at their next poll point (searches poll every queue pop,
the validator every 64 substitutions), so no thread outlives the race.

Threads, not processes: members spend most of their time in the same
NumPy-backed validation kernels, cancellation must be a shared-memory token
flip, and the oracle-derived :class:`~repro.lifting.pipeline.PipelineState`
is shared by reference.  Multi-process/multi-host sharding plugs in behind
this same interface later (see ROADMAP).

Determinism: the winner is the *lowest-index* member among those that
succeeded.  In the common case exactly one member succeeds before the
others are cancelled, so "first win" and "lowest index" coincide; when two
members finish successfully within one cancellation-poll window, member
order — the order in the portfolio spec — breaks the tie the same way on
every run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..lifting.budget import Budget
from ..lifting.observer import LiftEvent, LiftObserver, bind, safe_notify

#: A member runner: execute one member's lift under (budget, observer).
MemberRunner = Callable[[Budget, Optional[LiftObserver]], SynthesisReport]

#: How often the coordinating thread re-checks the parent budget while the
#: race runs; losers are cancelled promptly by the winning member's thread,
#: so this only bounds how late a *parent* deadline/cancel propagates.
POLL_INTERVAL_SECONDS = 0.02


@dataclass
class MemberRun:
    """One member's outcome in a race."""

    name: str
    index: int
    budget: Budget
    report: Optional[SynthesisReport] = None
    #: Non-empty when the runner itself raised (member lifts normally report
    #: errors instead of raising, so this is a harness-level failure).
    error: str = ""
    elapsed_seconds: float = 0.0
    #: True when this run was actually cut short by cancellation.  A stored
    #: snapshot, not derived from the budget: the winner also flips the
    #: budgets of members that already finished naturally (idempotent and
    #: harmless), and those must not be reported as cancelled.
    cancelled: bool = False
    started: bool = field(default=False, repr=False)
    #: Set under the scheduler lock the moment the worker returns; guards
    #: both the cancelled snapshot and the winner's cancellation sweep.
    finished: bool = field(default=False, repr=False)

    @property
    def succeeded(self) -> bool:
        return self.report is not None and self.report.success

    @property
    def timed_out(self) -> bool:
        return self.report is not None and self.report.timed_out


class MemberScheduler:
    """Race member runners under per-member sub-budgets with first-win cancel."""

    def __init__(self, poll_interval: float = POLL_INTERVAL_SECONDS) -> None:
        self._poll_interval = poll_interval

    def race(
        self,
        entries: Sequence[Tuple[str, MemberRunner]],
        *,
        task_name: str,
        budget: Optional[Budget] = None,
        deadline_seconds: Optional[float] = None,
        observer: Optional[LiftObserver] = None,
    ) -> Tuple[List[MemberRun], Optional[MemberRun]]:
        """Run every entry concurrently; return (runs, winner or None).

        ``budget`` is the caller's (parent) budget: its expiry or
        cancellation cancels every member.  ``deadline_seconds`` is the
        portfolio's own remaining wall-clock window; each member's
        sub-budget deadline is the tighter of the two at race start (all
        members race concurrently, so every sub-budget spans the same
        shared window — "carving" splits authority to cancel, not time).
        """
        if not entries:
            raise ValueError("cannot race an empty member list")
        sub_timeout = shared_window(budget, deadline_seconds)
        runs = [
            MemberRun(name=name, index=index, budget=Budget(timeout_seconds=sub_timeout))
            for index, (name, _runner) in enumerate(entries)
        ]
        lock = threading.Lock()
        all_done = threading.Event()
        remaining = [len(runs)]
        race_won = [False]

        def worker(run: MemberRun, runner: MemberRunner) -> None:
            run.started = True
            safe_notify(observer, LiftEvent("member_started", task_name, run.name))
            member_observer = bind(observer, member=run.name)
            started_at = time.monotonic()
            try:
                run.report = runner(run.budget, member_observer)
            except Exception as error:  # noqa: BLE001 - never kill the race
                run.error = f"{type(error).__name__}: {error}"
            run.elapsed_seconds = time.monotonic() - started_at
            with lock:
                run.finished = True
                # Snapshot now, under the lock: a cancel arriving after this
                # point hit a run that had already completed on its own.
                run.cancelled = run.budget.cancelled and not run.succeeded
                if run.succeeded and not race_won[0]:
                    # First verified win: cancel every still-running member;
                    # the losers stop at their next cooperative poll point.
                    race_won[0] = True
                    for other in runs:
                        if other.index != run.index and not other.finished:
                            other.budget.cancel()
                remaining[0] -= 1
                race_over = remaining[0] == 0
            safe_notify(observer, member_finished(run, task_name))
            if race_over:
                all_done.set()

        threads = [
            threading.Thread(
                target=worker,
                args=(run, runner),
                name=f"portfolio-{task_name}-{run.name}",
                daemon=True,
            )
            for run, (_name, runner) in zip(runs, entries)
        ]
        for thread in threads:
            thread.start()
        # Coordinate: wait for all members, propagating parent expiry.  The
        # members are cooperative, so cancellation always converges and the
        # joins below return — no orphaned threads survive a race.
        while not all_done.wait(self._poll_interval):
            if budget is not None and budget.expired():
                with lock:
                    for run in runs:
                        if not run.finished:
                            run.budget.cancel()
        for thread in threads:
            thread.join()

        return runs, settle_race(runs, task_name, observer)


def shared_window(
    budget: Optional[Budget], deadline_seconds: Optional[float]
) -> Optional[float]:
    """The sub-budget deadline: tighter of caller budget and own window."""
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
