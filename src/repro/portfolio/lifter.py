"""The portfolio lifting engine: race registered methods, keep the first win.

Guided Tensor Lifting's evaluation shows no single configuration dominating
— STAGG_TD and STAGG_BU (and the grammar/probability ablations) each win on
different kernels — which is exactly the setting where a *portfolio* beats
any fixed method.  A :class:`PortfolioLifter` runs its members concurrently
against one task and commits to the first validated **and** verified
program; the moment a member wins, every other member's cooperative budget
is cancelled and the losers wind down at their next poll point.

The expensive artifact is shared, not duplicated: the oracle-derived
:class:`~repro.lifting.pipeline.PipelineState` (LLM response, templates,
dimension list) is produced **once** via
:meth:`~repro.core.synthesizer.StaggSynthesizer.prepare_state`, and every
STAGG member races its own ``state.fork()`` through ``lift_from_state`` —
one LLM query, many searches.  Non-STAGG members (baselines) race their
plain ``lift``.

The class implements the full :class:`repro.lifting.Lifter` protocol —
``lift(task, *, budget=None, observer=None)`` plus ``descriptor()`` — so
:class:`~repro.service.store.CachedLifter`, the evaluation runner and the
HTTP service treat a portfolio like any other method; an equal portfolio
spec (same members, same order, same parameters) composes an equal
descriptor and therefore an equal store digest.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from ..lifting.budget import Budget, BudgetExceeded
from ..lifting.descriptor import describe_lifter
from ..lifting.executor import ExecutionConfig
from ..lifting.observer import LiftObserver
from ..lifting.pipeline import PipelineState
from .process_scheduler import ProcessMemberScheduler
from .scheduler import MemberRun, MemberScheduler
from .spec import portfolio_label


class _WindowBudget(Budget):
    """The portfolio's own wall-clock window, linked to the caller's budget.

    Bounds the shared oracle-prep phase: it expires when either the
    portfolio's configured window runs out *or* the caller's budget
    expires/cancels — so a caller's ``cancel()`` still stops prep even
    though the window is a separate deadline.
    """

    __slots__ = ("_parent",)

    def __init__(self, timeout_seconds: Optional[float], parent: Optional[Budget]) -> None:
        super().__init__(timeout_seconds)
        self._parent = parent

    def expired(self) -> bool:
        if super().expired():
            return True
        return self._parent is not None and self._parent.expired()

    def remaining(self) -> Optional[float]:
        own = super().remaining()
        parent = self._parent.remaining() if self._parent is not None else None
        bounds = [value for value in (own, parent) if value is not None]
        return min(bounds) if bounds else None


class PortfolioLifter:
    """Race member lifters under a shared budget; first verified win."""

    #: Opt out of :func:`describe_lifter`'s generic instance-state rendering:
    #: this class composes its descriptor from its members' descriptors.
    composes_descriptor = True

    def __init__(
        self,
        members: Sequence[Tuple[str, object]],
        label: Optional[str] = None,
        *,
        timeout_seconds: Optional[float] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        members = list(members)
        if not members:
            raise ValueError("a portfolio needs at least one member lifter")
        self._members: List[Tuple[str, object]] = members
        self._label = label if label is not None else portfolio_label(
            [name for name, _lifter in members]
        )
        # The whole race's wall-clock window (a per-invocation Budget passed
        # to lift() additionally bounds one call from outside, exactly as
        # for every other lifter).
        self._timeout_seconds = timeout_seconds
        # How the race runs (threads vs processes).  Digest-excluded, like
        # budgets: descriptor() must never emit it — thread- and
        # process-raced runs of one spec share a store digest.
        self._execution = execution

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        return self._label

    @property
    def members(self) -> List[Tuple[str, object]]:
        return list(self._members)

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _lifter in self._members)

    @property
    def timeout_seconds(self) -> Optional[float]:
        return self._timeout_seconds

    @property
    def execution(self) -> Optional[ExecutionConfig]:
        return self._execution

    def descriptor(self) -> Dict[str, object]:
        """Composed identity: ordered member descriptors + the race window.

        Member order is outcome-relevant (deterministic tie-break), so the
        list is ordered.  The descriptor always carries the *canonical* spec
        string — not the display label — so whitespace variants and named
        registrations of the same composition (``Portfolio.Default`` vs
        ``Portfolio(STAGG_TD,STAGG_BU)``) are digest-equal and share store
        entries.
        """
        return {
            "class": type(self).__qualname__,
            "label": portfolio_label(self.member_names),
            "state": {"timeout_seconds": self._timeout_seconds},
            "members": [
                {"name": name, "lifter": describe_lifter(lifter)}
                for name, lifter in self._members
            ],
        }

    # ------------------------------------------------------------------ #
    # Lifting
    # ------------------------------------------------------------------ #
    def lift(
        self,
        task: LiftingTask,
        *,
        budget: Optional[Budget] = None,
        observer: Optional[LiftObserver] = None,
    ) -> SynthesisReport:
        """Race every member on *task*; report the first verified program."""
        started = time.monotonic()
        report = SynthesisReport(
            task_name=task.name, method=self._label, success=False
        )

        # The configured window bounds the *whole* race, prep included: a
        # slow oracle query must not eat the window unbounded and leave the
        # members zero-second sub-budgets.
        prep_budget = budget
        if self._timeout_seconds is not None:
            prep_budget = _WindowBudget(self._timeout_seconds, budget)
        shared_state, prep_timings, prep_error = self._prepare_shared_state(
            task, prep_budget, observer, report
        )
        if report.timed_out:
            # The budget expired during (or before) the oracle query: every
            # member would be cut off at its first poll, so don't race.  The
            # timings of prep stages that did complete stay on the report —
            # that's the evidence of *where* the window went.
            report.elapsed_seconds = time.monotonic() - started
            if prep_timings:
                report.details["stage_timings"] = prep_timings
            report.details["portfolio"] = self._attribution([], None, shared=False)
            return report

        deadline = self._remaining_window(started)
        uses_processes = self._execution is not None and self._execution.uses_processes
        scheduler = ProcessMemberScheduler if uses_processes else MemberScheduler
        runs, winner = scheduler().race(
            self._members,
            task=task,
            task_name=task.name,
            shared_state=shared_state,
            budget=budget,
            deadline_seconds=deadline,
            observer=observer,
        )

        self._assemble(report, runs, winner, prep_timings, shared_state is not None)
        if prep_error and not report.error and winner is None:
            report.error = prep_error
        report.elapsed_seconds = time.monotonic() - started
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _prepare_shared_state(
        self,
        task: LiftingTask,
        budget: Optional[Budget],
        observer: Optional[LiftObserver],
        report: SynthesisReport,
    ) -> Tuple[Optional[PipelineState], Dict[str, float], str]:
        """Populate the oracle-derived state once, for all STAGG members.

        Returns ``(state or None, prep stage timings, prep error)``.  A
        budget expiry marks *report* timed out (the caller aborts the
        race); any other preparation failure degrades gracefully — members
        fall back to independent ``lift`` calls and surface the error
        themselves.
        """
        preparer = next(
            (
                lifter
                for _name, lifter in self._members
                if hasattr(lifter, "prepare_state") and hasattr(lifter, "lift_from_state")
            ),
            None,
        )
        if preparer is None:
            return None, {}, ""
        prep_report = SynthesisReport(
            task_name=task.name, method=self._label, success=False
        )
        try:
            state = preparer.prepare_state(
                task, budget=budget, observer=observer, report=prep_report
            )
        except BudgetExceeded:
            report.timed_out = True
            # Keep whatever stage timings prep recorded before the cut-off.
            return None, dict(prep_report.details.get("stage_timings", {})), ""
        except Exception as error:  # noqa: BLE001 - degrade, don't abort
            return None, {}, f"{type(error).__name__}: {error}"
        return state, dict(prep_report.details.get("stage_timings", {})), ""

    def _remaining_window(self, started: float) -> Optional[float]:
        """The race's own deadline: the configured window minus prep time."""
        if self._timeout_seconds is None:
            return None
        return max(0.0, self._timeout_seconds - (time.monotonic() - started))

    def _attribution(
        self, runs: Sequence[MemberRun], winner: Optional[MemberRun], shared: bool
    ) -> Dict[str, object]:
        """The ``report.details["portfolio"]`` per-member record."""
        return {
            "label": self._label,
            "winner": winner.name if winner is not None else None,
            "shared_oracle_state": shared,
            "members": [
                {
                    "name": run.name,
                    "success": run.succeeded,
                    "cancelled": run.cancelled,
                    "timed_out": run.timed_out,
                    "error": run.error or (run.report.error if run.report else ""),
                    "elapsed_seconds": run.elapsed_seconds,
                    "attempts": run.report.attempts if run.report else 0,
                    "nodes_expanded": run.report.nodes_expanded if run.report else 0,
                }
                for run in runs
            ],
        }

    def _assemble(
        self,
        report: SynthesisReport,
        runs: Sequence[MemberRun],
        winner: Optional[MemberRun],
        prep_timings: Dict[str, float],
        shared: bool,
    ) -> None:
        """Fill *report* from the race outcome (winner fields + attribution)."""
        if winner is not None:
            won = winner.report
            report.success = True
            report.lifted_program = won.lifted_program
            report.template = won.template
            report.attempts = won.attempts
            report.nodes_expanded = won.nodes_expanded
            report.oracle_valid_candidates = won.oracle_valid_candidates
            report.oracle_rejected_candidates = won.oracle_rejected_candidates
            report.dimension_list = won.dimension_list
            report.details = dict(won.details)
            timings = dict(won.details.get("stage_timings", {}))
        else:
            # No member produced a verified program: aggregate the effort and
            # classify.  Every member timing out (or being cancelled by the
            # parent budget) is a portfolio timeout; otherwise it is a plain
            # failure and the first member error (if any) is surfaced.
            report.attempts = sum(r.report.attempts for r in runs if r.report)
            report.nodes_expanded = sum(
                r.report.nodes_expanded for r in runs if r.report
            )
            report.timed_out = bool(runs) and all(
                r.timed_out or r.cancelled for r in runs
            )
            errors = [r.error or (r.report.error if r.report else "") for r in runs]
            report.error = next((e for e in errors if e), "")
            timings = {}
        # The shared preparation paid for the oracle-derived stages that the
        # winner's resumed run recorded as skipped (0.0): overlay its real
        # costs so portfolio reports carry honest stage timings.
        for stage, seconds in prep_timings.items():
            if timings.get(stage, 0.0) == 0.0:
                timings[stage] = seconds
        if timings:
            report.details["stage_timings"] = timings
        report.details["portfolio"] = self._attribution(runs, winner, shared)
