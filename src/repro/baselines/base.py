"""Shared infrastructure for the baseline lifters.

Every baseline implements the same :class:`repro.lifting.Lifter` contract as
:class:`repro.core.synthesizer.StaggSynthesizer` — ``lift(task, *,
budget=None, observer=None) -> SynthesisReport`` plus ``descriptor()`` — so
the evaluation runner, the method registry and the lifting service treat all
methods uniformly.  The per-task machinery (I/O examples, validator,
bounded verifier) and the validate-then-verify acceptance check come from
:mod:`repro.lifting.checking`, the same helpers the STAGG pipeline uses, so
the baselines share STAGG's validator configuration surface.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from ..core.validator import TemplateValidator, ValidationResult
from ..core.verifier import BoundedEquivalenceChecker, VerificationResult, VerifierConfig
from ..taco import TacoProgram


@dataclass
class TaskContext:
    """Per-task machinery shared by the baselines (plus this run's hooks)."""

    task: LiftingTask
    validator: TemplateValidator
    verifier: BoundedEquivalenceChecker
    signature_output: Optional[str]
    #: Cooperative budget for the current ``lift`` invocation (may be None).
    budget: object = None
    #: Observer for the current ``lift`` invocation (may be None).
    observer: object = None


class BaselineLifter(abc.ABC):
    """Base class for the baseline lifting methods."""

    #: Label reported in evaluation tables; subclasses override.
    label: str = "baseline"

    def __init__(
        self,
        num_io_examples: int = 3,
        verifier_config: Optional[VerifierConfig] = None,
        seed: int = 7,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        self._num_io_examples = num_io_examples
        # None-sentinel construction: a `VerifierConfig()` default in the
        # signature would be evaluated once at definition time and shared.
        self._verifier_config = (
            verifier_config if verifier_config is not None else VerifierConfig()
        )
        self._seed = seed
        self._timeout_seconds = timeout_seconds

    # ------------------------------------------------------------------ #
    # Public API (the repro.lifting.Lifter protocol)
    # ------------------------------------------------------------------ #
    def lift(
        self,
        task: LiftingTask,
        *,
        budget=None,
        observer=None,
    ) -> SynthesisReport:
        from ..lifting.budget import BudgetExceeded

        started = time.monotonic()
        report = SynthesisReport(task_name=task.name, method=self.label, success=False)
        try:
            context = self._prepare(task, budget=budget, observer=observer)
            self._lift_with_context(task, context, report, started)
        except BudgetExceeded:
            # The budget expired at a cooperative cancellation point (e.g.
            # before the oracle query): not an error, a timeout.
            report.timed_out = True
        except Exception as error:  # noqa: BLE001 - report, don't crash the harness
            report.error = f"{type(error).__name__}: {error}"
        report.elapsed_seconds = time.monotonic() - started
        return report

    def descriptor(self) -> Dict[str, object]:
        """JSON-safe method identity for the service's store digest."""
        from ..lifting.descriptor import describe_lifter

        return describe_lifter(self)

    @abc.abstractmethod
    def _lift_with_context(
        self,
        task: LiftingTask,
        context: TaskContext,
        report: SynthesisReport,
        started: float,
    ) -> None:
        """Method-specific lifting logic; mutate *report* in place."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _prepare(self, task: LiftingTask, budget=None, observer=None) -> TaskContext:
        # Imported lazily: the lifting package imports the baselines (method
        # registry), so the harness is resolved at call time.
        from ..lifting.checking import build_harness

        harness = build_harness(
            task,
            num_io_examples=self._num_io_examples,
            seed=self._seed,
            verifier_config=self._verifier_config,
        )
        return TaskContext(
            task=task,
            validator=harness.validator,
            verifier=harness.verifier,
            signature_output=harness.signature_output,
            budget=budget,
            observer=observer,
        )

    def _check(
        self, context: TaskContext, template: TacoProgram
    ) -> Tuple[bool, Optional[ValidationResult], Optional[VerificationResult]]:
        """Validate then bounded-verify one candidate template."""
        from ..lifting.checking import check_candidate

        return check_candidate(
            context.validator,
            context.verifier,
            template,
            budget=context.budget,
            observer=context.observer,
        )

    def _out_of_time(self, started: float, budget=None) -> bool:
        """True when the method timeout or the invocation budget is spent."""
        if budget is not None and budget.expired():
            return True
        return (
            self._timeout_seconds is not None
            and (time.monotonic() - started) >= self._timeout_seconds
        )
