"""Shared validate-then-verify machinery for every lifting method.

Before this module existed, :class:`repro.core.synthesizer.StaggSynthesizer`
and :class:`repro.baselines.base.BaselineLifter` each hand-built the same
per-task harness (I/O examples, validator, bounded verifier) and the same
``check()`` closure (validate a candidate against the examples, then
bounded-verify the surviving instantiation).  Both now build a
:class:`TaskHarness` here and check candidates through :func:`build_check`,
so the validator configuration is identical across STAGG and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.io_examples import IOExample
from ..core.kernel import kernel_of
from ..core.validator import TemplateValidator, ValidationResult
from ..core.verifier import (
    BoundedEquivalenceChecker,
    VerificationResult,
    VerifierConfig,
)
from ..taco import TacoProgram
from .budget import Budget
from .observer import LiftEvent, LiftObserver, safe_notify

#: The checker signature shared by the searches and the baselines: validate a
#: complete template against the I/O examples and, if validation succeeds,
#: verify the instantiation against the original C kernel.
CheckResult = Tuple[bool, Optional[ValidationResult], Optional[VerificationResult]]


@dataclass
class TaskHarness:
    """Per-task checking machinery, built once per lift."""

    task: object
    function: object
    signature: object
    constants: Sequence
    examples: Sequence[IOExample]
    validator: TemplateValidator
    verifier: BoundedEquivalenceChecker

    @property
    def signature_output(self) -> Optional[str]:
        return self.signature.output_argument


def build_harness(
    task,
    *,
    num_io_examples: int = 3,
    seed: int = 7,
    verifier_config: Optional[VerifierConfig] = None,
    function=None,
    signature=None,
) -> TaskHarness:
    """Build the validator/verifier harness every lifting method shares.

    The kernel's parse, analyses, I/O examples and proof runs come from the
    process-wide kernel cache (:func:`~repro.core.kernel.kernel_of`).
    ``function``/``signature``, when given, are the task's parsed kernel and
    signature as the caller already holds them (the STAGG pipeline does).
    """
    kernel = kernel_of(task)
    examples = kernel.examples(task, seed=seed, count=num_io_examples)
    validator = TemplateValidator(examples, kernel.constants)
    verifier = BoundedEquivalenceChecker(
        task,
        config=verifier_config if verifier_config is not None else VerifierConfig(),
    )
    return TaskHarness(
        task=task,
        function=function if function is not None else kernel.function,
        signature=signature if signature is not None else kernel.signature,
        constants=kernel.constants,
        examples=examples,
        validator=validator,
        verifier=verifier,
    )


def check_candidate(
    validator: TemplateValidator,
    verifier: BoundedEquivalenceChecker,
    template: TacoProgram,
    budget: Optional[Budget] = None,
    observer: Optional[LiftObserver] = None,
) -> CheckResult:
    """Validate one candidate template, then bounded-verify the survivor.

    This is the single acceptance criterion every method shares: a template
    counts as a solution when some instantiation reproduces the recorded
    outputs on all I/O examples *and* the instantiation is bounded-equivalent
    to the original C kernel.  The budget is threaded into the validator so a
    cancelled lift stops mid-substitution-enumeration, not just between
    candidates.
    """
    validation = validator.validate(template, budget=budget)
    if not validation.success or validation.concrete_program is None:
        return False, validation, None
    verification = verifier.verify(validation.concrete_program)
    if verification.equivalent:
        safe_notify(observer, LiftEvent("candidate_accepted", attrs={
            "program": str(validation.concrete_program),
            "proved": verification.proved,
            "sizes": list(verification.proved_sizes),
            "checks": verification.checks_run,
        }))
    return bool(verification.equivalent), validation, verification


def build_check(
    harness: TaskHarness,
    budget: Optional[Budget] = None,
    observer: Optional[LiftObserver] = None,
):
    """The ``check(template)`` closure handed to the searches."""

    def check(template: TacoProgram) -> CheckResult:
        return check_candidate(
            harness.validator, harness.verifier, template, budget, observer
        )

    return check
