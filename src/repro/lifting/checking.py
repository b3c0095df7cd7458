"""Shared validate-then-verify machinery for every lifting method.

Before this module existed, :class:`repro.core.synthesizer.StaggSynthesizer`
and :class:`repro.baselines.base.BaselineLifter` each hand-built the same
per-task harness (I/O examples, validator, bounded verifier) and the same
``check()`` closure (validate a candidate against the examples, then
bounded-verify the surviving instantiation).  Both now build a
:class:`TaskHarness` here and check candidates through :func:`build_check`,
so the validator configuration surface — including the ``tiered=`` two-tier
validation switch — is identical across STAGG and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..cfront.analysis import analyze_signature, harvest_constants
from ..core.io_examples import IOExample, IOExampleGenerator
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
    tiered: bool = True,
    function=None,
    signature=None,
) -> TaskHarness:
    """Build the validator/verifier harness every lifting method shares.

    ``function``/``signature`` may be supplied when the caller has already
    parsed and analysed the kernel (the STAGG pipeline does, for dimension
    prediction); otherwise they are derived here.
    """
    if function is None:
        function = task.parse()
    if signature is None:
        signature = analyze_signature(function)
    constants = harvest_constants(function)
    examples = IOExampleGenerator(task, function, signature, seed=seed).generate(
        num_io_examples
    )
    validator = TemplateValidator(examples, constants, tiered=tiered)
    verifier = BoundedEquivalenceChecker(
        task,
        function,
        signature,
        config=verifier_config if verifier_config is not None else VerifierConfig(),
    )
    return TaskHarness(
        task=task,
        function=function,
        signature=signature,
        constants=constants,
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
        safe_notify(observer, LiftEvent(
            "candidate_accepted", attrs={"program": str(validation.concrete_program)}
        ))
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
