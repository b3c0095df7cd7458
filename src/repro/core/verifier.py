"""Equivalence verification (Section 7): proof first, a bounded check as fallback.

The paper lowers both the original C program and the lifted TACO program to a
common representation and hands them to CBMC (extended with rational
datatypes) to prove input/output equivalence for all inputs up to a bound.
This reproduction does the same in two ways.

Proof
-----

With sizes fixed, a kernel whose control flow does not depend on input
values is a straight-line program, so the C kernel and a TACO program each
compute, per output element, a rational function of the input elements: a
polynomial, or a quotient ``n/d`` of polynomials once it divides by an input
(:mod:`repro.core.poly`).  :meth:`BoundedEquivalenceChecker.verify` first
runs both sides once on polynomial variables at every uniform size from 1 to
``size_bound + 1``, one variable per free input element and per initial
output-buffer element; the C kernel's runs come from the kernel cache
(:meth:`~repro.core.kernel.Kernel.symbolic_run`), shared by every checker
of the kernel in the process.  Two outputs are equal when
``n1*d2 - n2*d1`` is the zero polynomial.  A size at which the C kernel traps on every input is
outside the claim and skipped, except at ``size_bound`` itself.

The claim covers only inputs on which the C kernel does not trap, and it
traps where a polynomial it divides by is zero.  So equal outputs are a
proof (``proved=True``) only when every polynomial the TACO program divides
by is, up to a constant factor, one the C run divides by at that size;
otherwise the TACO program may trap where the C kernel does not, and the
bounded check decides.  Every division is recorded where it happens — the C
run logs its divisors, and a TACO quotient carries its own, even when
multiplied by 0 — so no divisor is lost.  A proof draws no random inputs.

When the outputs differ, the program is refuted without the bounded check:
the product of the difference's numerator and every divisor on both sides
is evaluated at seeded integer points until one is non-zero
(Schwartz–Zippel).  At that point neither side traps and they disagree, so
the C kernel's run there is the counterexample, with ``checks_run=1``.
When the TACO side fails or has the wrong shape, or the difference is a
non-zero constant, any point that keeps the divisors non-zero refutes.

Bounded check (fallback)
------------------------

When a side needs the value of an input — a value-dependent branch or
subscript, a math call on one, an ``int`` store or a remainder (the run
raises :class:`~repro.core.poly.NotPolynomial`) — when the TACO program
divides by a polynomial the C kernel does not, or when the C kernel traps
at ``size_bound``, :meth:`~BoundedEquivalenceChecker.check_bounded` runs the
explicit-state analogue of CBMC's check:

* sizes are fixed to ``size_bound``,
* input values range over a small set of exact rationals,
* the space of inputs is enumerated **exhaustively** when it is smaller than
  a configurable cap, and sampled deterministically (after the structured
  corner cases all-zeros, all-ones, all-minus-ones and all-twos) otherwise,
* both sides are executed in exact rational arithmetic, one input at a
  time, and compared for equality; the first mismatching input is the
  counterexample.

An input on which the C kernel traps is outside the claim and skipped.
When the C kernel traps on every input, no input is checked and the verdict
is *not equivalent*, with ``checks_run=0``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..cfront.errors import CRuntimeError
from ..taco import TacoProgram
from ..taco.errors import TacoError
from ..taco.evaluator import EvaluationContext, TacoEvaluator
from .io_examples import IOExample, IOExampleGenerator, SymbolicRun
from .kernel import kernel_of
from .poly import Divisor, NotPolynomial, Poly, Quotient, is_zero, witness
from .task import LiftingTask
from .validator import _outputs_equal

#: Seed of the integer points a refuting difference polynomial is evaluated
#: at.
WITNESS_SEED = 1729

#: One bounded-check input: the flat free-input values (None draws them at
#: random; the generator avoids zero when the task's spec asks it to).
_Input = Optional[Sequence[int]]


@dataclass(frozen=True)
class VerifierConfig:
    """Bounds for the equivalence check."""

    #: Value each size parameter is fixed to by the bounded check; the proof
    #: covers every uniform size from 1 to ``size_bound + 1``.
    size_bound: int = 2
    #: The exact values input elements range over during exhaustive checks.
    value_set: Tuple[int, ...] = (-2, -1, 0, 1, 2)
    #: Exhaustively enumerate the input space only if it has at most this
    #: many points; otherwise fall back to deterministic sampling.
    exhaustive_cap: int = 4096
    #: Number of sampled inputs when the space is too large to enumerate.
    sampled_checks: int = 64


@dataclass
class VerificationResult:
    """Outcome of the equivalence check."""

    equivalent: bool
    #: Inputs checked: those the bounded check ran, one for a witness, none
    #: for a proof.
    checks_run: int
    counterexample: Optional[IOExample] = None
    exhaustive: bool = False
    #: Equal rational functions: equivalent on every rational input on which
    #: the C kernel does not trap, at these sizes.
    proved: bool = False
    #: The uniform sizes the proof covers (empty unless ``proved``).
    proved_sizes: Tuple[int, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


@dataclass
class _Refutation:
    """Unequal outputs at one size."""

    run: SymbolicRun
    #: The first non-zero output difference (a Poly, a Quotient or a non-zero
    #: constant); None when the TACO side fails or has the wrong shape, so
    #: that every input on which the C kernel runs refutes.
    difference: object
    #: What both sides divide by: a witness keeps all of them non-zero.
    divisors: FrozenSet[Divisor]


class BoundedEquivalenceChecker:
    """Checks a lifted TACO program against the original C kernel."""

    def __init__(
        self, task: LiftingTask, config: Optional[VerifierConfig] = None
    ) -> None:
        self._task = task
        self._kernel = kernel_of(task)
        self._config = config if config is not None else VerifierConfig()
        self._evaluator = TacoEvaluator(mode="exact")
        self._generator = IOExampleGenerator(
            task, self._kernel.function, self._kernel.signature, seed=1729
        )
        #: False once the C kernel is found to need an input's value.
        self._polynomial = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def verify(self, program: TacoProgram) -> VerificationResult:
        """Verify that *program* is equivalent to the C kernel.

        Proves or refutes it by the identity of rational functions where both
        sides allow it, and otherwise falls back to :meth:`check_bounded`.
        """
        proof = None
        if self._polynomial:
            try:
                proof = self._prove(program)
            except NotPolynomial:
                pass
        if proof is None:
            return self.check_bounded(program)
        if isinstance(proof, _Refutation):
            return VerificationResult(
                equivalent=False, checks_run=1, counterexample=self._witness_example(proof)
            )
        return VerificationResult(
            equivalent=True, checks_run=0, proved=True, proved_sizes=proof
        )

    def check_bounded(self, program: TacoProgram) -> VerificationResult:
        """Bounded-check *program* on enumerated or sampled inputs."""
        config = self._config
        sizes = {name: config.size_bound for name in self._task.spec.sizes}
        plan = self._generator.plan(sizes)
        slots = sum(slot.count for slot in plan.free_slots)
        total_points = len(config.value_set) ** max(slots, 0) if slots else 1
        exhaustive = 0 < total_points <= config.exhaustive_cap and slots > 0

        inputs = self._exhaustive_inputs(slots) if exhaustive else self._sampled_inputs(slots)
        checks = 0
        # Every input of one check has the same shapes, so one context,
        # rebound per input, computes the TACO layout once.
        context = self._evaluator.context({})
        for row in inputs:
            try:
                example = self._generator.generate_one(
                    sizes=sizes, values=None if row is None else plan.values(row)
                )
            except CRuntimeError:
                # The original C program traps on this input (e.g. divides by
                # zero): such executions are outside the equivalence claim,
                # exactly as CBMC treats traps, so the input is skipped.
                continue
            checks += 1
            if not self._check_example(program, example, context):
                return VerificationResult(
                    equivalent=False,
                    checks_run=checks,
                    counterexample=example,
                    exhaustive=exhaustive,
                )
        # No input ran when the C kernel trapped on every one: a check of
        # nothing is no evidence of equivalence.
        return VerificationResult(
            equivalent=checks > 0, checks_run=checks, exhaustive=exhaustive
        )

    # ------------------------------------------------------------------ #
    # Proof by the identity of rational functions
    # ------------------------------------------------------------------ #
    def _prove(self, program: TacoProgram) -> Union[None, Tuple[int, ...], _Refutation]:
        """The sizes proved, the first refuting size, or None.

        None means no proof is possible: the C kernel traps at
        ``size_bound``, or the TACO program divides by a polynomial the C
        kernel does not.  Raises :class:`NotPolynomial` when either side
        needs an input's value.
        """
        bound = self._config.size_bound
        proved = []
        for size in range(1, bound + 2):
            run = self._symbolic_run(size)
            if run is None:
                if size == bound:
                    return None
                continue
            try:
                actual = self._evaluator.evaluate(
                    program,
                    {access.name: run.inputs[access.name] for access in program.rhs.tensors()},
                    output_shape=run.plan.output_shape,
                )
            except (TacoError, KeyError, ZeroDivisionError):
                return _Refutation(run, None, run.divisors)
            expected = np.asarray(run.output, dtype=object)
            actual = np.asarray(actual, dtype=object)
            if actual.shape != expected.shape:
                return _Refutation(run, None, run.divisors)
            actual = actual.reshape(-1)
            divisors = frozenset().union(
                *(got.divisors for got in actual if isinstance(got, Quotient))
            )
            for want, got in zip(expected.reshape(-1), actual):
                difference = want - got
                if not is_zero(difference):
                    return _Refutation(run, difference, run.divisors | divisors)
            if not divisors <= run.divisors:
                return None  # the TACO program may trap where C does not
            proved.append(size)
        return tuple(proved)

    def _symbolic_run(self, size: int) -> Optional[SymbolicRun]:
        """The kernel's shared symbolic run at *size* (None: it traps there)."""
        sizes = {name: size for name in self._task.spec.sizes}
        try:
            return self._kernel.symbolic_run(self._task, sizes)
        except NotPolynomial:
            self._polynomial = False
            raise

    def _witness_example(self, refutation: _Refutation) -> IOExample:
        """The C kernel's run at an integer point that refutes.

        The point keeps the difference's numerator and every divisor
        non-zero; when that product is constant, any point does.
        """
        run = refutation.run
        rng = random.Random(WITNESS_SEED)
        point = {ident: rng.randint(-2, 2) for ident in range(len(run.variables))}
        difference = refutation.difference
        nonzero = difference.numerator if isinstance(difference, Quotient) else difference
        if nonzero is None:
            nonzero = 1
        for divisor in refutation.divisors:
            nonzero = nonzero * Poly(dict(divisor))
        if isinstance(nonzero, Poly):
            point.update(witness(nonzero, rng))
        return self._generator.generate_one(
            sizes=run.plan.sizes, values=run.values(point)
        )

    # ------------------------------------------------------------------ #
    # Input enumeration
    # ------------------------------------------------------------------ #
    def _value_choices(self) -> Tuple[int, ...]:
        values = self._config.value_set
        if self._task.spec.avoid_zero:
            values = tuple(v for v in values if v != 0) or (1,)
        return values

    def _exhaustive_inputs(self, slots: int) -> Iterator[_Input]:
        yield from itertools.product(self._value_choices(), repeat=slots)

    def _sampled_inputs(self, slots: int) -> Iterator[_Input]:
        # Structured corner cases first: all zeros, ones, minus ones, twos.
        for pattern in (0, 1, -1, 2):
            if self._task.spec.avoid_zero and pattern == 0:
                continue
            yield (pattern,) * slots
        for _ in range(self._config.sampled_checks):
            yield None

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #
    def _check_example(
        self, program: TacoProgram, example: IOExample, context: EvaluationContext
    ) -> bool:
        """Whether *program* reproduces *example*, evaluated in *context*."""
        try:
            context.rebind({
                name: example.inputs[name]
                for name in {access.name for access in program.rhs.tensors()}
            })
            result = self._evaluator.evaluate_in_context(
                context, program, output_shape=example.output_shape()
            )
        except (TacoError, KeyError, ZeroDivisionError):
            return False
        return _outputs_equal(result, example.output)
