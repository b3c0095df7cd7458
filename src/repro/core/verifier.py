"""Equivalence verification (Section 7): proof first, bounded lanes as fallback.

The paper lowers both the original C program and the lifted TACO program to a
common representation and hands them to CBMC (extended with rational
datatypes) to prove input/output equivalence for all inputs up to a bound.
This reproduction does the same in two ways.

Proof
-----

With sizes fixed, a kernel without division by an input is a loop nest whose
control flow does not depend on input values, so the C kernel and a TACO
program each compute, per output element, a polynomial in the input
elements — and they agree on every rational input exactly when those
polynomials are equal.  :meth:`BoundedEquivalenceChecker.verify` first runs
both sides once on polynomial variables (:mod:`repro.core.poly`) at every
uniform size from 1 to ``size_bound + 1``, one variable per free input
element and per initial output-buffer element.  Equal polynomials at every
size are a proof (``proved=True``) and draw no random inputs.  A size at
which the C kernel traps is outside the claim and skipped, except at
``size_bound`` itself.

Bounded lanes (fallback)
------------------------

When a side needs the value of an input — division by one, a
value-dependent branch or subscript, a math call on one (the run raises
:class:`~repro.core.poly.NotPolynomial`) — or the C kernel traps at
``size_bound``, :meth:`~BoundedEquivalenceChecker.check_lanes` runs the
explicit-state analogue of CBMC's check:

* sizes are fixed to ``size_bound``,
* input values range over a small set of exact rationals,
* the space of inputs is enumerated **exhaustively** when it is smaller than
  a configurable cap, and sampled deterministically (after the structured
  corner cases all-zeros, all-ones, all-minus-ones and all-twos) otherwise,
* both sides are executed in exact rational arithmetic and compared for
  equality.

When the polynomials differ, the program is refuted without the lanes: the
difference polynomial is evaluated at seeded integer points until one is
non-zero (Schwartz–Zippel), and the C kernel's run at that point is the
counterexample.  When the TACO side fails or has the wrong shape, or the
difference is a non-zero constant, any point refutes.

Lanes
-----

Each input is a *lane*, and lanes are checked in chunks of
:data:`LANE_CHUNK`.  A chunk's inputs are drawn together, the C kernel is
interpreted once over lane values (:mod:`repro.cfront.interpreter`), the TACO
program is evaluated once over a leading lane axis
(:meth:`~repro.taco.evaluator.TacoEvaluator.evaluate_lanes`), and the outputs
are compared lane by lane.  The first mismatching lane is the counterexample.
When a chunk cannot run in lockstep — a condition or subscript differs
between lanes, a lane traps, or the batched TACO evaluation raises — the chunk
is redrawn and checked one input at a time, skipping trapping inputs as
before.  Either way the verdict, ``checks_run``, the counterexample and the
example generator's random state are exactly those of checking the inputs
one at a time, so batching changes the cost of the bounded check, not its
guarantee.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..cfront import FunctionDef
from ..cfront.analysis import SignatureInfo, analyze_signature
from ..cfront.errors import CRuntimeError
from ..cfront.interpreter import LaneDivergence
from ..taco import TacoProgram
from ..taco.errors import TacoError
from ..taco.evaluator import TacoEvaluator
from .io_examples import IOExample, IOExampleGenerator, Lane, SymbolicRun
from .poly import NotPolynomial, Poly, is_zero, witness
from .task import LiftingTask
from .validator import _outputs_equal

#: Lanes checked per batched run.  Bounds the memory of one run (every
#: intermediate value holds one entry per lane) and the work a divergent
#: chunk repeats lane by lane.
LANE_CHUNK = 256

#: Seed of the integer points a refuting difference polynomial is evaluated
#: at.
WITNESS_SEED = 1729


@dataclass(frozen=True)
class VerifierConfig:
    """Bounds for the equivalence check."""

    #: Value each size parameter is fixed to by the lane check; the proof
    #: covers every uniform size from 1 to ``size_bound + 1``.
    size_bound: int = 2
    #: The exact values input elements range over during exhaustive checks.
    value_set: Tuple[int, ...] = (-2, -1, 0, 1, 2)
    #: Exhaustively enumerate the input space only if it has at most this
    #: many points; otherwise fall back to deterministic sampling.
    exhaustive_cap: int = 4096
    #: Number of sampled inputs when the space is too large to enumerate.
    sampled_checks: int = 64
    #: Avoid zero values when the kernel divides by an input.
    avoid_zero: bool = False


@dataclass
class VerificationResult:
    """Outcome of the equivalence check."""

    equivalent: bool
    #: Inputs checked: the lanes run, one for a polynomial witness, none
    #: for a proof.
    checks_run: int
    counterexample: Optional[IOExample] = None
    exhaustive: bool = False
    #: Equal polynomials: equivalent on every rational input at these sizes.
    proved: bool = False
    #: The uniform sizes the proof covers (empty unless ``proved``).
    proved_sizes: Tuple[int, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


@dataclass
class _Refutation:
    """Unequal polynomials at one size."""

    run: SymbolicRun
    #: The first non-zero output difference (a Poly or a non-zero constant);
    #: None when the TACO side fails or has the wrong shape, so that every
    #: input refutes.
    difference: object


class BoundedEquivalenceChecker:
    """Checks a lifted TACO program against the original C kernel."""

    def __init__(
        self,
        task: LiftingTask,
        function: Optional[FunctionDef] = None,
        signature: Optional[SignatureInfo] = None,
        config: Optional[VerifierConfig] = None,
    ) -> None:
        self._task = task
        self._function = function if function is not None else task.parse()
        self._signature = (
            signature if signature is not None else analyze_signature(self._function)
        )
        self._config = config if config is not None else VerifierConfig()
        self._evaluator = TacoEvaluator(mode="exact")
        self._generator = IOExampleGenerator(
            task, self._function, self._signature, seed=1729
        )
        #: Symbolic C runs by uniform size (None: the kernel traps there).
        self._runs: Dict[int, Optional[SymbolicRun]] = {}
        #: False once the C kernel is found to need an input's value.
        self._polynomial = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def verify(self, program: TacoProgram) -> VerificationResult:
        """Verify that *program* is equivalent to the C kernel.

        Proves or refutes it by polynomial identity where both sides allow
        it, and otherwise falls back to :meth:`check_lanes`.
        """
        proof = None
        if self._polynomial:
            try:
                proof = self._prove(program)
            except NotPolynomial:
                pass
        if proof is None:
            return self.check_lanes(program)
        if isinstance(proof, _Refutation):
            return VerificationResult(
                equivalent=False, checks_run=1, counterexample=self._witness_example(proof)
            )
        return VerificationResult(
            equivalent=True, checks_run=0, proved=True, proved_sizes=proof
        )

    def check_lanes(self, program: TacoProgram) -> VerificationResult:
        """Bounded-check *program* on sampled or enumerated input lanes."""
        config = self._config
        sizes = {name: config.size_bound for name in self._task.spec.sizes}
        plan = self._generator.plan(sizes)
        slots = sum(slot.count for slot in plan.free_slots)
        total_points = len(config.value_set) ** max(slots, 0) if slots else 1
        exhaustive = 0 < total_points <= config.exhaustive_cap and slots > 0

        lanes = self._exhaustive_lanes(slots) if exhaustive else self._sampled_lanes(slots)
        checks = 0
        while True:
            chunk = list(itertools.islice(lanes, LANE_CHUNK))
            if not chunk:
                return VerificationResult(
                    equivalent=True, checks_run=checks, exhaustive=exhaustive
                )
            counterexample, checked = self._check_chunk(program, sizes, chunk)
            checks += checked
            if counterexample is not None:
                return VerificationResult(
                    equivalent=False,
                    checks_run=checks,
                    counterexample=counterexample,
                    exhaustive=exhaustive,
                )

    # ------------------------------------------------------------------ #
    # Proof by polynomial identity
    # ------------------------------------------------------------------ #
    def _prove(self, program: TacoProgram) -> Union[None, Tuple[int, ...], _Refutation]:
        """The sizes proved, the first refuting size, or None.

        None means no proof is possible: the C kernel traps at
        ``size_bound``.  Raises :class:`NotPolynomial` when either side
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
                return _Refutation(run, None)
            expected = np.asarray(run.output, dtype=object)
            actual = np.asarray(actual, dtype=object)
            if actual.shape != expected.shape:
                return _Refutation(run, None)
            for want, got in zip(expected.reshape(-1), actual.reshape(-1)):
                difference = want - got
                if not is_zero(difference):
                    return _Refutation(run, difference)
            proved.append(size)
        return tuple(proved)

    def _symbolic_run(self, size: int) -> Optional[SymbolicRun]:
        if size not in self._runs:
            sizes = {name: size for name in self._task.spec.sizes}
            try:
                self._runs[size] = self._generator.run_symbolic(sizes)
            except CRuntimeError:
                self._runs[size] = None
            except NotPolynomial:
                self._polynomial = False
                raise
        return self._runs[size]

    def _witness_example(self, refutation: _Refutation) -> IOExample:
        """The C kernel's run at an integer point that refutes.

        Unless the difference is a non-constant polynomial, any point does.
        """
        run = refutation.run
        rng = random.Random(WITNESS_SEED)
        point = {ident: rng.randint(-2, 2) for ident in range(len(run.variables))}
        if isinstance(refutation.difference, Poly):
            point.update(witness(refutation.difference, rng))
        return self._generator.generate_one(
            sizes=run.plan.sizes, values=run.values(point)
        )

    # ------------------------------------------------------------------ #
    # Input enumeration
    # ------------------------------------------------------------------ #
    def _avoid_zero(self) -> bool:
        return self._config.avoid_zero or self._task.spec.avoid_zero

    def _value_choices(self) -> Tuple[int, ...]:
        values = self._config.value_set
        if self._avoid_zero():
            values = tuple(v for v in values if v != 0) or (1,)
        return values

    def _exhaustive_lanes(self, slots: int) -> Iterator[Lane]:
        for row in itertools.product(self._value_choices(), repeat=slots):
            yield row, False

    def _sampled_lanes(self, slots: int) -> Iterator[Lane]:
        avoid_zero = self._avoid_zero()
        # Structured corner cases first: all zeros, ones, minus ones, twos.
        for pattern in (0, 1, -1, 2):
            if avoid_zero and pattern == 0:
                continue
            yield (pattern,) * slots, False
        for _ in range(self._config.sampled_checks):
            yield None, avoid_zero

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #
    def _check_chunk(
        self, program: TacoProgram, sizes: Mapping[str, int], chunk: List[Lane]
    ) -> Tuple[Optional[IOExample], int]:
        """Check one chunk of lanes: (first counterexample or None, checks run).

        The lanes run batched; the generator's RNG ends where checking the
        lanes one at a time, up to the counterexample, would leave it.
        """
        generator = self._generator
        state = generator.getstate()
        batch = generator.draw_lanes(sizes, chunk)
        try:
            expected = generator.run_lanes(batch)
            actual = self._evaluator.evaluate_lanes(
                program,
                {access.name: batch.inputs[access.name] for access in program.rhs.tensors()},
                batch.lanes,
                batch.plan.output_shape,
            )
        except (LaneDivergence, CRuntimeError, TacoError, KeyError, ZeroDivisionError):
            generator.setstate(state)
            return self._check_lanes_one_by_one(program, sizes, chunk)
        if actual.shape != expected.shape:
            agree = np.zeros(batch.lanes, dtype=bool)
        else:
            agree = (actual == expected).all(axis=tuple(range(1, expected.ndim)))
        if agree.all():
            return None, batch.lanes
        lane = int(np.argmin(agree))
        # Leave the RNG where a lane-by-lane check stops: after lane `lane`.
        generator.setstate(state)
        generator.draw_lanes(sizes, chunk[: lane + 1])
        return batch.example(lane, expected), lane + 1

    def _check_lanes_one_by_one(
        self, program: TacoProgram, sizes: Mapping[str, int], chunk: List[Lane]
    ) -> Tuple[Optional[IOExample], int]:
        plan = self._generator.plan(sizes)
        checks = 0
        for row, avoid_zero in chunk:
            try:
                example = self._generator.generate_one(
                    sizes=sizes,
                    avoid_zero=avoid_zero,
                    values=None if row is None else plan.values(row),
                )
            except CRuntimeError:
                # The original C program traps on this input (e.g. divides by
                # zero): such executions are outside the equivalence claim,
                # exactly as CBMC treats traps, so the input is skipped.
                continue
            checks += 1
            if not self._check_example(program, example):
                return example, checks
        return None, checks

    def _check_example(self, program: TacoProgram, example: IOExample) -> bool:
        try:
            bindings = {
                name: example.inputs[name]
                for name in {access.name for access in program.rhs.tensors()}
            }
            result = self._evaluator.evaluate(
                program, bindings, output_shape=example.output_shape()
            )
        except (TacoError, KeyError, ZeroDivisionError):
            return False
        return _outputs_equal(result, example.output)
