"""Bounded equivalence verification (Section 7).

The paper lowers both the original C program and the lifted TACO program to a
common representation and hands them to CBMC (extended with rational
datatypes) to prove input/output equivalence for all inputs up to a bound.
This reproduction performs the explicit-state analogue of that check:

* sizes are fixed to a small bound,
* input values range over a small set of exact rationals,
* the space of inputs is enumerated **exhaustively** when it is smaller than
  a configurable cap, and sampled deterministically (after the structured
  corner cases all-zeros, all-ones, all-minus-ones and all-twos) otherwise,
* both sides are executed in exact rational arithmetic and compared for
  equality.

The guarantee is the same *bounded* guarantee CBMC provides, obtained by
enumeration instead of SAT/SMT solving.

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
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..cfront import FunctionDef
from ..cfront.analysis import SignatureInfo, analyze_signature
from ..cfront.errors import CRuntimeError
from ..cfront.interpreter import LaneDivergence
from ..taco import TacoProgram
from ..taco.errors import TacoError
from ..taco.evaluator import TacoEvaluator
from .io_examples import IOExample, IOExampleGenerator, Lane
from .task import LiftingTask
from .validator import _outputs_equal

#: Lanes checked per batched run.  Bounds the memory of one run (every
#: intermediate value holds one entry per lane) and the work a divergent
#: chunk repeats lane by lane.
LANE_CHUNK = 256


@dataclass(frozen=True)
class VerifierConfig:
    """Bounds for the bounded equivalence check."""

    #: Value each size parameter is fixed to during verification.
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
    """Outcome of the bounded equivalence check."""

    equivalent: bool
    checks_run: int
    counterexample: Optional[IOExample] = None
    exhaustive: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


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

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def verify(self, program: TacoProgram) -> VerificationResult:
        """Bounded-verify that *program* is equivalent to the C kernel."""
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
