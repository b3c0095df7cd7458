"""Template validation against input/output examples (Section 6).

A complete template produced by the search contains symbolic tensors
(``a``, ``b``, ``c``, ...) and symbolic constants (``Const``).  The validator
searches for a *substitution* mapping those symbols onto the concrete
arguments of the legacy function (and onto constants harvested from its
source) such that the instantiated TACO program reproduces the recorded
outputs on every input/output example.

Substitutions that bind a tensor symbol to an argument of a different rank
are discarded up front, mirroring Figure 8 of the paper.

Hot-path architecture
---------------------

The validator sits on the search's critical path: a single query tries
thousands of substitutions within its time budget, and the overwhelming
majority of them are wrong.  Two optimisations keep each attempt cheap:

* **Per-task example pre-conversion.**  Each I/O example's tensors are
  converted *once*, at construction time, into both a float64
  :class:`~repro.taco.evaluator.EvaluationContext` and an exact
  (``Fraction`` object-array) one — instead of re-converting the same
  arrays from scratch for every candidate.  The contexts also memoize the
  iteration-space layout per access pattern, which almost never changes
  between candidates of one template grammar.

* **Tiered validation.**  A fast float64 *screen* evaluates the candidate on
  a single example and rejects it unless the result matches the recorded
  output to within a tight tolerance; only survivors pay for the exact
  ``Fraction`` confirmation over all examples.  Because the screen's inputs
  are small integers, float64 arithmetic is accurate to ~1e-15 relative
  while the screen tolerance is 1e-6, so the screen never rejects a
  candidate the exact tier would accept — tiered and exact-only validation
  produce identical outcomes (a property the test suite checks on every
  corpus kernel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..taco import (
    BinaryOp,
    Constant,
    Expression,
    SymbolicConstant,
    TacoProgram,
    TensorAccess,
    UnaryOp,
)
from ..taco.errors import TacoError
from ..taco.evaluator import EvaluationContext, TacoEvaluator
from .io_examples import IOExample

#: Upper bound on substitutions tried per template; a safety valve against
#: pathological argument counts (never reached by the corpus).
MAX_SUBSTITUTIONS = 4096

#: Tolerances for the float64 screen.  Inputs are small integers, so two
#: genuinely equal rational results differ by at most a few ULPs in float64;
#: 1e-6 relative leaves ~9 orders of magnitude of slack against a false
#: reject while still screening out essentially every wrong candidate.
SCREEN_RTOL = 1e-6
SCREEN_ATOL = 1e-9

#: How many substitutions the validator tries between budget polls; small
#: enough that a cancelled lift stops within microseconds of real work,
#: large enough that the monotonic-clock read stays off the hot path.
BUDGET_POLL_INTERVAL = 64


@dataclass
class ValidationResult:
    """Outcome of validating one template."""

    success: bool
    substitution: Dict[str, str] = field(default_factory=dict)
    constant_values: Dict[str, Union[int, float, Fraction]] = field(default_factory=dict)
    concrete_program: Optional[TacoProgram] = None
    substitutions_tried: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.success


@dataclass
class ValidatorStats:
    """Hot-path counters, exposed for tests and the perf harness."""

    #: Substitutions evaluated (tiered or not).
    candidates: int = 0
    #: Substitutions rejected by the float64 screen (tier 1).
    screen_rejects: int = 0
    #: Substitutions that reached the exact tier.
    exact_checks: int = 0


class _ExampleState:
    """One I/O example pre-converted for both validation tiers.

    The float tier's comparison tolerance (``atol + rtol * |expected|``,
    matching :func:`numpy.isclose`) is precomputed per element so the screen
    is two ufunc calls instead of a ``numpy.allclose`` round trip.
    """

    __slots__ = (
        "exact_context",
        "float_context",
        "exact_output",
        "float_output",
        "float_tolerance",
        "output_shape",
    )

    def __init__(self, example: IOExample) -> None:
        self.exact_context = EvaluationContext(example.inputs, mode="exact")
        self.float_context = EvaluationContext(example.inputs, mode="float")
        self.output_shape = example.output_shape()
        self.exact_output = example.output
        if isinstance(example.output, np.ndarray):
            self.float_output: Union[float, np.ndarray] = np.asarray(
                example.output, dtype=np.float64
            )
            self.float_tolerance: Union[float, np.ndarray] = (
                SCREEN_ATOL + SCREEN_RTOL * np.abs(self.float_output)
            )
        else:
            self.float_output = float(example.output)
            self.float_tolerance = SCREEN_ATOL + SCREEN_RTOL * abs(self.float_output)


class TemplateValidator:
    """Validates templates against I/O examples for one lifting task."""

    def __init__(
        self,
        examples: Sequence[IOExample],
        constants: Sequence[Union[int, float, Fraction]] = (),
        max_substitutions: int = MAX_SUBSTITUTIONS,
        tiered: bool = True,
    ) -> None:
        if not examples:
            raise ValueError("the validator needs at least one I/O example")
        self._examples = list(examples)
        self._constants = list(constants) if constants else []
        self._max_substitutions = max_substitutions
        self._tiered = tiered
        self._exact_evaluator = TacoEvaluator(mode="exact")
        self._float_evaluator = TacoEvaluator(mode="float")
        self._states = [_ExampleState(example) for example in self._examples]
        self._argument_ranks = self._compute_argument_ranks()
        self.stats = ValidatorStats()

    @property
    def tiered(self) -> bool:
        return self._tiered

    @property
    def example_states(self) -> Sequence[_ExampleState]:
        """The pre-converted per-example evaluation state (for tests/benchmarks)."""
        return self._states

    # ------------------------------------------------------------------ #
    # Candidate argument pools
    # ------------------------------------------------------------------ #
    def _compute_argument_ranks(self) -> Dict[str, int]:
        ranks: Dict[str, int] = {}
        example = self._examples[0]
        for name in example.inputs:
            ranks[name] = example.input_rank(name)
        return ranks

    def _candidates_for_rank(self, rank: int) -> List[str]:
        return [name for name, r in self._argument_ranks.items() if r == rank]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, template: TacoProgram, budget=None) -> ValidationResult:
        """Search for a substitution that satisfies every I/O example.

        ``budget`` (duck-typed: anything with ``expired()``) is polled every
        :data:`BUDGET_POLL_INTERVAL` substitutions, so a cancelled or
        deadline-expired lift stops mid-enumeration rather than finishing a
        long substitution sweep first.
        """
        rhs_symbols = self._rhs_tensor_symbols(template)
        constant_count = self._count_symbolic_constants(template)

        pools: List[List[str]] = []
        for symbol, rank in rhs_symbols:
            candidates = self._candidates_for_rank(rank)
            if not candidates:
                return ValidationResult(success=False, substitutions_tried=0)
            pools.append(candidates)

        constant_pool: List[Union[int, float, Fraction]] = list(self._constants)
        if constant_count and not constant_pool:
            return ValidationResult(success=False, substitutions_tried=0)

        # Per-template precomputation shared by every substitution below.
        raw_accesses = tuple((a.name, a.indices) for a in template.rhs.tensors())
        # With at most one Const occurrence the template can be evaluated
        # directly (symbols aliased to arguments, the constant supplied by
        # name), deferring instantiation to the single successful candidate.
        use_alias = constant_count <= 1

        tried = 0
        for assignment in itertools.product(*pools) if pools else [()]:
            substitution = {
                symbol: argument
                for (symbol, _rank), argument in zip(rhs_symbols, assignment)
            }
            for constant_choice in (
                itertools.product(constant_pool, repeat=constant_count)
                if constant_count
                else [()]
            ):
                tried += 1
                if tried > self._max_substitutions:
                    return ValidationResult(success=False, substitutions_tried=tried)
                if (
                    budget is not None
                    and tried % BUDGET_POLL_INTERVAL == 0
                    and budget.expired()
                ):
                    return ValidationResult(success=False, substitutions_tried=tried)
                concrete = self._satisfying_program(
                    template, substitution, constant_choice, raw_accesses, use_alias
                )
                if concrete is not None:
                    constant_values = {
                        f"Const{position or ''}": value
                        for position, value in enumerate(constant_choice)
                    }
                    return ValidationResult(
                        success=True,
                        substitution=dict(substitution),
                        constant_values=constant_values,
                        concrete_program=concrete,
                        substitutions_tried=tried,
                    )
        return ValidationResult(success=False, substitutions_tried=tried)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rhs_tensor_symbols(template: TacoProgram) -> List[Tuple[str, int]]:
        """Unique RHS tensor symbols with their ranks, in appearance order."""
        seen: Dict[str, int] = {}
        for access in template.rhs.tensors():
            seen.setdefault(access.name, access.rank)
        return list(seen.items())

    @staticmethod
    def _count_symbolic_constants(template: TacoProgram) -> int:
        count = 0
        stack: List[Expression] = [template.rhs]
        while stack:
            node = stack.pop()
            if isinstance(node, (SymbolicConstant,)):
                count += 1
            elif isinstance(node, BinaryOp):
                stack.extend((node.left, node.right))
            elif isinstance(node, UnaryOp):
                stack.append(node.operand)
        return count

    def _satisfying_program(
        self,
        template: TacoProgram,
        substitution: Mapping[str, str],
        constant_choice: Sequence[Union[int, float, Fraction]],
        raw_accesses: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None,
        use_alias: Optional[bool] = None,
    ) -> Optional[TacoProgram]:
        """The instantiated program if it satisfies every example, else None.

        In the common case (at most one ``Const`` occurrence) the template is
        evaluated *directly*: tensor symbols are aliased onto the substituted
        arguments and the constant is supplied by name, so the concrete
        program is instantiated exactly once — for the (rare) successful
        substitution — and returned for reuse by ``validate``.  Templates
        with several ``Const`` placeholders need positional constant filling
        and fall back to instantiating up front.
        """
        self.stats.candidates += 1
        if raw_accesses is None:
            raw_accesses = tuple((a.name, a.indices) for a in template.rhs.tensors())
        if use_alias is None:
            use_alias = self._count_symbolic_constants(template) <= 1
        access_key = tuple(
            (substitution.get(name, name), indices) for name, indices in raw_accesses
        )
        if use_alias:
            program: TacoProgram = template
            aliases: Optional[Mapping[str, str]] = substitution
            constants = {"Const": constant_choice[0]} if constant_choice else None
            concrete: Optional[TacoProgram] = None
        else:
            program = concrete = instantiate(template, substitution, constant_choice)
            aliases = None
            constants = None

        if self._tiered and not self._float_screen(program, access_key, aliases, constants):
            self.stats.screen_rejects += 1
            return None
        self.stats.exact_checks += 1
        for state in self._states:
            try:
                result = self._exact_evaluator.evaluate_in_context(
                    state.exact_context,
                    program,
                    output_shape=state.output_shape,
                    constants=constants,
                    aliases=aliases,
                    access_key=access_key,
                )
            except (TacoError, KeyError, ZeroDivisionError):
                return None
            if not _outputs_equal(result, state.exact_output):
                return None
        if concrete is None:
            concrete = instantiate(template, substitution, constant_choice)
        return concrete

    def _float_screen(
        self,
        program: TacoProgram,
        access_key: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None,
        aliases: Optional[Mapping[str, str]] = None,
        constants: Optional[Mapping[str, Union[int, float, Fraction]]] = None,
    ) -> bool:
        """Tier 1: cheap float64 evaluation of one example.

        Returns False only when the candidate is definitely wrong; anything
        uncertain (including evaluation errors, which the exact tier rejects
        too) falls through to the exact tier or is a guaranteed exact reject.
        """
        state = self._states[0]
        try:
            result = self._float_evaluator.evaluate_in_context(
                state.float_context,
                program,
                output_shape=state.output_shape,
                constants=constants,
                aliases=aliases,
                access_key=access_key,
            )
        except (TacoError, KeyError, ZeroDivisionError):
            # The exact tier fails identically on this example: a float64
            # error here (missing binding, rank mismatch, scalar division by
            # zero) has the same cause in exact arithmetic.
            return False
        expected = state.float_output
        if isinstance(expected, np.ndarray):
            actual = np.asarray(result, dtype=np.float64)
            if actual.shape != expected.shape:
                return False
            # |actual - expected| <= atol + rtol * |expected|, with the right
            # side precomputed per example.  NaN/inf differences compare
            # False and reject, exactly like numpy.allclose.
            return bool((np.abs(actual - expected) <= state.float_tolerance).all())
        try:
            actual_scalar = float(result)
        except (TypeError, ValueError):
            return False
        return abs(actual_scalar - expected) <= state.float_tolerance


def instantiate(
    template: TacoProgram,
    substitution: Mapping[str, str],
    constant_values: Sequence[Union[int, float, Fraction]] = (),
) -> TacoProgram:
    """Instantiate a template: rename tensors and fill in constants.

    The left-hand-side symbol keeps its name unless the substitution maps it
    explicitly (the validator leaves it to the caller, since the output
    argument is determined by the signature analysis rather than searched).
    """
    constants = list(constant_values)
    position = {"next": 0}

    def rewrite(expr: Expression) -> Expression:
        if isinstance(expr, TensorAccess):
            return TensorAccess(substitution.get(expr.name, expr.name), expr.indices)
        if isinstance(expr, SymbolicConstant):
            if position["next"] < len(constants):
                value = constants[position["next"]]
                position["next"] += 1
                return Constant(value if not isinstance(value, Fraction) else value)
            return expr
        if isinstance(expr, Constant):
            return expr
        if isinstance(expr, UnaryOp):
            return UnaryOp(rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        raise TypeError(f"unknown expression node {expr!r}")

    lhs = TensorAccess(
        substitution.get(template.lhs.name, template.lhs.name), template.lhs.indices
    )
    return TacoProgram(lhs, rewrite(template.rhs))


def _outputs_equal(actual, expected) -> bool:
    """Exact comparison between evaluator output and recorded C output.

    Array comparison happens element-wise inside NumPy's object-array
    equality loop (``Fraction.__eq__`` compares exactly against ints, floats
    and other Fractions), avoiding a Python-level loop that re-wraps every
    element in a fresh ``Fraction``.
    """
    if isinstance(expected, np.ndarray) or isinstance(actual, np.ndarray):
        actual_arr = np.asarray(actual, dtype=object)
        expected_arr = np.asarray(expected, dtype=object)
        if actual_arr.shape != expected_arr.shape:
            return False
        if actual_arr.size == 0:
            return True
        return bool(np.all(actual_arr == expected_arr))
    try:
        return Fraction(actual) == Fraction(expected)
    except (TypeError, ValueError):
        return actual == expected
