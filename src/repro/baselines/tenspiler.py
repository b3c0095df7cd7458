"""A reimplementation of the Tenspiler baseline (Qiu et al., ECOOP 2024).

Tenspiler is a verified-lifting compiler: it searches a hand-designed space
of *operator templates* (its tensor IR covers element-wise arithmetic,
scalar-tensor operations, reductions, and matrix-vector style contractions),
builds verification conditions for each candidate, and accepts the first one
that can be proven equivalent.  Its strength is speed on kernels that fall
inside that template library; its weakness — which the paper's evaluation
exposes — is coverage: kernels outside the library (three-operand
expressions, higher-rank contractions, constants in unusual positions) are
simply not expressible.

This reproduction models exactly that behaviour: a fixed library of TACO
skeletons is instantiated against the kernel's arguments, validated on I/O
examples and bounded-verified (standing in for Tenspiler's VC-based proof).
The library deliberately covers the same ground as Tenspiler's tensor IR and
no more, so its coverage lands close to the 78% reported in Figure 10.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..core.kernel import kernel_of
from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from ..taco import TacoProgram, parse_program
from ..taco.errors import TacoError
from .base import BaselineLifter, TaskContext

#: The operator-template library, written over symbolic names:
#:   ``OUT`` — the output tensor (rank decides the index pattern),
#:   ``X`` / ``Y`` — rank-matched input tensors,
#:   ``S``       — a scalar argument, ``C`` — a constant from the source.
#: Rank-specific index patterns are substituted by the lifter.
TEMPLATE_LIBRARY: Tuple[str, ...] = (
    # element-wise binary operations
    "OUT := X OP Y",
    # scalar / constant broadcasts
    "OUT := X OP S",
    "OUT := S OP X",
    "OUT := X OP C",
    "OUT := C OP X",
    # pure copy / negation-style unary forms
    "OUT := X",
    # reductions to scalar
    "SUM := X",
    "DOT := X * Y",
    # matrix-vector / matrix-matrix contractions
    "MATVEC := M * V",
    "MATMUL := A * B",
)

#: Operators Tenspiler's tensor IR exposes for element-wise templates.
_OPERATORS = ("*", "+", "-", "/")


class TenspilerLifter(BaselineLifter):
    """Verified-lifting baseline over a fixed operator-template library."""

    label = "Tenspiler"

    # ------------------------------------------------------------------ #
    # Lifting
    # ------------------------------------------------------------------ #
    def _lift_with_context(
        self,
        task: LiftingTask,
        context: TaskContext,
        report: SynthesisReport,
        started: float,
    ) -> None:
        kernel = kernel_of(task)
        signature = kernel.signature
        prediction = kernel.dimensions
        constants = kernel.constants

        output = signature.output_argument
        output_rank = prediction.output_rank if output is not None else 0
        output_name = output if output is not None else "result"

        tensors = [
            (name, prediction.rank(name))
            for name in signature.tensors()
        ]
        scalars = list(signature.scalars())

        for candidate in self._instantiations(
            output_name, output_rank, tensors, scalars, constants
        ):
            if self._out_of_time(started, context.budget):
                report.timed_out = True
                return
            report.attempts += 1
            solved, validation, _verification = self._check(context, candidate)
            if solved and validation is not None:
                report.success = True
                report.template = candidate
                report.lifted_program = validation.concrete_program or candidate
                return

    # ------------------------------------------------------------------ #
    # Template instantiation
    # ------------------------------------------------------------------ #
    def _instantiations(
        self,
        output: str,
        output_rank: int,
        tensors: Sequence[Tuple[str, int]],
        scalars: Sequence[str],
        constants: Sequence,
    ) -> Iterator[TacoProgram]:
        """Yield concrete TACO programs from the template library, in order."""
        index = {0: "", 1: "(i)", 2: "(i,j)", 3: "(i,j,k)"}
        out_access = f"{output}{index.get(output_rank, '(i)')}"
        rank_matched = [(name, rank) for name, rank in tensors if rank == output_rank]

        # 1. Element-wise binary operations between rank-matched inputs.
        for (x, _), (y, _) in _ordered_pairs(rank_matched):
            for op in _OPERATORS:
                yield self._parse(
                    f"{out_access} = {x}{index[output_rank]} {op} {y}{index[output_rank]}"
                )

        # 2. Scalar / constant broadcasts onto a rank-matched input.
        for x, _ in rank_matched:
            for scalar in scalars:
                for op in _OPERATORS:
                    yield self._parse(f"{out_access} = {x}{index[output_rank]} {op} {scalar}")
                    yield self._parse(f"{out_access} = {scalar} {op} {x}{index[output_rank]}")
            for constant in constants:
                for op in _OPERATORS:
                    yield self._parse(f"{out_access} = {x}{index[output_rank]} {op} {constant}")
                    yield self._parse(f"{out_access} = {constant} {op} {x}{index[output_rank]}")

        # 3. Copy.
        for x, _ in rank_matched:
            yield self._parse(f"{out_access} = {x}{index[output_rank]}")

        # 4. Reductions to scalar: plain sum and dot product.
        if output_rank == 0:
            for x, rank in tensors:
                if rank == 1:
                    yield self._parse(f"{output} = {x}(i)")
            for (x, rank_x), (y, rank_y) in _ordered_pairs(tensors):
                if rank_x == 1 and rank_y == 1:
                    yield self._parse(f"{output} = {x}(i) * {y}(i)")

        # 5. Matrix-vector and matrix-matrix contractions.
        if output_rank == 1:
            for x, rank_x in tensors:
                for y, rank_y in tensors:
                    if rank_x == 2 and rank_y == 1:
                        yield self._parse(f"{out_access} = {x}(i,j) * {y}(j)")
                        yield self._parse(f"{out_access} = {x}(j,i) * {y}(j)")
        if output_rank == 2:
            for x, rank_x in tensors:
                for y, rank_y in tensors:
                    if x != y and rank_x == 2 and rank_y == 2:
                        yield self._parse(f"{out_access} = {x}(i,k) * {y}(k,j)")

    @staticmethod
    def _parse(source: str) -> TacoProgram:
        try:
            return parse_program(source)
        except TacoError as error:  # pragma: no cover - templates are well-formed
            raise AssertionError(f"malformed library template {source!r}") from error


def _ordered_pairs(items: Sequence) -> Iterator[Tuple]:
    """All ordered pairs (x, y) of *items*, x != y position-wise allowed to repeat names."""
    for x in items:
        for y in items:
            yield x, y
