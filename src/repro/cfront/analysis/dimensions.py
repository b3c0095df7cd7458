"""Static prediction of the output (left-hand-side) tensor dimensionality.

Section 4.2.3 of the paper: "We use static program analysis to examine the
original program AST and predict the LHS dimension.  We apply a dataflow
analysis to recover the dimensions in the array accesses ... For standard
array accesses we simply count the number of variables used to index the
base pointer ... we use array delinearization to recover the standard array
access form ... we implement array recovery to retrieve array access
expressions from pointers ... In case the output variable is not accessed
through any memory indexing operation, we assume it is a scalar and predict
zero-dimensionality."

This module glues the loop, pointer and delinearization analyses together to
produce that prediction, both for the output argument (the value STAGG
substitutes into ``L[1]``) and — as a bonus used by the C2TACO baseline — for
every tensor argument of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ast import (
    ArrayIndex,
    BinaryOp,
    Expr,
    FunctionDef,
    Identifier,
    IncDec,
    UnaryOp,
    statement_expressions,
    walk_expressions,
    walk_statements,
)
from .delinearize import subscript_rank
from .locals import inline_locals, scalar_definitions
from .loops import LoopNest, analyze_loops
from .pointers import PointerAnalysis, analyze_pointers
from .signature import ArgumentKind, OutputKind, SignatureInfo, analyze_signature


@dataclass
class DimensionPrediction:
    """Predicted ranks for the kernel's arguments."""

    output_rank: int
    argument_ranks: Dict[str, int] = field(default_factory=dict)
    output_argument: Optional[str] = None

    def rank(self, name: str) -> int:
        return self.argument_ranks.get(name, 0)


def _access_base_name(expr: Expr) -> Optional[str]:
    """The identifier at the base of a subscript / dereference chain."""
    node = expr
    while isinstance(node, ArrayIndex):
        node = node.base
    if isinstance(node, UnaryOp) and node.op == "*":
        inner = node.operand
        while isinstance(inner, BinaryOp):
            inner = inner.left
        if isinstance(inner, IncDec):
            inner = inner.operand
        if isinstance(inner, Identifier):
            return inner.name
    if isinstance(node, Identifier):
        return node.name
    return None


def _subscript_accesses(
    function: FunctionDef, nest: LoopNest
) -> List[Tuple[ArrayIndex, Tuple[str, ...]]]:
    """Every subscript access paired with the induction variables enclosing it."""
    accesses: List[Tuple[ArrayIndex, Tuple[str, ...]]] = []
    for stmt in walk_statements(function):
        enclosing = nest.variables_enclosing(stmt)
        for top in statement_expressions(stmt):
            for expr in walk_expressions(top):
                if isinstance(expr, ArrayIndex):
                    accesses.append((expr, enclosing))
    return accesses


def predict_argument_rank(
    function: FunctionDef,
    argument: str,
    signature: Optional[SignatureInfo] = None,
    loops: Optional[LoopNest] = None,
    pointers: Optional[PointerAnalysis] = None,
) -> int:
    """Predict the rank of one pointer argument of *function*.

    The prediction combines three sources, in decreasing order of precision:

    1. subscript accesses to the argument (delinearized),
    2. pointer-walking accesses through aliases of the argument (the maximum
       number of loops enclosing an advancement site),
    3. zero, when the argument is only ever accessed without indexing.
    """
    signature = signature or analyze_signature(function)
    loops = loops or analyze_loops(function)
    pointers = pointers or analyze_pointers(function, loops)
    induction = loops.induction_variables()
    sizes = signature.sizes()
    definitions = scalar_definitions(function)

    best = 0
    for access, _enclosing in _subscript_accesses(function, loops):
        base = _access_base_name(access)
        if base is None:
            continue
        if pointers.resolve(base) != argument:
            continue
        # See through index temporaries (``int idx = i*cols + j; out[idx] = ...``)
        # before delinearizing.
        inlined = inline_locals(access, definitions)
        if not isinstance(inlined, ArrayIndex):
            inlined = access
        best = max(best, subscript_rank(inlined, induction, sizes))

    walked = pointers.advancement_depth(argument)
    best = max(best, walked)
    return best


def predict_output_rank(
    function: FunctionDef,
    signature: Optional[SignatureInfo] = None,
    loops: Optional[LoopNest] = None,
    pointers: Optional[PointerAnalysis] = None,
) -> int:
    """Predict the rank of the kernel's output (Section 4.2.3)."""
    signature = signature or analyze_signature(function)
    if signature.output_kind is OutputKind.RETURN or signature.output_argument is None:
        # Result returned by value: a scalar.
        return 0
    return predict_argument_rank(
        function, signature.output_argument, signature, loops, pointers
    )


def predict_dimensions(
    function: FunctionDef,
    signature: Optional[SignatureInfo] = None,
    loops: Optional[LoopNest] = None,
    pointers: Optional[PointerAnalysis] = None,
) -> DimensionPrediction:
    """Predict ranks for the output and every tensor argument of *function*.

    The analyses of *function* may be passed in when the caller has them.
    """
    signature = signature or analyze_signature(function)
    loops = loops or analyze_loops(function)
    pointers = pointers or analyze_pointers(function, loops)
    ranks: Dict[str, int] = {}
    for arg in signature.arguments:
        if arg.kind in (ArgumentKind.TENSOR, ArgumentKind.OUTPUT):
            ranks[arg.name] = predict_argument_rank(
                function, arg.name, signature, loops, pointers
            )
        else:
            ranks[arg.name] = 0
    if signature.output_kind is OutputKind.RETURN or signature.output_argument is None:
        output_rank = 0
    else:
        output_rank = ranks.get(signature.output_argument, 0)
    return DimensionPrediction(
        output_rank=output_rank,
        argument_ranks=ranks,
        output_argument=signature.output_argument,
    )
