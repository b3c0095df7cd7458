"""Dense einsum evaluator for TACO programs.

This is the executable semantics of the TACO subset targeted by the paper
(Figure 5): the right-hand side is evaluated element-wise over the full
iteration space spanned by *all* index variables, and the result is summed
over every index variable that does not appear on the left-hand side (the
implicit einsum reduction), extended to subtraction and division exactly as
the TACO notation used by the paper.

The evaluator replaces the native TACO compiler in this reproduction: STAGG
needs TACO programs to be *runnable* (for I/O-example validation) and
*comparable against C* (for bounded verification), and this module provides
both, in two arithmetic modes:

* ``mode="float"`` — NumPy float64, used for quick I/O validation,
* ``mode="exact"`` — object arrays of :class:`fractions.Fraction`, mirroring
  the rational-datatype extension of CBMC used by the paper's verifier.
  Elements may also be :class:`~repro.core.poly.Poly` polynomials in input
  variables; dividing by one yields a :class:`~repro.core.poly.Quotient`
  that records the polynomial divided by.

Hot-path architecture
---------------------

Validating one lifting task evaluates *thousands* of candidate programs
against the *same* handful of I/O examples.  Converting the example tensors
into the mode's array representation and computing the iteration-space
layout (extents and broadcastable index grids) are pure functions of data
that barely changes between candidates, so :class:`EvaluationContext` caches
both: bindings are converted once per (example, mode) and the layout is
memoized per access pattern.  :meth:`TacoEvaluator.evaluate` remains the
simple one-shot API and simply runs against a throwaway context.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.poly import Symbolic
from .ast import (
    BinaryOp,
    BinOp,
    Constant,
    Expression,
    SymbolicConstant,
    TacoProgram,
    TensorAccess,
    UnaryOp,
)
from .errors import TacoEvaluationError, TacoTypeError

#: Values accepted as tensor bindings.
TensorValue = Union[int, float, Fraction, np.ndarray, Sequence]

#: Arithmetic modes supported by the evaluator.
MODES = ("float", "exact", "int")


def _as_array(value: TensorValue, mode: str) -> np.ndarray:
    """Coerce a binding into a NumPy array of the mode's dtype."""
    if mode == "exact":
        arr = np.asarray(value, dtype=object)
        flat = arr.reshape(-1)
        converted = np.empty(flat.shape, dtype=object)
        for idx, item in enumerate(flat):
            converted[idx] = item if isinstance(item, (Fraction, Symbolic)) else Fraction(item)
        return converted.reshape(arr.shape)
    if mode == "int":
        return np.asarray(value, dtype=np.int64)
    return np.asarray(value, dtype=np.float64)


def _zero(mode: str):
    if mode == "exact":
        return Fraction(0)
    if mode == "int":
        return np.int64(0)
    return 0.0


def _full_dtype(mode: str):
    if mode == "exact":
        return object
    if mode == "int":
        return np.int64
    return np.float64


def _coerce_scalar_mode(value, mode: str):
    if mode == "exact":
        return value if isinstance(value, (Fraction, Symbolic)) else Fraction(value)
    if mode == "int":
        return np.int64(value)
    return float(value)


#: A resolved access pattern: one (tensor name, index tuple) pair per RHS
#: access, in left-to-right order.
AccessKey = Tuple[Tuple[str, Tuple[str, ...]], ...]

#: Cache key identifying an iteration-space layout: the resolved RHS access
#: pattern, the LHS index tuple and the caller-supplied output shape.
_LayoutKey = Tuple[AccessKey, Tuple[str, ...], Optional[Tuple[int, ...]]]

#: A cached layout: (index order, extents by variable, gathered operands by
#: resolved (name, indices) — each access pre-indexed into the broadcastable
#: iteration-space view, so evaluation is pure arithmetic).
_Layout = Tuple[Tuple[str, ...], Dict[str, int], Dict[Tuple[str, Tuple[str, ...]], object]]

#: The shape-only part of a layout: (index order, extents by variable, the
#: broadcastable index grid per index variable).
_Grids = Tuple[Tuple[str, ...], Dict[str, int], Dict[str, np.ndarray]]


class EvaluationContext:
    """Reusable evaluation state for many programs over fixed bindings.

    A context owns one set of tensor bindings (typically one I/O example)
    in one arithmetic mode.  It lazily converts each binding into the mode's
    array representation exactly once, and memoizes the extent inference and
    index-grid construction per distinct access pattern, so that evaluating
    thousands of structurally similar candidate programs costs one dictionary
    lookup instead of a full re-preparation each time.  :meth:`rebind` swaps
    in bindings of the same shapes and keeps the extents and index grids,
    which is how a bounded check computes its layout once for every input.
    """

    __slots__ = (
        "_mode", "_raw", "_arrays", "_layouts", "_grids", "layout_hits", "layout_misses"
    )

    #: Safety valve against pathological candidate streams: a layout entry
    #: holds materialized iteration-space operand views, so the cache is
    #: dropped and rebuilt when it grows past this many access patterns
    #: (mirroring the penalty-memo and visited-form caps).
    MAX_LAYOUTS = 65_536

    def __init__(self, bindings: Mapping[str, TensorValue], mode: str = "float") -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._mode = mode
        self._raw: Dict[str, TensorValue] = dict(bindings)
        self._arrays: Dict[str, np.ndarray] = {}
        self._layouts: Dict[_LayoutKey, _Layout] = {}
        self._grids: Dict[_LayoutKey, _Grids] = {}
        self.layout_hits = 0
        self.layout_misses = 0

    def rebind(self, bindings: Mapping[str, TensorValue]) -> None:
        """Swap in *bindings*, which have the shapes of the current ones.

        Every layout keeps its extents and index grids; only the operands
        are converted and gathered again, on first use.
        """
        self._raw = dict(bindings)
        self._arrays = {}
        self._layouts = {}

    @property
    def mode(self) -> str:
        return self._mode

    def array(self, name: str) -> np.ndarray:
        """The binding for *name*, converted to the context's mode (cached)."""
        arr = self._arrays.get(name)
        if arr is None:
            if name not in self._raw:
                raise TacoTypeError(f"no binding provided for tensor {name!r}")
            arr = _as_array(self._raw[name], self._mode)
            self._arrays[name] = arr
        return arr

    @property
    def arrays(self) -> Dict[str, np.ndarray]:
        """Converted arrays by name (only those touched so far)."""
        return self._arrays

    def layout(
        self,
        program: TacoProgram,
        output_shape: Optional[Tuple[int, ...]],
        aliases: Optional[Mapping[str, str]] = None,
        access_key: Optional[AccessKey] = None,
    ) -> _Layout:
        """The (index order, extents, gathered operands) layout, memoized.

        Two programs with the same *resolved* access pattern (tensor names
        after alias substitution, with their index tuples) share one layout,
        regardless of the operators between the accesses — which is exactly
        the situation during template validation.  Callers sitting in a loop
        over substitutions can pass the resolved ``access_key`` directly and
        skip the program walk entirely.
        """
        if access_key is None:
            if aliases:
                access_key = tuple(
                    (aliases.get(a.name, a.name), a.indices)
                    for a in program.rhs.tensors()
                )
            else:
                access_key = tuple((a.name, a.indices) for a in program.rhs.tensors())
        key: _LayoutKey = (access_key, program.lhs.indices, output_shape)
        hit = self._layouts.get(key)
        if hit is not None:
            self.layout_hits += 1
            return hit
        grids = self._grids.get(key)
        if grids is None:
            grids = self._compute_grids(access_key, program, output_shape)
            if len(self._grids) >= self.MAX_LAYOUTS:
                self._grids.clear()
            self._grids[key] = grids
        layout = self._gather(access_key, grids)
        if len(self._layouts) >= self.MAX_LAYOUTS:
            self._layouts.clear()
        self._layouts[key] = layout
        self.layout_misses += 1
        return layout

    # ------------------------------------------------------------------ #
    # Layout computation (was TacoEvaluator._prepare_bindings /
    # _infer_extents / _index_grids in the per-candidate hot path)
    # ------------------------------------------------------------------ #
    def _compute_grids(
        self,
        access_key: AccessKey,
        program: TacoProgram,
        output_shape: Optional[Tuple[int, ...]],
    ) -> _Grids:
        extents: Dict[str, int] = {}
        for name, indices in access_key:
            arr = self.array(name)
            if arr.ndim != len(indices):
                raise TacoTypeError(
                    f"tensor {name!r} is accessed with rank {len(indices)} "
                    f"but bound to a value of rank {arr.ndim}"
                )
            for axis, index in enumerate(indices):
                extent = int(arr.shape[axis])
                if index in extents and extents[index] != extent:
                    raise TacoTypeError(
                        f"index variable {index!r} has inconsistent extents "
                        f"({extents[index]} vs {extent})"
                    )
                extents.setdefault(index, extent)
        for position, index in enumerate(program.lhs.indices):
            if index in extents:
                continue
            if output_shape is None or position >= len(output_shape):
                raise TacoTypeError(
                    f"cannot infer extent of output index {index!r}; "
                    "provide output_shape"
                )
            extents[index] = int(output_shape[position])
        # Index order must match TacoProgram.index_variables(): LHS indices
        # first, then RHS indices in order of first appearance.
        order: Dict[str, None] = {}
        for index in program.lhs.indices:
            order.setdefault(index, None)
        for _name, indices in access_key:
            for index in indices:
                order.setdefault(index, None)
        index_order = tuple(order)
        grids: Dict[str, np.ndarray] = {}
        ndim = len(index_order)
        for axis, index in enumerate(index_order):
            shape = [1] * ndim
            shape[axis] = extents[index]
            grids[index] = np.arange(extents[index]).reshape(shape)
        return index_order, extents, grids

    def _gather(self, access_key: AccessKey, layout_grids: _Grids) -> _Layout:
        index_order, extents, grids = layout_grids
        # Pre-gather every access into its broadcastable iteration-space view
        # once per layout, so per-candidate evaluation is pure arithmetic
        # (advanced indexing on object arrays copies element references and
        # would otherwise run once per access per candidate).
        gathered: Dict[Tuple[str, Tuple[str, ...]], object] = {}
        for name, indices in access_key:
            if (name, indices) in gathered:
                continue
            arr = self.array(name)
            if not indices:
                gathered[(name, indices)] = (
                    arr if arr.ndim else _coerce_scalar_mode(arr[()], self._mode)
                )
            else:
                gathered[(name, indices)] = arr[tuple(grids[index] for index in indices)]
        return index_order, extents, gathered


class TacoEvaluator:
    """Evaluates TACO programs against concrete tensor bindings."""

    def __init__(self, mode: str = "float") -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._mode = mode

    @property
    def mode(self) -> str:
        return self._mode

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def context(self, bindings: Mapping[str, TensorValue]) -> EvaluationContext:
        """A reusable :class:`EvaluationContext` in this evaluator's mode."""
        return EvaluationContext(bindings, self._mode)

    def evaluate(
        self,
        program: TacoProgram,
        bindings: Mapping[str, TensorValue],
        output_shape: Optional[Tuple[int, ...]] = None,
        constants: Optional[Mapping[str, TensorValue]] = None,
    ) -> Union[np.ndarray, int, float, Fraction]:
        """Evaluate *program* with tensors bound by name.

        Parameters
        ----------
        program:
            The TACO program to evaluate.
        bindings:
            Mapping from tensor names (as they appear in the program) to
            concrete values.  Rank-0 tensors map to scalars.
        output_shape:
            Shape of the output tensor.  Only needed when a left-hand-side
            index variable does not appear on the right-hand side (e.g.
            ``a(i) = Const``); otherwise the extents are inferred from the
            right-hand-side bindings.
        constants:
            Optional values for symbolic ``Const`` placeholders, keyed by the
            placeholder name (normally just ``"Const"``).  Literal constants
            in the program never need this.

        Returns
        -------
        A NumPy array shaped like the left-hand side, or a plain scalar when
        the left-hand side is rank 0.
        """
        return self.evaluate_in_context(
            self.context(bindings), program, output_shape, constants
        )

    def evaluate_in_context(
        self,
        context: EvaluationContext,
        program: TacoProgram,
        output_shape: Optional[Tuple[int, ...]] = None,
        constants: Optional[Mapping[str, TensorValue]] = None,
        aliases: Optional[Mapping[str, str]] = None,
        access_key: Optional[AccessKey] = None,
    ) -> Union[np.ndarray, int, float, Fraction]:
        """Evaluate *program* against a reusable :class:`EvaluationContext`.

        This is the validation hot path: the context's binding conversion and
        layout are shared across every candidate evaluated against it.

        ``aliases`` renames tensors on the fly (template symbol -> bound
        argument), which lets a validator evaluate a symbolic template
        directly — without instantiating a renamed copy per substitution.
        ``access_key`` optionally supplies the pre-resolved access pattern so
        a caller iterating over substitutions skips the program walk.
        """
        if context.mode != self._mode:
            raise TacoTypeError(
                f"context mode {context.mode!r} does not match "
                f"evaluator mode {self._mode!r}"
            )
        index_order, extents, gathered = context.layout(
            program, output_shape, aliases, access_key
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            value = self._eval_expr(program.rhs, gathered, aliases, constants)
            # The reduction stays inside the errstate guard: in float mode a
            # division by zero upstream legitimately produces inf/nan values
            # whose summation would otherwise warn.
            return self._reduce(program, value, index_order, extents)

    def evaluate_str(
        self,
        source: str,
        bindings: Mapping[str, TensorValue],
        output_shape: Optional[Tuple[int, ...]] = None,
        constants: Optional[Mapping[str, TensorValue]] = None,
    ) -> Union[np.ndarray, int, float, Fraction]:
        """Parse and evaluate a TACO program given as a string."""
        from .parser import parse_program

        return self.evaluate(parse_program(source), bindings, output_shape, constants)

    # ------------------------------------------------------------------ #
    # Expression evaluation
    # ------------------------------------------------------------------ #
    def _eval_expr(
        self,
        node: Expression,
        gathered: Mapping[Tuple[str, Tuple[str, ...]], object],
        aliases: Optional[Mapping[str, str]],
        constants: Optional[Mapping[str, TensorValue]],
    ):
        if isinstance(node, BinaryOp):
            left = self._eval_expr(node.left, gathered, aliases, constants)
            right = self._eval_expr(node.right, gathered, aliases, constants)
            return self._apply(node.op, left, right)
        if isinstance(node, TensorAccess):
            name = aliases.get(node.name, node.name) if aliases else node.name
            return gathered[(name, node.indices)]
        if isinstance(node, Constant):
            return self._coerce_scalar(node.value)
        if isinstance(node, SymbolicConstant):
            if not constants or node.name not in constants:
                raise TacoEvaluationError(
                    f"no value provided for symbolic constant {node.name!r}"
                )
            return self._coerce_scalar(constants[node.name])
        if isinstance(node, UnaryOp):
            return -self._eval_expr(node.operand, gathered, aliases, constants)
        raise TacoTypeError(f"unknown expression node {node!r}")

    def _apply(self, op: BinOp, left, right):
        try:
            if op is BinOp.ADD:
                return left + right
            if op is BinOp.SUB:
                return left - right
            if op is BinOp.MUL:
                return left * right
            if op is BinOp.DIV:
                if self._mode == "exact":
                    return _exact_divide(left, right)
                if self._mode == "int":
                    raise TacoEvaluationError(
                        "division is not supported in integer mode"
                    )
                return left / right
        except ZeroDivisionError as exc:
            raise TacoEvaluationError("division by zero") from exc
        raise TacoTypeError(f"unknown operator {op}")

    def _coerce_scalar(self, value):
        return _coerce_scalar_mode(value, self._mode)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def _reduce(
        self,
        program: TacoProgram,
        value,
        index_order: Sequence[str],
        extents: Mapping[str, int],
    ):
        full_shape = tuple(extents[index] for index in index_order)
        if np.isscalar(value) or not isinstance(value, np.ndarray):
            value = np.full(full_shape, value, dtype=_full_dtype(self._mode))
        elif value.shape != full_shape:
            # Index-variable alignment is positional: the k-th axis of an
            # expression value is bound to the k-th index variable, so a
            # lower-rank value (an expression that does not mention trailing
            # index variables) must be padded with *trailing* singleton axes
            # before broadcasting.  NumPy's default broadcasting would pad
            # leading axes instead, silently rebinding the value's axes to
            # the wrong index variables whenever the extents happen to match.
            if value.ndim < len(full_shape):
                value = value.reshape(value.shape + (1,) * (len(full_shape) - value.ndim))
            value = np.broadcast_to(value, full_shape)
        lhs_count = len(program.lhs.indices)
        reduction_axes = tuple(range(lhs_count, len(index_order)))
        if reduction_axes:
            reduced = value.sum(axis=reduction_axes)
        else:
            reduced = value
        if lhs_count == 0:
            if isinstance(reduced, np.ndarray):
                return reduced.item() if reduced.ndim == 0 else reduced.sum().item()
            return reduced
        result = np.asarray(reduced)
        return result


def _exact_divide(left, right):
    """Element-wise exact division.

    Object-array division dispatches to ``Fraction.__truediv__`` element-wise
    inside NumPy's C loop, which is far cheaper than an explicit ``nditer``
    Python loop; a zero divisor raises :class:`ZeroDivisionError` from the
    Fraction itself, which the caller converts to a
    :class:`TacoEvaluationError`.  A symbolic divisor makes the element a
    :class:`~repro.core.poly.Quotient` that records it, so a proof can
    compare where the program traps with where the C kernel does.
    """
    left_arr = np.asarray(left, dtype=object)
    right_arr = np.asarray(right, dtype=object)
    out = left_arr / right_arr
    if isinstance(out, np.ndarray) and out.ndim == 0:
        return out[()]
    return out


def evaluate(
    program: Union[TacoProgram, str],
    bindings: Mapping[str, TensorValue],
    mode: str = "float",
    output_shape: Optional[Tuple[int, ...]] = None,
    constants: Optional[Mapping[str, TensorValue]] = None,
):
    """Convenience wrapper: evaluate a TACO program (object or source string)."""
    evaluator = TacoEvaluator(mode=mode)
    if isinstance(program, str):
        return evaluator.evaluate_str(program, bindings, output_shape, constants)
    return evaluator.evaluate(program, bindings, output_shape, constants)
