"""A concrete interpreter for the mini-C subset.

STAGG needs to *execute* the legacy C program: once to produce the
input/output examples used by the template validator (Section 6) and once per
bounded-verification input (Section 7).  This interpreter provides that
execution directly over Python values, in three arithmetic modes that mirror
the verification setup of the paper:

* ``mode="int"``   — faithful C integer arithmetic (truncating division),
* ``mode="float"`` — IEEE double arithmetic,
* ``mode="exact"`` — exact rational arithmetic (:class:`fractions.Fraction`),
  the analogue of the paper's rational-datatype extension of CBMC.

Pointers are modelled as (buffer, offset) pairs so the pointer-walking idioms
of the corpus (``*p++``, ``p = &A[0]``, ``p += N``) behave exactly as in C.

Symbolic values
---------------

In exact mode a floating value may also be a :class:`~repro.core.poly.Poly`,
a polynomial in input variables, or a :class:`~repro.core.poly.Quotient` of
polynomials, and a run then computes each output as a rational function of
the inputs.  ``+``, ``-``, ``*`` and ``/`` stay symbolic: a value is always
floating, because storing one into an ``int`` raises, so dividing by one is
a rational division.  The run records every polynomial it divides by in
:attr:`ExecutionResult.divisors`, since the kernel traps wherever one is
zero.  Whatever needs a non-constant value — a condition, a comparison, a
subscript, a math call, ``%`` or a store into an ``int`` — raises
:class:`~repro.core.poly.NotPolynomial`, which is not a
:class:`CRuntimeError`: the run cannot be done symbolically, but no input
traps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.poly import Divisor, NotPolynomial, Symbolic
from .ast import (
    ArrayIndex,
    Assignment,
    BinaryOp,
    Block,
    Call,
    Cast,
    Conditional,
    CType,
    Declaration,
    DoWhile,
    Empty,
    Expr,
    ExprStmt,
    FloatLiteral,
    For,
    FunctionDef,
    Identifier,
    If,
    IncDec,
    IntLiteral,
    Return,
    Stmt,
    UnaryOp,
    While,
)
from .errors import CRuntimeError, CTypeError

#: Supported arithmetic modes.
MODES = ("int", "float", "exact")

#: Default bound on the number of executed statements, to catch accidental
#: non-termination in malformed kernels.
DEFAULT_STEP_LIMIT = 20_000_000

Number = Union[int, float, Fraction, Symbolic]

#: The type every store into an ``int`` variable or array converts to.
_INT = CType("int", 0)

#: The C comparison operators and the Python predicates they map to.
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


class Buffer:
    """A flat, mutable memory buffer backing a C array."""

    __slots__ = ("data", "name", "is_int")

    def __init__(
        self, data: List[Number], name: str = "<anonymous>", is_int: bool = False
    ) -> None:
        self.data = data
        self.name = name
        #: Whether the elements are ``int``: a store converts the value.
        self.is_int = is_int

    def __len__(self) -> int:
        return len(self.data)

    def read(self, offset: int) -> Number:
        try:
            if offset < 0:
                raise IndexError
            return self.data[offset]
        except IndexError:
            raise CRuntimeError(
                f"out-of-bounds read at {self.name}[{offset}] (size {len(self.data)})"
            ) from None

    def write(self, offset: int, value: Number) -> None:
        try:
            if offset < 0:
                raise IndexError
            self.data[offset] = value
        except IndexError:
            raise CRuntimeError(
                f"out-of-bounds write at {self.name}[{offset}] (size {len(self.data)})"
            ) from None

    def snapshot(self) -> List[Number]:
        return list(self.data)


@dataclass(frozen=True)
class Pointer:
    """A pointer value: a buffer plus an element offset."""

    buffer: Buffer
    offset: int = 0

    def advanced(self, delta: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + delta)

    def read(self) -> Number:
        return self.buffer.read(self.offset)

    def write(self, value: Number) -> None:
        self.buffer.write(self.offset, value)


Value = Union[Number, Pointer]


class _ReturnSignal(Exception):
    """Internal control-flow signal for ``return`` statements."""

    def __init__(self, value: Optional[Value]) -> None:
        self.value = value
        super().__init__("return")


@dataclass
class ExecutionResult:
    """The outcome of running a function: final buffers and the return value."""

    return_value: Optional[Value]
    arguments: Dict[str, Union[Number, List[Number]]]
    steps: int
    #: The polynomials a symbolic run divided by, up to a constant factor.
    divisors: FrozenSet[Divisor] = field(default_factory=frozenset)

    def array(self, name: str) -> List[Number]:
        value = self.arguments[name]
        if not isinstance(value, list):
            raise KeyError(f"argument {name!r} is not an array")
        return value

    def scalar(self, name: str) -> Number:
        value = self.arguments[name]
        if isinstance(value, list):
            raise KeyError(f"argument {name!r} is an array")
        return value


class CInterpreter:
    """Interprets a single mini-C function on concrete argument values."""

    def __init__(self, mode: str = "exact", step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self._mode = mode
        self._step_limit = step_limit
        self._steps = 0
        #: The polynomials the current run divided by.
        self._divisors: set = set()
        #: Names of the current run's ``int`` scalars (parameters and locals).
        self._int_names: set = set()

    @property
    def mode(self) -> str:
        return self._mode

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(
        self,
        function: FunctionDef,
        arguments: Mapping[str, Union[Number, Sequence[Number], np.ndarray]],
    ) -> ExecutionResult:
        """Execute *function* with the given arguments.

        Array arguments (passed for pointer parameters) are copied into
        buffers; the final buffer contents are returned in the result so that
        callers can inspect output arrays without mutating their inputs.
        """
        self._steps = 0
        self._divisors = set()
        self._int_names = set()
        env: Dict[str, Value] = {}
        buffers: Dict[str, Buffer] = {}
        for param in function.parameters:
            if param.name not in arguments:
                raise CTypeError(f"missing argument for parameter {param.name!r}")
            raw = arguments[param.name]
            if param.type.is_pointer:
                buffer = Buffer(
                    self._coerce_array(raw, param.type),
                    name=param.name,
                    is_int=param.type.base == "int",
                )
                buffers[param.name] = buffer
                env[param.name] = Pointer(buffer, 0)
            else:
                self._declare(param.name, param.type)
                env[param.name] = self._coerce_scalar(raw, param.type)
        return_value: Optional[Value] = None
        try:
            self._exec_block(function.body, env)
        except _ReturnSignal as signal:
            return_value = signal.value
        finals: Dict[str, Union[Number, List[Number]]] = {}
        for param in function.parameters:
            if param.name in buffers:
                finals[param.name] = buffers[param.name].snapshot()
            else:
                value = env[param.name]
                finals[param.name] = value  # type: ignore[assignment]
        return ExecutionResult(return_value, finals, self._steps, frozenset(self._divisors))

    # ------------------------------------------------------------------ #
    # Argument coercion
    # ------------------------------------------------------------------ #
    def _coerce_array(self, raw, ctype: CType) -> List[Number]:
        if isinstance(raw, Buffer):
            values = raw.snapshot()
        elif isinstance(raw, np.ndarray):
            values = [v for v in raw.reshape(-1).tolist()]
        elif isinstance(raw, (list, tuple)):
            values = list(raw)
        elif isinstance(raw, (int, float, Fraction, Symbolic)):
            values = [raw]
        else:
            raise CTypeError(f"cannot pass {type(raw).__name__} for pointer parameter")
        element = CType(ctype.base, 0)
        return [self._coerce_scalar(v, element) for v in values]

    def _coerce_scalar(self, raw, ctype: CType) -> Number:
        if isinstance(raw, Pointer):
            raise CTypeError("cannot pass a pointer where a scalar is expected")
        if self._mode == "exact":
            if ctype.base in ("float", "double"):
                return raw if isinstance(raw, (Fraction, Symbolic)) else Fraction(raw)
            if isinstance(raw, Symbolic):
                raise NotPolynomial(f"a non-constant {ctype.base} argument")
            if ctype.base == "int" or not ctype.is_floating:
                # Integers stay integers so that C integer division semantics
                # remain observable even in exact mode.
                if isinstance(raw, Fraction) and raw.denominator == 1:
                    return int(raw)
                if isinstance(raw, float) and raw.is_integer():
                    return int(raw)
                if isinstance(raw, int):
                    return int(raw)
                return Fraction(raw)
            return Fraction(raw)
        if self._mode == "float":
            return float(raw)
        return int(raw)

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._step_limit:
            raise CRuntimeError(f"step limit of {self._step_limit} exceeded")

    def _exec_block(self, block: Block, env: Dict[str, Value]) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: Stmt, env: Dict[str, Value]) -> None:
        self._tick()
        if isinstance(stmt, Block):
            self._exec_block(stmt, env)
        elif isinstance(stmt, Empty):
            return
        elif isinstance(stmt, Declaration):
            self._exec_declaration(stmt, env)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, If):
            if self._truthy(self._eval(stmt.condition, env)):
                self._exec_stmt(stmt.then, env)
            elif stmt.otherwise is not None:
                self._exec_stmt(stmt.otherwise, env)
        elif isinstance(stmt, While):
            while self._truthy(self._eval(stmt.condition, env)):
                self._tick()
                self._exec_stmt(stmt.body, env)
        elif isinstance(stmt, DoWhile):
            while True:
                self._tick()
                self._exec_stmt(stmt.body, env)
                if not self._truthy(self._eval(stmt.condition, env)):
                    break
        elif isinstance(stmt, For):
            if isinstance(stmt.init, Stmt):
                self._exec_stmt(stmt.init, env)
            elif stmt.init is not None:
                self._eval(stmt.init, env)
            while stmt.condition is None or self._truthy(self._eval(stmt.condition, env)):
                self._tick()
                self._exec_stmt(stmt.body, env)
                if stmt.update is not None:
                    self._eval(stmt.update, env)
        elif isinstance(stmt, Return):
            value = None if stmt.value is None else self._eval(stmt.value, env)
            raise _ReturnSignal(value)
        else:
            raise CRuntimeError(f"cannot execute statement {type(stmt).__name__}")

    def _exec_declaration(self, stmt: Declaration, env: Dict[str, Value]) -> None:
        for decl in stmt.declarators:
            ctype = CType(stmt.base_type, decl.pointer_depth)
            if decl.array_sizes:
                total = 1
                for size_expr in decl.array_sizes:
                    if size_expr is None:
                        raise CTypeError(
                            f"local array {decl.name!r} needs an explicit size"
                        )
                    total *= self._offset(self._eval(size_expr, env))
                buffer = Buffer(
                    [self._zero(ctype)] * total, name=decl.name, is_int=ctype.base == "int"
                )
                env[decl.name] = Pointer(buffer, 0)
                continue
            self._declare(decl.name, ctype)
            if decl.init is not None:
                env[decl.name] = self._store_coerce(self._eval(decl.init, env), ctype)
            else:
                env[decl.name] = (
                    Pointer(Buffer([], name=decl.name), 0)
                    if ctype.is_pointer
                    else self._zero(ctype)
                )

    def _declare(self, name: str, ctype: CType) -> None:
        if ctype.base == "int" and not ctype.is_pointer:
            self._int_names.add(name)
        else:
            self._int_names.discard(name)

    def _zero(self, ctype: CType) -> Number:
        if self._mode == "exact" and ctype.is_floating:
            return Fraction(0)
        if self._mode == "float" or ctype.is_floating:
            return 0.0 if self._mode != "exact" else Fraction(0)
        return 0

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _eval(self, expr: Expr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, FloatLiteral):
            if self._mode == "exact":
                return Fraction(expr.value)
            return float(expr.value)
        if isinstance(expr, Identifier):
            try:
                return env[expr.name]
            except KeyError:
                raise CRuntimeError(f"use of undeclared identifier {expr.name!r}") from None
        if isinstance(expr, ArrayIndex):
            pointer, offset = self._resolve_memory(expr, env)
            return pointer.buffer.read(pointer.offset + offset)
        if isinstance(expr, UnaryOp):
            return self._eval_unary(expr, env)
        if isinstance(expr, IncDec):
            return self._eval_incdec(expr, env)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, Conditional):
            if self._truthy(self._eval(expr.condition, env)):
                return self._eval(expr.then, env)
            return self._eval(expr.otherwise, env)
        if isinstance(expr, Assignment):
            return self._eval_assignment(expr, env)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        if isinstance(expr, Cast):
            value = self._eval(expr.operand, env)
            if isinstance(value, Pointer):
                return value
            return self._store_coerce(value, expr.type)
        raise CRuntimeError(f"cannot evaluate expression {type(expr).__name__}")

    def _eval_unary(self, expr: UnaryOp, env: Dict[str, Value]) -> Value:
        if expr.op == "*":
            value = self._eval(expr.operand, env)
            if not isinstance(value, Pointer):
                raise CRuntimeError("dereference of a non-pointer value")
            return value.read()
        if expr.op == "&":
            operand = expr.operand
            if isinstance(operand, ArrayIndex):
                pointer, offset = self._resolve_memory(operand, env)
                return pointer.advanced(offset)
            if isinstance(operand, Identifier):
                value = env.get(operand.name)
                if isinstance(value, Pointer):
                    return value
                raise CRuntimeError(
                    f"cannot take the address of scalar {operand.name!r}"
                )
            raise CRuntimeError("unsupported address-of expression")
        value = self._eval(expr.operand, env)
        if isinstance(value, Pointer):
            raise CRuntimeError(f"cannot apply unary {expr.op!r} to a pointer")
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if self._truthy(value) else 1
        if expr.op == "~":
            return ~int(value)
        raise CRuntimeError(f"unsupported unary operator {expr.op!r}")

    def _eval_incdec(self, expr: IncDec, env: Dict[str, Value]) -> Value:
        location = self._lvalue(expr.operand, env)
        old = self._load(location)
        delta = 1 if expr.op == "++" else -1
        if isinstance(old, Pointer):
            new: Value = old.advanced(delta)
        else:
            new = old + delta
        self._store(location, new)
        return new if expr.is_prefix else old

    def _eval_binary(self, expr: BinaryOp, env: Dict[str, Value]) -> Value:
        if expr.op == "&&":
            left_true = self._truthy(self._eval(expr.left, env))
            return 1 if (left_true and self._truthy(self._eval(expr.right, env))) else 0
        if expr.op == "||":
            left_true = self._truthy(self._eval(expr.left, env))
            return 1 if (left_true or self._truthy(self._eval(expr.right, env))) else 0
        if expr.op == ",":
            self._eval(expr.left, env)
            return self._eval(expr.right, env)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self._apply_binary(expr.op, left, right)

    def _apply_binary(self, op: str, left: Value, right: Value) -> Value:
        # Pointer arithmetic
        if isinstance(left, Pointer) and not isinstance(right, Pointer):
            if op == "+":
                return left.advanced(self._offset(right))
            if op == "-":
                return left.advanced(-self._offset(right))
            raise CRuntimeError(f"unsupported pointer operation {op!r}")
        if isinstance(right, Pointer) and not isinstance(left, Pointer):
            if op == "+":
                return right.advanced(self._offset(left))
            raise CRuntimeError(f"unsupported pointer operation {op!r}")
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            if op == "-":
                if left.buffer is not right.buffer:
                    raise CRuntimeError("pointer difference between different buffers")
                return left.offset - right.offset
            if op in ("==", "!=", "<", ">", "<=", ">="):
                return self._compare(op, left.offset, right.offset)
            raise CRuntimeError(f"unsupported pointer operation {op!r}")

        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op in _COMPARISONS:
            return self._compare(op, left, right)
        if op == "/":
            return self._divide(left, right)
        if op == "%":
            return _modulo(left, right)
        raise CRuntimeError(f"unsupported binary operator {op!r}")

    def _divide(self, left: Number, right: Number) -> Number:
        if isinstance(right, Symbolic):
            # A rational division.  The kernel traps wherever the divisor is
            # zero, so the run records it.
            try:
                quotient = left / right
            except ZeroDivisionError:
                raise CRuntimeError("division by zero") from None
            self._divisors |= quotient.divisors
            return quotient
        if right == 0:
            raise CRuntimeError("division by zero")
        both_int = isinstance(left, int) and isinstance(right, int)
        if both_int and self._mode != "float":
            # C integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        if self._mode == "exact":
            # A Fraction or symbolic value divided by an int or Fraction
            # stays exact.
            if isinstance(left, (Fraction, Symbolic)) and isinstance(right, (int, Fraction)):
                return left / right
            return Fraction(left) / Fraction(right)
        return left / right

    @staticmethod
    def _compare(op: str, left, right) -> int:
        return 1 if _COMPARISONS[op](left, right) else 0

    def _eval_assignment(self, expr: Assignment, env: Dict[str, Value]) -> Value:
        location = self._lvalue(expr.target, env)
        value = self._eval(expr.value, env)
        if expr.op != "=":
            current = self._load(location)
            op = expr.op[:-1]
            if isinstance(current, Pointer):
                if op == "+":
                    value = current.advanced(self._offset(value))
                elif op == "-":
                    value = current.advanced(-self._offset(value))
                else:
                    raise CRuntimeError(f"unsupported pointer assignment {expr.op!r}")
            else:
                value = self._apply_binary(op, current, value)
        self._store(location, value)
        return value

    def _eval_call(self, expr: Call, env: Dict[str, Value]) -> Value:
        args = [self._eval(arg, env) for arg in expr.args]
        name = expr.name
        if any(isinstance(arg, Symbolic) for arg in args):
            raise NotPolynomial(f"{name}() of a non-constant value")
        if name in ("abs", "labs", "fabs", "fabsf"):
            return abs(*args[:1])
        if name in ("fmax", "fmaxf", "max"):
            return max(*args[:2])
        if name in ("fmin", "fminf", "min"):
            return min(*args[:2])
        raise CRuntimeError(f"call to unsupported function {name!r}")

    # ------------------------------------------------------------------ #
    # Lvalues and storage
    # ------------------------------------------------------------------ #
    def _lvalue(self, expr: Expr, env: Dict[str, Value]):
        if isinstance(expr, Identifier):
            return ("var", expr.name, env)
        if isinstance(expr, UnaryOp) and expr.op == "*":
            pointer = self._eval(expr.operand, env)
            if not isinstance(pointer, Pointer):
                raise CRuntimeError("dereference of a non-pointer value")
            return ("mem", pointer, 0)
        if isinstance(expr, ArrayIndex):
            pointer, offset = self._resolve_memory(expr, env)
            return ("mem", pointer, offset)
        if isinstance(expr, Cast):
            return self._lvalue(expr.operand, env)
        raise CRuntimeError(f"expression {type(expr).__name__} is not assignable")

    def _resolve_memory(self, expr: ArrayIndex, env: Dict[str, Value]) -> Tuple[Pointer, int]:
        """Resolve nested subscripts down to a base pointer plus offset."""
        base = self._eval(expr.base, env)
        index = self._eval(expr.index, env)
        if isinstance(index, Pointer):
            raise CRuntimeError("array index must be an integer")
        if not isinstance(base, Pointer):
            raise CRuntimeError("subscript applied to a non-pointer value")
        return base, self._offset(index)

    def _load(self, location) -> Value:
        kind = location[0]
        if kind == "var":
            _, name, env = location
            return env[name]
        _, pointer, offset = location
        return pointer.buffer.read(pointer.offset + offset)

    def _store(self, location, value: Value) -> None:
        kind = location[0]
        # A store into an int converts the value as C does: it truncates a
        # fraction and raises NotPolynomial for a symbolic value.
        if kind == "var":
            _, name, env = location
            if name in self._int_names and type(value) is not int:
                value = self._store_coerce(value, _INT)
            env[name] = value
            return
        _, pointer, offset = location
        if isinstance(value, Pointer):
            raise CRuntimeError("cannot store a pointer into an array element")
        if pointer.buffer.is_int and type(value) is not int:
            value = self._store_coerce(value, _INT)
        pointer.buffer.write(pointer.offset + offset, value)

    def _store_coerce(self, value: Value, ctype: CType) -> Value:
        if isinstance(value, Pointer):
            return value
        if ctype.is_pointer:
            return value
        if ctype.base == "int" and not ctype.is_pointer:
            # int() truncates toward zero, as C does, for Fractions and
            # floats alike; a symbolic value raises NotPolynomial.
            return int(value)
        if self._mode == "exact":
            return value if isinstance(value, (Fraction, Symbolic)) else Fraction(value)
        if self._mode == "float":
            return float(value)
        return value

    @staticmethod
    def _truthy(value: Value) -> bool:
        # A symbolic value's comparisons, truth value and int() raise
        # NotPolynomial, so a value-dependent condition, comparison or
        # subscript cannot run symbolically.
        if isinstance(value, Pointer):
            return True
        return value != 0

    @staticmethod
    def _offset(value: Value) -> int:
        """An index or pointer offset."""
        return int(value)


def _modulo(left: Number, right: Number) -> int:
    if right == 0:
        raise CRuntimeError("modulo by zero")
    return int(abs(int(left)) % abs(int(right))) * (1 if left >= 0 else -1)


def run_function(
    function: FunctionDef,
    arguments: Mapping[str, Union[Number, Sequence[Number], np.ndarray]],
    mode: str = "exact",
) -> ExecutionResult:
    """Convenience wrapper around :class:`CInterpreter`."""
    return CInterpreter(mode=mode).run(function, arguments)
