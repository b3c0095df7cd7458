"""Input/output example generation (Section 6).

The template validator checks candidate instantiations against a set of
input/output examples obtained by running the original C program on randomly
generated inputs.  Examples are generated in exact (rational) arithmetic so
that later comparison against the TACO evaluator is never confounded by
floating-point rounding.

The bounded check runs the kernel on many inputs at one sizes value, one
:meth:`IOExampleGenerator.generate_one` call each.
:meth:`IOExampleGenerator.plan` resolves each argument's kind, shape and
value count once per sizes value, and :meth:`ArgumentPlan.values` turns a
flat row of enumerated values into fixed inputs.

:meth:`IOExampleGenerator.run_symbolic` runs the kernel once with every free
input element and every initial output element a polynomial variable
(:mod:`repro.core.poly`), for proving equivalence; the run's outputs are
polynomials or quotients of them, and it records every polynomial the kernel
divides by.  It draws nothing from the random generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cfront import CInterpreter, FunctionDef
from ..cfront.analysis import ArgumentKind, OutputKind, SignatureInfo
from .poly import Divisor, Poly, Quotient
from .task import LiftingTask

#: Default value range for randomly generated tensor elements.  Small odd
#: numbers keep products distinguishable while avoiding overflow concerns.
DEFAULT_VALUE_RANGE = (-5, 5)


@dataclass
class IOExample:
    """One concrete run of the legacy kernel."""

    #: Input values by argument name.  Arrays are NumPy object arrays of
    #: Fractions shaped according to the task's input spec.
    inputs: Dict[str, Union[int, Fraction, np.ndarray]]
    #: The observed output (array or scalar).
    output: Union[int, Fraction, np.ndarray]
    #: Name of the output argument (None when the kernel returns its result).
    output_name: Optional[str]
    #: Concrete size-parameter values used for this example.
    sizes: Dict[str, int] = field(default_factory=dict)

    def input_rank(self, name: str) -> int:
        value = self.inputs[name]
        if isinstance(value, np.ndarray):
            return value.ndim
        return 0

    def output_shape(self) -> Tuple[int, ...]:
        if isinstance(self.output, np.ndarray):
            return self.output.shape
        return ()


@dataclass(frozen=True)
class ArgumentSlot:
    """How one kernel argument is filled in for a run at fixed sizes."""

    name: str
    #: ``"size"``, ``"scalar"`` or ``"array"`` (arrays include the output).
    kind: str
    #: The size value (size slots only).
    size: int = 0
    #: The array shape (``()`` for scalars and rank-0 arrays).
    shape: Tuple[int, ...] = ()
    #: Values drawn per example (0 for size slots).
    count: int = 0
    #: Whether the slot is the output buffer.
    is_output: bool = False
    #: Inclusive range of random values.
    low: int = 0
    high: int = 0

    @property
    def free(self) -> bool:
        """A freely-varying input: neither a size nor the output."""
        return self.kind != "size" and not self.is_output


@dataclass
class ArgumentPlan:
    """Every argument's slot at one sizes value, in argument order."""

    sizes: Dict[str, int]
    slots: Tuple[ArgumentSlot, ...]
    #: The output argument (None when the kernel returns its result).
    output_name: Optional[str]
    output_shape: Tuple[int, ...]

    @property
    def free_slots(self) -> Tuple[ArgumentSlot, ...]:
        return tuple(slot for slot in self.slots if slot.free)

    def values(self, row: Sequence[int]) -> Dict[str, Union[int, List[int]]]:
        """A flat row of free-input values as ``generate_one``'s ``values``."""
        fixed: Dict[str, Union[int, List[int]]] = {}
        cursor = 0
        for slot in self.free_slots:
            chunk = list(row[cursor : cursor + slot.count])
            cursor += slot.count
            fixed[slot.name] = chunk[0] if slot.kind == "scalar" else chunk
        return fixed


@dataclass
class SymbolicRun:
    """The kernel run once on polynomial variables at one sizes value."""

    plan: ArgumentPlan
    #: Free inputs by argument name: Poly scalars and object arrays of Polys
    #: shaped like the recorded inputs of an :class:`IOExample`.
    inputs: Dict[str, Union[Poly, np.ndarray]]
    #: The output as polynomials, quotients or constants, shaped like an
    #: example's.
    output: Union[Poly, Quotient, Fraction, np.ndarray]
    #: Variable id -> (argument name, flat element index); includes the
    #: output buffer's initial elements.
    variables: List[Tuple[str, int]]
    #: Every polynomial the kernel divides by: it traps where one is zero.
    divisors: FrozenSet[Divisor]

    def values(self, point: Mapping[int, int]) -> Dict[str, Union[int, List[int]]]:
        """*point* (variable id -> value) as ``generate_one``'s ``values``.

        Every drawn argument is fixed, the output buffer included, so the
        example draws nothing from the random generator.
        """
        fixed: Dict[str, Union[int, List[int]]] = {}
        for slot in self.plan.slots:
            if slot.kind == "array":
                fixed[slot.name] = [0] * slot.count
        for ident, (name, index) in enumerate(self.variables):
            if isinstance(fixed.get(name), list):
                fixed[name][index] = point[ident]  # type: ignore[index]
            else:
                fixed[name] = point[ident]
        return fixed


class IOExampleGenerator:
    """Generates I/O examples for a lifting task by running its C kernel.

    ``function``/``signature`` are the task's parsed kernel and its
    signature; they default to the shared kernel's
    (:func:`~repro.core.kernel.kernel_of`).
    """

    def __init__(
        self,
        task: LiftingTask,
        function: Optional[FunctionDef] = None,
        signature: Optional[SignatureInfo] = None,
        seed: int = 0,
        value_range: Tuple[int, int] = DEFAULT_VALUE_RANGE,
    ) -> None:
        if function is None or signature is None:
            # Imported here: the kernel cache builds its examples with this class.
            from .kernel import kernel_of

            kernel = kernel_of(task)
            function = function if function is not None else kernel.function
            signature = signature if signature is not None else kernel.signature
        self._task = task
        self._function = function
        self._signature = signature
        self._rng = random.Random(seed)
        self._value_range = value_range
        self._interpreter = CInterpreter(mode="exact")
        self._plans: Dict[Tuple[Tuple[str, int], ...], ArgumentPlan] = {}

    @property
    def signature(self) -> SignatureInfo:
        return self._signature

    @property
    def function(self) -> FunctionDef:
        return self._function

    def getstate(self) -> object:
        """The random generator's state (see :meth:`random.Random.getstate`)."""
        return self._rng.getstate()

    def plan(self, sizes: Optional[Mapping[str, int]] = None) -> ArgumentPlan:
        """The argument plan at *sizes* (over the spec's defaults), memoized."""
        key = tuple(sorted((k, int(v)) for k, v in (sizes or {}).items()))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._make_plan(dict(key))
        return plan

    def _make_plan(self, sizes: Mapping[str, int]) -> ArgumentPlan:
        spec = self._task.spec
        concrete_sizes = dict(spec.sizes)
        concrete_sizes.update(sizes)
        output_name = self._signature.output_argument
        slots: List[ArgumentSlot] = []
        for argument in self._signature.arguments:
            name = argument.name
            if argument.kind is ArgumentKind.SIZE:
                slots.append(
                    ArgumentSlot(name, "size", size=int(concrete_sizes.get(name, 2)))
                )
            elif argument.kind is ArgumentKind.SCALAR and not argument.is_pointer:
                low, high = spec.scalars.get(name, self._value_range)
                slots.append(ArgumentSlot(name, "scalar", count=1, low=low, high=high))
            else:
                shape = spec.resolve_shape(name, concrete_sizes)
                low, high = self._value_range
                slots.append(
                    ArgumentSlot(
                        name,
                        "array",
                        shape=shape,
                        count=int(np.prod(shape)) if shape else 1,
                        is_output=argument.kind is ArgumentKind.OUTPUT,
                        low=low,
                        high=high,
                    )
                )
        if self._signature.output_kind is OutputKind.RETURN or output_name is None:
            output_name, output_shape = None, ()
        else:
            output_shape = spec.resolve_shape(output_name, concrete_sizes)
        return ArgumentPlan(concrete_sizes, tuple(slots), output_name, output_shape)

    # ------------------------------------------------------------------ #
    # Example generation
    # ------------------------------------------------------------------ #
    def generate(
        self,
        num_examples: int = 3,
        sizes: Optional[Mapping[str, int]] = None,
        avoid_zero: bool = False,
    ) -> List[IOExample]:
        """Generate *num_examples* random examples.

        ``avoid_zero`` skips zero values, which is useful when the kernel (or
        candidate expressions) may divide by an input element.
        """
        return [self.generate_one(sizes=sizes, avoid_zero=avoid_zero) for _ in range(num_examples)]

    def generate_one(
        self,
        sizes: Optional[Mapping[str, int]] = None,
        avoid_zero: bool = False,
        values: Optional[Mapping[str, Union[int, Sequence[int]]]] = None,
    ) -> IOExample:
        """Generate a single example, optionally with fixed input values."""
        plan = self.plan(sizes)
        avoid_zero = avoid_zero or self._task.spec.avoid_zero

        call_args: Dict[str, Union[int, Fraction, List[Fraction], np.ndarray]] = {}
        recorded_inputs: Dict[str, Union[int, Fraction, np.ndarray]] = {}

        for slot in plan.slots:
            name = slot.name
            if slot.kind == "size":
                call_args[name] = recorded_inputs[name] = slot.size
            elif slot.kind == "scalar":
                value = self._scalar_value(slot, avoid_zero, values)
                call_args[name] = recorded_inputs[name] = value
            else:
                array = self._array_value(slot, avoid_zero, values)
                call_args[name] = array.reshape(-1).tolist()
                # The output buffer's initial contents are irrelevant to the
                # lifted expression; record inputs only for non-outputs.
                if not slot.is_output:
                    recorded_inputs[name] = array

        result = self._interpreter.run(self._function, call_args)

        output: Union[int, Fraction, np.ndarray]
        if plan.output_name is None:
            output = result.return_value  # type: ignore[assignment]
        else:
            flat = np.array(result.array(plan.output_name), dtype=object)
            shape = plan.output_shape
            output = flat.reshape(shape) if shape else flat.reshape(()).item()
        return IOExample(
            inputs=recorded_inputs,
            output=output,
            output_name=plan.output_name,
            sizes=dict(plan.sizes),
        )

    # ------------------------------------------------------------------ #
    # Symbolic runs (proof)
    # ------------------------------------------------------------------ #
    def run_symbolic(self, sizes: Optional[Mapping[str, int]]) -> SymbolicRun:
        """Run the kernel once with every drawn element a polynomial variable.

        Raises :class:`~repro.core.poly.NotPolynomial` when the run needs the
        value of an input, and :class:`~repro.cfront.errors.CRuntimeError`
        when the kernel traps at these sizes (then it traps on every input).
        """
        plan = self.plan(sizes)
        variables: List[Tuple[str, int]] = []
        call_args: Dict[str, object] = {}
        inputs: Dict[str, Union[Poly, np.ndarray]] = {}
        for slot in plan.slots:
            if slot.kind == "size":
                call_args[slot.name] = slot.size
                continue
            elements = []
            for index in range(slot.count):
                elements.append(Poly.variable(len(variables)))
                variables.append((slot.name, index))
            if slot.kind == "scalar":
                call_args[slot.name] = inputs[slot.name] = elements[0]
                continue
            call_args[slot.name] = elements
            if not slot.is_output:
                array = np.empty(slot.count, dtype=object)
                array[:] = elements
                inputs[slot.name] = array.reshape(slot.shape)
        result = self._interpreter.run(self._function, call_args)
        output: Union[Poly, Quotient, Fraction, np.ndarray]
        if plan.output_name is None:
            output = result.return_value  # type: ignore[assignment]
        else:
            flat = np.empty(len(result.array(plan.output_name)), dtype=object)
            flat[:] = result.array(plan.output_name)
            output = flat.reshape(plan.output_shape) if plan.output_shape else flat[0]
        return SymbolicRun(plan, inputs, output, variables, result.divisors)

    # ------------------------------------------------------------------ #
    # Random values
    # ------------------------------------------------------------------ #
    def _scalar_value(
        self,
        slot: ArgumentSlot,
        avoid_zero: bool,
        fixed: Optional[Mapping[str, Union[int, Sequence[int]]]],
    ) -> Fraction:
        if fixed and slot.name in fixed:
            return Fraction(int(fixed[slot.name]))  # type: ignore[arg-type]
        return Fraction(self._random_value(slot.low, slot.high, avoid_zero))

    def _array_value(
        self,
        slot: ArgumentSlot,
        avoid_zero: bool,
        fixed: Optional[Mapping[str, Union[int, Sequence[int]]]],
    ) -> np.ndarray:
        count = slot.count
        if fixed and slot.name in fixed:
            raw = fixed[slot.name]
            flat = [Fraction(int(v)) for v in np.asarray(raw).reshape(-1).tolist()]
            if len(flat) != count:
                raise ValueError(
                    f"fixed value for {slot.name!r} has {len(flat)} elements, "
                    f"expected {count}"
                )
        else:
            flat = [
                Fraction(self._random_value(slot.low, slot.high, avoid_zero))
                for _ in range(count)
            ]
        array = np.empty(count, dtype=object)
        array[:] = flat
        return array.reshape(slot.shape) if slot.shape else array.reshape(())

    def _random_value(self, low: int, high: int, avoid_zero: bool) -> int:
        value = self._rng.randint(low, high)
        while avoid_zero and value == 0:
            value = self._rng.randint(low, high)
        return value

