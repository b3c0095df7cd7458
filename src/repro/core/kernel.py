"""One process-wide, bounded cache of what lifting needs from a C kernel.

Every candidate a lifting method proposes is checked against the legacy C
kernel: on I/O examples from running it, then by an equivalence proof that
runs it on polynomial variables.  Everything that check needs depends on the
kernel alone, never on the method, the grammar or the search, so it is
derived once per process and shared by every lift:

* per (C source, function name), a :class:`Kernel`: the parsed
  :class:`~repro.cfront.ast.FunctionDef`, its
  :class:`~repro.cfront.analysis.SignatureInfo`, its harvested constants
  and the loop, pointer and rank analyses behind its static ranks;
* per kernel and (:class:`~repro.core.task.InputSpec`, seed, count, value
  range), the seeded I/O examples (:meth:`Kernel.examples`);
* per kernel and (``InputSpec``, sizes), the symbolic run behind a proof,
  including "the kernel traps here" and "the run needs an input's value"
  (:meth:`Kernel.symbolic_run`).

A miss calls :meth:`LiftingTask.parse`, :meth:`IOExampleGenerator.generate`
and :meth:`IOExampleGenerator.run_symbolic`, exactly what a lift without the
cache would call, so outcomes, digests and random streams are unchanged.
Shared example and run arrays are read-only: writing into one raises.

The cache holds at most :data:`MAX_KERNELS` kernels and
:data:`MAX_ENTRIES_PER_KERNEL` example sets and runs per kernel, dropping the
least recently used.  It takes no lock: a miss computes, then keeps whichever
value reached the map first (``setdefault``), and every map step is one
atomic ``OrderedDict`` call, so worker threads share it and a forked process
inherits it with no lock another thread could be holding.
:func:`clear_kernels` empties it (timed cold-path measurements, and tests
that patch the front end or the interpreter).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Mapping, Optional, Tuple, TypeVar

import numpy as np

from ..cfront import FunctionDef
from ..cfront.analysis import (
    DimensionPrediction,
    analyze_loops,
    analyze_pointers,
    analyze_signature,
    harvest_constants,
    predict_dimensions,
    predict_output_rank,
)
from ..cfront.errors import CRuntimeError
from .io_examples import DEFAULT_VALUE_RANGE, IOExample, IOExampleGenerator, SymbolicRun
from .poly import NotPolynomial
from .task import InputSpec, LiftingTask

#: Kernels kept per process.
MAX_KERNELS = 256
#: Example sets and symbolic runs kept per kernel.
MAX_ENTRIES_PER_KERNEL = 32

_Value = TypeVar("_Value")
_MISSING = object()
#: A cached symbolic-run outcome: the run needs an input's value.
_NOT_POLYNOMIAL = object()


class _LRU:
    """A bounded least-recently-used map that needs no lock (see above)."""

    def __init__(self, bound: int) -> None:
        self._bound = bound
        self._items: OrderedDict = OrderedDict()

    def get(self, key: Hashable, compute: Callable[[], _Value]) -> _Value:
        items = self._items
        value = items.get(key, _MISSING)
        if value is not _MISSING:
            try:
                items.move_to_end(key)
            except KeyError:  # evicted meanwhile by another thread
                pass
            return value
        value = items.setdefault(key, compute())
        while len(items) > self._bound:
            try:
                items.popitem(last=False)
            except KeyError:  # emptied meanwhile by another thread
                break
        return value

    def clear(self) -> None:
        self._items.clear()

    def __len__(self) -> int:
        return len(self._items)


def _spec_key(spec: InputSpec) -> tuple:
    """A hashable, order-preserving image of *spec*."""
    return (
        tuple(spec.sizes.items()),
        tuple((name, tuple(shape)) for name, shape in spec.arrays.items()),
        tuple((name, tuple(bounds)) for name, bounds in spec.scalars.items()),
        spec.avoid_zero,
    )


def _read_only(value) -> None:
    if isinstance(value, np.ndarray):
        value.setflags(write=False)


class Kernel:
    """What lifting needs from one parsed C function, each part derived once.

    ``function``, ``signature`` and ``constants`` are computed on
    construction; the static ranks, the example sets and the symbolic runs on
    first use.  Build one directly for a bare function, or get the shared one
    of a task with :func:`kernel_of`.
    """

    def __init__(self, function: FunctionDef) -> None:
        self.function = function
        self.signature = analyze_signature(function)
        self.constants = harvest_constants(function)
        self._analyses = None
        self._output_rank: Optional[int] = None
        self._dimensions: Optional[DimensionPrediction] = None
        self._examples = _LRU(MAX_ENTRIES_PER_KERNEL)
        self._runs = _LRU(MAX_ENTRIES_PER_KERNEL)

    # ------------------------------------------------------------------ #
    # Static ranks
    # ------------------------------------------------------------------ #
    def _loops_and_pointers(self):
        analyses = self._analyses
        if analyses is None:
            loops = analyze_loops(self.function)
            analyses = self._analyses = (loops, analyze_pointers(self.function, loops))
        return analyses

    @property
    def loops(self):
        """:func:`~repro.cfront.analysis.analyze_loops` of the kernel."""
        return self._loops_and_pointers()[0]

    @property
    def output_rank(self) -> int:
        """:func:`~repro.cfront.analysis.predict_output_rank` of the kernel."""
        if self._output_rank is None:
            self._output_rank = predict_output_rank(
                self.function, self.signature, *self._loops_and_pointers()
            )
        return self._output_rank

    @property
    def dimensions(self) -> DimensionPrediction:
        """:func:`~repro.cfront.analysis.predict_dimensions` of the kernel."""
        if self._dimensions is None:
            self._dimensions = predict_dimensions(
                self.function, self.signature, *self._loops_and_pointers()
            )
        return self._dimensions

    # ------------------------------------------------------------------ #
    # Runs of the kernel (task: this kernel's source plus an InputSpec)
    # ------------------------------------------------------------------ #
    def examples(
        self,
        task: LiftingTask,
        *,
        seed: int,
        count: int,
        value_range: Tuple[int, int] = DEFAULT_VALUE_RANGE,
    ) -> Tuple[IOExample, ...]:
        """``IOExampleGenerator(task, seed=seed, ...).generate(count)``, shared."""

        def generate() -> Tuple[IOExample, ...]:
            generator = IOExampleGenerator(
                task, self.function, self.signature, seed=seed, value_range=value_range
            )
            examples = tuple(generator.generate(count))
            for example in examples:
                for value in example.inputs.values():
                    _read_only(value)
                _read_only(example.output)
            return examples

        key = (_spec_key(task.spec), seed, count, tuple(value_range))
        return self._examples.get(key, generate)

    def symbolic_run(
        self, task: LiftingTask, sizes: Mapping[str, int]
    ) -> Optional[SymbolicRun]:
        """The shared :meth:`IOExampleGenerator.run_symbolic` at *sizes*.

        None when the kernel traps at these sizes; raises
        :class:`~repro.core.poly.NotPolynomial` when the run needs the value
        of an input.
        """

        def run():
            generator = IOExampleGenerator(task, self.function, self.signature)
            try:
                symbolic = generator.run_symbolic(sizes)
            except CRuntimeError:
                return None
            except NotPolynomial:
                return _NOT_POLYNOMIAL
            for value in symbolic.inputs.values():
                _read_only(value)
            _read_only(symbolic.output)
            return symbolic

        key = (_spec_key(task.spec), tuple(sizes.items()))
        outcome = self._runs.get(key, run)
        if outcome is _NOT_POLYNOMIAL:
            raise NotPolynomial(f"{task.name}: the run needs an input's value")
        return outcome


_KERNELS = _LRU(MAX_KERNELS)


def kernel_of(task: LiftingTask) -> Kernel:
    """The shared :class:`Kernel` of *task*'s C source and function name."""
    return _KERNELS.get(
        (task.c_source, task.function_name), lambda: Kernel(task.parse())
    )


def clear_kernels() -> None:
    """Forget every cached kernel: the next lift of each one runs cold."""
    _KERNELS.clear()
