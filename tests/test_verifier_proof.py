"""Proof by polynomial identity (`repro.core.poly`, `BoundedEquivalenceChecker.verify`).

The lane check (:meth:`BoundedEquivalenceChecker.check_lanes`) is the
reference: a proof must never accept what the lanes reject, and every
refutation must come with a concrete input on which the C kernel and the TACO
program disagree in plain ``Fraction`` arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.cfront import CInterpreter, CRuntimeError, parse_function
from repro.core.poly import NotPolynomial, Poly, is_zero
from repro.core.task import InputSpec, LiftingTask
from repro.core.verifier import BoundedEquivalenceChecker, VerifierConfig
from repro.lifting.checking import build_harness
from repro.suite import all_benchmarks, get_benchmark
from repro.taco import TacoEvaluator, parse_program
from repro.taco.errors import TacoError

FIXTURE = Path(__file__).with_name("verifier_parity.json")
#: Fixture key -> VerifierConfig keyword arguments (as in test_verifier_parity).
BOUNDS = {
    "729/24": {"size_bound": 2, "exhaustive_cap": 729, "sampled_checks": 24},
    "4096/64": {},
}

x, y = Poly.variable(0), Poly.variable(1)


class TestPoly:
    def test_arithmetic_is_exact_and_collapses_constants(self):
        square = (x + y) * (x - y)
        assert is_zero(square - (x * x - y * y))
        assert (x + 1) - x == 1
        assert type((x + 1) - x) is Fraction
        assert x * 0 == 0
        assert is_zero((x / 3) * 3 - x)
        assert (x * Fraction(1, 2) + y).evaluate({0: 4, 1: 1}) == 3

    def test_values_of_non_constants_are_refused(self):
        for operation in (
            lambda: x == 0, lambda: x < y, lambda: bool(x), lambda: int(x),
            lambda: 1 / x, lambda: x / y,
        ):
            with pytest.raises(NotPolynomial):
                operation()

    def test_not_polynomial_is_not_a_trap(self):
        assert not issubclass(NotPolynomial, CRuntimeError)


def _symbolic(source: str, **arguments):
    return CInterpreter(mode="exact").run(parse_function(source), arguments)


class TestNotPolynomialTriggers:
    def test_polynomial_kernel_runs(self):
        result = _symbolic(
            "void f(int n, float *a, float *o) {"
            " for (int i = 0; i < n; i++) o[i] = a[i] * a[i] / 2 + 1; }",
            n=2, a=[x, y], o=[Fraction(0)] * 2,
        )
        first, second = result.array("o")
        assert is_zero(first - (x * x / 2 + 1))
        assert is_zero(second - (y * y / 2 + 1))

    @pytest.mark.parametrize("source", [
        "void f(float *a, float *o) { o[0] = a[0] / a[1]; }",
        "void f(float *a, float *o) { if (a[0] > 0) o[0] = a[0]; }",
        "void f(float *a, float *o) { o[0] = a[0] ? 1 : 0; }",
        "void f(float *a, float *o) { o[0] = o[(int) a[0]]; }",
        "void f(float *a, float *o) { o[0] = o[a[1]]; }",
        "void f(float *a, float *o) { o[0] = sqrtf(a[0]); }",
        "void f(float *a, float *o) { o[0] = expf(a[1]); }",
        "void f(float *a, float *o) { o[0] = fabsf(a[0]); }",
        "void f(float *a, float *o) { int t = a[0]; o[0] = t; }",
        "void f(float *a, float *o) { int t; t = a[0]; o[0] = t; }",
        "void f(float *a, float *o) { int acc = 0; acc += a[0]; o[0] = acc; }",
        "void f(float *a, float *o) { int b[2]; b[0] = a[0]; o[0] = b[0]; }",
        "void f(float *a, int *o) { o[0] = a[0]; }",
    ], ids=[
        "division", "if", "ternary", "int-cast-subscript", "subscript",
        "sqrtf", "expf", "fabsf", "int-init", "int-assign", "int-compound",
        "int-local-array", "int-argument",
    ])
    def test_value_dependent_operations_raise(self, source):
        with pytest.raises(NotPolynomial):
            _symbolic(source, a=[x, y], o=[Fraction(0)] * 2)

    def test_division_by_a_constant_stays_polynomial(self):
        result = _symbolic(
            "void f(float *a, float *o) { o[0] = a[0] / 2; }", a=[x], o=[Fraction(0)]
        )
        assert is_zero(result.array("o")[0] - x / 2)

    def test_taco_division_by_a_variable_raises(self):
        bound = np.empty(2, dtype=object)
        bound[:] = [x, y]
        evaluator = TacoEvaluator(mode="exact")
        with pytest.raises(NotPolynomial):
            evaluator.evaluate(parse_program("o(i) = a(i) / a(i)"), {"a": bound})
        half = evaluator.evaluate(parse_program("o(i) = a(i) / 2"), {"a": bound})
        assert is_zero(half[1] - y / 2)


def _task(body: str, **spec) -> LiftingTask:
    return LiftingTask(
        name="test.kernel",
        c_source=body,
        spec=InputSpec(sizes={"n": 3}, arrays={"x": ("n",), "out": ("n",)}, **spec),
    )


class TestVerify:
    def test_proves_at_sizes_one_to_bound_plus_one(self):
        task = _task(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = x[i] * x[i] - x[i]; }"
        )
        checker = BoundedEquivalenceChecker(task)
        state = checker._generator.getstate()
        result = checker.verify(parse_program("out(i) = x(i) * x(i) - x(i)"))
        assert result.equivalent and result.proved
        assert result.proved_sizes == (1, 2, 3)
        assert result.checks_run == 0
        assert checker._generator.getstate() == state  # no inputs drawn

    def test_int_truncation_is_not_proved(self):
        # C truncates x[i] into t, so out(i) = x(i) holds only on integers.
        task = _task(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) { int t; t = x[i]; out[i] = t; } }"
        )
        result = BoundedEquivalenceChecker(task).verify(parse_program("out(i) = x(i)"))
        assert not result.proved

    def test_division_by_an_input_falls_back_to_lanes(self):
        task = _task(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 1 / x[i]; }",
            avoid_zero=True,
        )
        result = BoundedEquivalenceChecker(task).verify(parse_program("out(i) = 1 / x(i)"))
        assert result.equivalent and not result.proved
        assert result.checks_run > 0

    def test_difference_vanishing_on_every_lane_is_still_refuted(self):
        # x**5 - 5x**3 + 4x = x(x-1)(x+1)(x-2)(x+2) is zero on the whole value
        # set {-2..2}, so the exhaustive lanes agree everywhere.
        task = _task(
            "void f(int n, float *x, float *out) { for (int i = 0; i < n; i++)"
            " out[i] = x[i] * x[i] * x[i] * x[i] * x[i]; }"
        )
        program = parse_program(
            "out(i) = 5 * x(i) * x(i) * x(i) - 4 * x(i)"
        )
        assert BoundedEquivalenceChecker(task).check_lanes(program).equivalent
        result = BoundedEquivalenceChecker(task).verify(program)
        assert not result.equivalent and not result.proved
        _assert_refutes(program, result.counterexample)


def _assert_refutes(program, example) -> None:
    """The TACO program disagrees with the C kernel's recorded run."""
    assert example is not None
    for value in example.inputs.values():
        flat = value.reshape(-1) if isinstance(value, np.ndarray) else [value]
        assert all(isinstance(v, (int, Fraction)) for v in flat)
    names = {access.name for access in program.rhs.tensors()}
    try:
        actual = TacoEvaluator(mode="exact").evaluate(
            program,
            {name: example.inputs[name] for name in names},
            output_shape=example.output_shape(),
        )
    except (TacoError, KeyError, ZeroDivisionError):
        return  # the program cannot even run on this input
    actual = np.asarray(actual, dtype=object)
    expected = np.asarray(example.output, dtype=object)
    assert actual.shape != expected.shape or not bool(np.all(actual == expected))


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_proof_agrees_with_the_lane_check(bound):
    rows = json.loads(FIXTURE.read_text())[bound]
    config = VerifierConfig(**BOUNDS[bound])
    proved = refuted = 0
    for kernel, entries in rows.items():
        task = get_benchmark(kernel).task()
        prover = BoundedEquivalenceChecker(task, config=config)
        lanes = BoundedEquivalenceChecker(task, config=config)
        for entry in entries:
            program = parse_program(entry[0])
            result = prover.verify(program)
            if result.proved:
                proved += 1
                assert lanes.check_lanes(program).equivalent, (kernel, entry[0])
            elif not result.equivalent:
                refuted += 1
                _assert_refutes(program, result.counterexample)
    assert proved >= 60 and refuted >= 50


def test_most_reference_programs_are_proved():
    proved = []
    for bench in all_benchmarks():
        task = bench.task()
        harness = build_harness(task)
        concrete = harness.validator.validate(bench.ground_truth_program()).concrete_program
        assert concrete is not None, bench.name
        result = harness.verifier.verify(concrete)
        assert result.equivalent, bench.name
        if result.proved:
            proved.append(bench.name)
    assert len(proved) >= 60
    assert "darknet.copy_cpu" in proved and "dsp.normalize" not in proved
