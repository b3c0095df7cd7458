"""Proof by rational-function identity (`repro.core.poly`, `BoundedEquivalenceChecker.verify`).

The bounded check (:meth:`BoundedEquivalenceChecker.check_bounded`) is the
reference: a proof must never accept what the bounded check rejects, and
every refutation must come with a concrete input on which the C kernel runs
without trapping and disagrees with the TACO program in plain ``Fraction``
arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.cfront import CInterpreter, CRuntimeError, parse_function
from repro.core import verifier as verifier_module
from repro.core.poly import NotPolynomial, Poly, Quotient, divisor, is_zero
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
        q = x / y
        for operation in (
            lambda: x == 0, lambda: x < y, lambda: bool(x), lambda: int(x),
            lambda: q == 0, lambda: q != x, lambda: q >= 1, lambda: bool(q),
            lambda: int(q), lambda: bool(0 * q),
        ):
            with pytest.raises(NotPolynomial):
                operation()

    def test_division_by_a_polynomial_is_a_quotient(self):
        q = x / y
        assert isinstance(q, Quotient) and isinstance(1 / x, Quotient)
        assert q.divisors == {divisor(y)}
        # Equal when n1*d2 - n2*d1 is zero: the fraction is never reduced.
        assert is_zero((x * x) / (y * x) - q)
        assert is_zero(q * y - x) and is_zero(q + q - 2 * x / y)
        assert not is_zero(q - x / (2 * y))
        # Up to a constant factor, 2*y + 4 and y + 2 are one divisor.
        assert (x / (2 * y + 4)).divisors == (x / (y + 2)).divisors

    def test_quotients_keep_their_divisors(self):
        zero = 0 * (x / y)
        assert isinstance(zero, Quotient) and is_zero(zero)
        assert zero.divisors == {divisor(y)}
        assert (zero + x - x).divisors == {divisor(y)}
        # Dividing by n/d divides by n; d is a divisor already.
        assert (1 / (x / y)).divisors == {divisor(x), divisor(y)}
        with pytest.raises(ZeroDivisionError):
            x / zero

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
        "void f(float *a, float *o) { o[0] = a[0] % 2; }",
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
        "modulo", "if", "ternary", "int-cast-subscript", "subscript",
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

    def test_division_by_an_input_is_a_recorded_quotient(self):
        # The divisor is recorded even when the quotient is discarded: the
        # kernel traps where it is zero all the same.
        result = _symbolic(
            "void f(float *a, float *o) { float t = a[1] / a[0]; o[0] = 1 / a[1]; }",
            a=[x, y], o=[Fraction(0)],
        )
        assert is_zero(result.array("o")[0] - 1 / y)
        assert result.divisors == {divisor(x), divisor(y)}

    def test_taco_division_by_a_variable_is_a_quotient(self):
        bound = np.empty(2, dtype=object)
        bound[:] = [x, y]
        evaluator = TacoEvaluator(mode="exact")
        ones = evaluator.evaluate(parse_program("o(i) = a(i) / a(i)"), {"a": bound})
        assert all(isinstance(q, Quotient) and is_zero(q - 1) for q in ones)
        assert ones[1].divisors == {divisor(y)}
        half = evaluator.evaluate(parse_program("o(i) = a(i) / 2"), {"a": bound})
        assert is_zero(half[1] - y / 2)


def _task(body: str, arrays=("x", "out"), **spec) -> LiftingTask:
    return LiftingTask(
        name="test.kernel",
        c_source=body,
        spec=InputSpec(
            sizes={"n": 3}, arrays={name: ("n",) for name in arrays}, **spec
        ),
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

    def test_division_by_an_input_is_proved(self):
        task = _task(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 1 / x[i]; }",
            avoid_zero=True,
        )
        result = BoundedEquivalenceChecker(task).verify(parse_program("out(i) = 1 / x(i)"))
        assert result.equivalent and result.proved
        assert result.proved_sizes == (1, 2, 3)
        assert result.checks_run == 0

    def test_division_by_a_different_input_is_refuted_where_c_runs(self, monkeypatch):
        # C divides by y (and discards the quotient), the program by z: a
        # witness must keep y non-zero too, or the C kernel traps there.
        task = _task(
            "void f(int n, float *x, float *y, float *z, float *out) {"
            " for (int i = 0; i < n; i++) { float t = x[i] / y[i]; out[i] = x[i]; } }",
            arrays=("x", "y", "z", "out"),
        )
        program = parse_program("out(i) = x(i) / z(i)")
        checker = BoundedEquivalenceChecker(task)
        for seed in range(40):
            monkeypatch.setattr(verifier_module, "WITNESS_SEED", seed)
            result = checker.verify(program)
            assert not result.equivalent and result.checks_run == 1
            assert all(v != 0 for v in result.counterexample.inputs["y"])
            _assert_refutes(program, result.counterexample)

    def test_program_dividing_by_more_than_c_is_not_proved(self):
        # Equal as rational functions, but the program also traps where
        # num is 0, and the C kernel does not.
        task = _task(
            "void f(int n, float *num, float *den, float *quot) {"
            " for (int i = 0; i < n; i++) quot[i] = num[i] / den[i]; }",
            arrays=("num", "den", "quot"),
        )
        program = parse_program("quot(i) = (num(i) * num(i)) / (den(i) * num(i))")
        result = BoundedEquivalenceChecker(task).verify(program)
        assert not result.proved and not result.equivalent
        example = result.counterexample
        assert any(v == 0 for v in example.inputs["num"])
        assert all(v != 0 for v in example.inputs["den"])

    def test_divisor_times_zero_is_still_a_divisor(self):
        task = _task(
            "void f(int n, float *x, float *y, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 0 * y[i]; }",
            arrays=("x", "y", "out"),
        )
        program = parse_program("out(i) = 0 * (x(i) / y(i))")
        result = BoundedEquivalenceChecker(task).verify(program)
        assert not result.proved and not result.equivalent

    def test_kernel_trapping_on_every_input_is_not_verified(self):
        # sqrtf is not a supported call: the proof refuses it and every input
        # traps, so no input is checked and nothing may be accepted.
        task = _task(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = sqrtf(x[i]); }"
        )
        result = BoundedEquivalenceChecker(task).verify(parse_program("out(i) = x(i) * 7"))
        assert not result.equivalent and not result.proved
        assert result.checks_run == 0

    def test_difference_vanishing_on_every_bounded_input_is_still_refuted(self):
        # x**5 - 5x**3 + 4x = x(x-1)(x+1)(x-2)(x+2) is zero on the whole value
        # set {-2..2}, so the exhaustive bounded check agrees everywhere.
        task = _task(
            "void f(int n, float *x, float *out) { for (int i = 0; i < n; i++)"
            " out[i] = x[i] * x[i] * x[i] * x[i] * x[i]; }"
        )
        program = parse_program(
            "out(i) = 5 * x(i) * x(i) * x(i) - 4 * x(i)"
        )
        assert BoundedEquivalenceChecker(task).check_bounded(program).equivalent
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
def test_proof_agrees_with_the_bounded_check(bound):
    rows = json.loads(FIXTURE.read_text())[bound]
    config = VerifierConfig(**BOUNDS[bound])
    proved = refuted = 0
    for kernel, entries in rows.items():
        task = get_benchmark(kernel).task()
        prover = BoundedEquivalenceChecker(task, config=config)
        bounded = BoundedEquivalenceChecker(task, config=config)
        for entry in entries:
            program = parse_program(entry[0])
            result = prover.verify(program)
            if result.proved:
                proved += 1
                assert bounded.check_bounded(program).equivalent, (kernel, entry[0])
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
    assert len(proved) == 77
    assert "darknet.copy_cpu" in proved and "dsp.normalize" in proved
