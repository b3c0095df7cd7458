"""Tests for the mini-C lexer, parser and interpreter."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import (
    CRuntimeError,
    CSyntaxError,
    CInterpreter,
    parse_function,
    parse_translation_unit,
    run_function,
    tokenize,
)
from repro.core.poly import Poly
from repro.suite import all_benchmarks


class TestLexer:
    def test_tokenizes_function(self):
        tokens = tokenize("void f(int n, float *x) { x[0] = 1.5f; }")
        texts = [t.text for t in tokens]
        assert "void" in texts and "1.5" in texts and "*" in texts

    def test_comments_and_preprocessor_are_skipped(self):
        source = """
#include <stdio.h>
// line comment
/* block
   comment */
void f(int n) { }
"""
        texts = [t.text for t in tokenize(source)]
        assert "include" not in texts and "comment" not in texts

    def test_multichar_operators(self):
        texts = [t.text for t in tokenize("a += b; c++; d <= e;")]
        assert "+=" in texts and "++" in texts and "<=" in texts

    def test_unterminated_comment_rejected(self):
        with pytest.raises(CSyntaxError):
            tokenize("/* never closed")


class TestParser:
    def test_parses_parameters(self):
        fn = parse_function("void f(int n, const float *x, double y[]) {}")
        assert fn.parameter_names() == ("n", "x", "y")
        assert fn.parameter("x").type.is_pointer
        assert fn.parameter("y").type.is_pointer
        assert not fn.parameter("n").type.is_pointer

    def test_parses_multiple_functions(self):
        unit = parse_translation_unit("void f(int n) {} int g(int n) { return n; }")
        assert len(unit.functions) == 2
        assert unit.function("g").name == "g"

    def test_for_while_do_if(self):
        source = """
void f(int n, int *a) {
    int i = 0;
    for (i = 0; i < n; i++) a[i] = i;
    while (i > 0) { i--; }
    do { i++; } while (i < 2);
    if (n > 0) a[0] = 1; else a[0] = 2;
}
"""
        fn = parse_function(source)
        assert fn.name == "f"

    def test_pointer_idioms(self):
        source = """
void f(int n, int *src, int *dst) {
    int *p = src;
    int *q = &dst[0];
    *q++ = *p++;
    q = q + n;
    p += 2;
}
"""
        assert parse_function(source).name == "f"

    def test_ternary_and_casts(self):
        source = "int f(int a, int b) { return a > b ? (int) a : b; }"
        assert parse_function(source).name == "f"

    def test_syntax_error_reported_with_location(self):
        with pytest.raises(CSyntaxError):
            parse_function("void f(int n) { for (;;; }")

    def test_missing_function_lookup(self):
        unit = parse_translation_unit("void f(int n) {}")
        with pytest.raises(KeyError):
            unit.function("missing")


class TestInterpreter:
    def test_subscript_kernel(self):
        fn = parse_function(
            "void add(int n, int *a, int *b, int *out) {"
            " for (int i = 0; i < n; i++) out[i] = a[i] + b[i]; }"
        )
        result = run_function(fn, {"n": 3, "a": [1, 2, 3], "b": [10, 20, 30], "out": [0, 0, 0]})
        assert result.array("out") == [11, 22, 33]

    def test_pointer_walk_kernel(self, figure2_source):
        fn = parse_function(figure2_source)
        result = run_function(
            fn, {"N": 2, "Mat1": [1, 2, 3, 4], "Mat2": [5, 6], "Result": [0, 0]}
        )
        assert result.array("Result") == [17, 39]

    def test_return_value(self):
        fn = parse_function(
            "int dot(int n, int *a, int *b) {"
            " int s = 0; for (int i = 0; i < n; i++) s += a[i] * b[i]; return s; }"
        )
        assert run_function(fn, {"n": 3, "a": [1, 2, 3], "b": [4, 5, 6]}).return_value == 32

    def test_integer_division_truncates_toward_zero(self):
        fn = parse_function("void f(int a, int b, int *out) { *out = a / b; }")
        assert run_function(fn, {"a": -7, "b": 2, "out": [0]}, mode="int").array("out") == [-3]

    def test_exact_mode_uses_rationals_for_float_division(self):
        fn = parse_function("void f(float a, float b, float *out) { *out = a / b; }")
        result = run_function(fn, {"a": 1, "b": 3, "out": [0]}, mode="exact")
        assert result.array("out") == [Fraction(1, 3)]

    @pytest.mark.parametrize("source", [
        "void k(float *a, int *o) { int t = a[0] / 2; o[0] = t; }",
        "void k(float *a, float *o) { int t; t = a[0] / 2; o[0] = t; }",
        "void k(float *a, float *o) { int t = 0; t += a[0] / 2; o[0] = t; }",
        "void k(float *a, float *o) { int b[1]; b[0] = a[0] / 2; o[0] = b[0]; }",
        "void k(float *a, int *o) { o[0] = a[0] / 2; }",
    ], ids=["init", "assign", "compound", "local-array", "int-argument"])
    def test_int_store_truncates_toward_zero_in_exact_and_float_mode(self, source):
        fn = parse_function(source)
        for value, want in ((-3, -1), (3, 1), (-5, -2), (-1, 0)):
            exact = run_function(fn, {"a": [value], "o": [0]}, mode="exact").array("o")
            floating = run_function(fn, {"a": [value], "o": [0]}, mode="float").array("o")
            assert exact == floating == [want]

    def test_out_of_bounds_read_raises(self):
        fn = parse_function("void f(int n, int *a, int *out) { *out = a[n]; }")
        with pytest.raises(CRuntimeError):
            run_function(fn, {"n": 5, "a": [1, 2], "out": [0]})

    def test_division_by_zero_raises(self):
        fn = parse_function("void f(int a, int *out) { *out = a / 0; }")
        with pytest.raises(CRuntimeError):
            run_function(fn, {"a": 1, "out": [0]})

    def test_float_division_by_a_zero_argument_raises(self):
        fn = parse_function("void f(float a, float b, float *out) { *out = a / b; }")
        with pytest.raises(CRuntimeError):
            CInterpreter().run(fn, {"a": 1, "b": 0, "out": [0]})

    @pytest.mark.parametrize("a, b, x, want", [
        (-7, 2, Fraction(7, 2), [-3, -1, 3, -3]),
        (7, 2, Fraction(1, 3), [3, 1, 0, 3]),
        (5, -3, 4, [-1, 2, 4, -1]),
        (-9, -4, Fraction(9, 4), [2, -1, 2, 2]),
    ])
    def test_int_division_remainder_and_casts_truncate_in_exact_mode(self, a, b, x, want):
        fn = parse_function(
            "void f(int a, int b, float x, int *out) {"
            " int q = a / b; out[0] = q; out[1] = a % b; out[2] = (int) x;"
            " out[3] = a / b; }"
        )
        result = CInterpreter().run(fn, {"a": a, "b": b, "x": x, "out": [0] * 4})
        assert result.array("out") == want
        assert all(type(v) is int for v in result.array("out"))

    def test_step_limit(self):
        fn = parse_function("void f(int n, int *out) { while (1) { *out = 1; } }")
        interpreter = CInterpreter(step_limit=1000)
        with pytest.raises(CRuntimeError):
            interpreter.run(fn, {"n": 1, "out": [0]})

    def test_local_arrays(self):
        fn = parse_function(
            "void f(int n, int *out) {"
            " int tmp[4]; for (int i = 0; i < 4; i++) tmp[i] = i;"
            " *out = tmp[0] + tmp[3]; }"
        )
        assert run_function(fn, {"n": 1, "out": [0]}).array("out") == [3]

    def test_compound_assignment_and_incdec(self):
        fn = parse_function(
            "void f(int n, int *out) { int x = 1; x *= 4; x -= 1; x++; --x; *out = x; }"
        )
        assert run_function(fn, {"n": 0, "out": [0]}).array("out") == [3]

    def test_ternary_expression(self):
        fn = parse_function("void f(int a, int b, int *out) { *out = a > b ? a : b; }")
        assert run_function(fn, {"a": 3, "b": 9, "out": [0]}).array("out") == [9]

    def test_builtin_abs(self):
        fn = parse_function("void f(int a, int *out) { *out = abs(a); }")
        assert run_function(fn, {"a": -4, "out": [0]}).array("out") == [4]

    def test_numpy_array_arguments_accepted(self):
        fn = parse_function(
            "void scale(int n, int s, int *x, int *out) {"
            " for (int i = 0; i < n; i++) out[i] = s * x[i]; }"
        )
        result = run_function(
            fn, {"n": 3, "s": 2, "x": np.array([1, 2, 3]), "out": np.zeros(3, dtype=int)}
        )
        assert result.array("out") == [2, 4, 6]

    def test_missing_argument_rejected(self):
        fn = parse_function("void f(int n) {}")
        with pytest.raises(Exception):
            run_function(fn, {})


class TestInterpreterProperties:
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_pointer_and_subscript_styles_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 5, size=n).tolist()
        b = rng.integers(-5, 5, size=n).tolist()
        subscript = parse_function(
            "void f(int n, int *a, int *b, int *out) {"
            " for (int i = 0; i < n; i++) out[i] = a[i] * b[i]; }"
        )
        pointer = parse_function(
            "void f(int n, int *a, int *b, int *out) {"
            " int *pa = a; int *pb = b; int *po = out;"
            " for (int i = 0; i < n; i++) *po++ = *pa++ * *pb++; }"
        )
        args = lambda: {"n": n, "a": list(a), "b": list(b), "out": [0] * n}  # noqa: E731
        assert (
            run_function(subscript, args()).array("out")
            == run_function(pointer, args()).array("out")
        )

    @given(
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_interpreter_matches_numpy_dot(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 5, size=n)
        b = rng.integers(-5, 5, size=n)
        fn = parse_function(
            "int dot(int n, int *a, int *b) {"
            " int s = 0; for (int i = 0; i < n; i++) s += a[i] * b[i]; return s; }"
        )
        assert run_function(fn, {"n": n, "a": a, "b": b}).return_value == int(a @ b)


# ---------------------------------------------------------------------- #
# Symbolic values: one run on variables stands for every input
# ---------------------------------------------------------------------- #
def _value_at(value, point):
    """A symbolic run's output element at an integer *point*."""
    from repro.core.poly import Poly, Quotient

    if isinstance(value, Quotient):
        return _value_at(value.numerator, point) / _value_at(value.denominator, point)
    if isinstance(value, Poly):
        return value.evaluate(point)
    return Fraction(value)


class TestSymbolicValues:
    @pytest.mark.parametrize("kernel", [b.name for b in all_benchmarks()])
    def test_symbolic_run_equals_scalar_runs(self, kernel):
        import random

        from repro.core import IOExampleGenerator
        from repro.suite import get_benchmark

        task = get_benchmark(kernel).task()
        generator = IOExampleGenerator(task, seed=3)
        sizes = {name: 2 for name in task.spec.sizes}
        run = generator.run_symbolic(sizes)
        rng = random.Random(3)
        checked = 0
        while checked < 4:
            point = {ident: rng.randint(-3, 3) for ident in range(len(run.variables))}
            # A point on a divisor's zero set traps; it is outside the run's claim.
            if any(not _value_at(Poly(dict(d)), point) for d in run.divisors):
                continue
            scalar = generator.generate_one(sizes, values=run.values(point))
            want = np.asarray(scalar.output, dtype=object).reshape(-1)
            got = np.asarray(run.output, dtype=object).reshape(-1)
            assert len(got) == len(want)
            assert all(_value_at(g, point) == w for g, w in zip(got, want))
            checked += 1
