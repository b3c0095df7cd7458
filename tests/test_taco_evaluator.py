"""Tests for the dense einsum evaluator (the TACO-compiler stand-in)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taco import TacoEvaluator, TacoTypeError, evaluate
from repro.taco.errors import TacoEvaluationError


class TestBasicSemantics:
    def test_elementwise_add(self):
        out = evaluate("a(i) = b(i) + c(i)", {"b": [1, 2, 3], "c": [10, 20, 30]})
        np.testing.assert_allclose(out, [11, 22, 33])

    def test_elementwise_sub_and_div(self):
        out = evaluate("a(i) = b(i) - c(i)", {"b": [4, 4], "c": [1, 2]})
        np.testing.assert_allclose(out, [3, 2])
        out = evaluate("a(i) = b(i) / c(i)", {"b": [4, 9], "c": [2, 3]})
        np.testing.assert_allclose(out, [2, 3])

    def test_matvec_reduction(self):
        b = np.arange(6).reshape(2, 3)
        c = np.array([1, 2, 3])
        out = evaluate("a(i) = b(i,j) * c(j)", {"b": b, "c": c})
        np.testing.assert_allclose(out, b @ c)

    def test_matmul(self):
        b = np.arange(6).reshape(2, 3)
        c = np.arange(12).reshape(3, 4)
        out = evaluate("a(i,j) = b(i,k) * c(k,j)", {"b": b, "c": c})
        np.testing.assert_allclose(out, b @ c)

    def test_dot_product_scalar_output(self):
        out = evaluate("a = b(i) * c(i)", {"b": [1, 2, 3], "c": [4, 5, 6]})
        assert out == 32

    def test_full_2d_reduction(self):
        b = np.arange(6).reshape(2, 3)
        assert evaluate("a = b(i,j)", {"b": b}) == b.sum()

    def test_row_sum(self):
        b = np.arange(6).reshape(2, 3)
        np.testing.assert_allclose(evaluate("a(i) = b(i,j)", {"b": b}), b.sum(axis=1))

    def test_outer_product(self):
        out = evaluate("a(i,j) = b(i) * c(j)", {"b": [1, 2], "c": [3, 4, 5]})
        np.testing.assert_allclose(out, np.outer([1, 2], [3, 4, 5]))

    def test_transposed_access(self):
        b = np.arange(6).reshape(2, 3)
        out = evaluate("a(j,i) = b(i,j)", {"b": b})
        np.testing.assert_allclose(out, b.T)

    def test_constant_broadcast(self):
        out = evaluate("a(i) = b(i) * 3", {"b": [1, 2]})
        np.testing.assert_allclose(out, [3, 6])

    def test_symbolic_constant_binding(self):
        out = evaluate("a(i) = b(i) + Const", {"b": [1, 2]}, constants={"Const": 10})
        np.testing.assert_allclose(out, [11, 12])

    def test_reduction_applies_to_whole_rhs(self):
        # a(i) = b(i,j) + c(j) sums (b + broadcast c) over j.
        b = np.arange(6).reshape(2, 3)
        c = np.array([1, 2, 3])
        expected = (b + c).sum(axis=1)
        np.testing.assert_allclose(evaluate("a(i) = b(i,j) + c(j)", {"b": b, "c": c}), expected)

    def test_unary_negation(self):
        np.testing.assert_allclose(evaluate("a(i) = -b(i)", {"b": [1, -2]}), [-1, 2])

    def test_ttv(self):
        t = np.arange(24).reshape(2, 3, 4)
        v = np.array([1, 0, 2, 1])
        out = evaluate("a(i,j) = b(i,j,k) * c(k)", {"b": t, "c": v})
        np.testing.assert_allclose(out, np.einsum("ijk,k->ij", t, v))


class TestExactMode:
    def test_exact_division(self):
        out = evaluate("a(i) = b(i) / c(i)", {"b": [1, 1], "c": [3, 7]}, mode="exact")
        assert list(out) == [Fraction(1, 3), Fraction(1, 7)]

    def test_exact_division_by_zero_raises(self):
        with pytest.raises(TacoEvaluationError):
            evaluate("a(i) = b(i) / c(i)", {"b": [1], "c": [0]}, mode="exact")

    def test_exact_matches_float_on_integers(self):
        b = np.arange(6).reshape(2, 3)
        c = np.array([1, 2, 3])
        exact = evaluate("a(i) = b(i,j) * c(j)", {"b": b, "c": c}, mode="exact")
        floaty = evaluate("a(i) = b(i,j) * c(j)", {"b": b, "c": c}, mode="float")
        assert [Fraction(x) for x in exact] == [Fraction(x) for x in floaty]

    def test_scalar_constant_program(self):
        out = evaluate("a(i) = Const", {}, mode="exact", output_shape=(3,), constants={"Const": 5})
        assert list(out) == [Fraction(5)] * 3


class TestSymbolicEvaluation:
    @pytest.mark.parametrize(
        "source, shapes, output_shape",
        [
            ("a(i) = b(i,j) * c(j)", {"b": (2, 3), "c": (3,)}, (2,)),
            ("a = b(i) * c(i)", {"b": (3,), "c": (3,)}, ()),
            ("a(i,j) = b(i) * s - c(j) / s", {"b": (2,), "c": (3,), "s": ()}, (2, 3)),
            ("a(i) = 3 - b(i)", {"b": (2,)}, (2,)),
            ("a(i) = 5", {}, (2,)),
        ],
    )
    def test_symbolic_evaluation_equals_pointwise_evaluations(
        self, source, shapes, output_shape
    ):
        from repro.core.poly import Poly, Quotient
        from repro.taco import parse_program

        def at(value, point):
            if isinstance(value, Quotient):
                return at(value.numerator, point) / at(value.denominator, point)
            if isinstance(value, Poly):
                return value.evaluate(point)
            return Fraction(value)

        program = parse_program(source)
        evaluator = TacoEvaluator(mode="exact")
        variables, symbolic = 0, {}
        for name, shape in shapes.items():
            count = int(np.prod(shape, dtype=int))
            elements = np.empty(count, dtype=object)
            elements[:] = [Poly.variable(variables + k) for k in range(count)]
            symbolic[name] = elements.reshape(shape) if shape else elements[0]
            variables += count
        got = np.asarray(
            evaluator.evaluate(program, symbolic, output_shape=output_shape), dtype=object
        )
        assert got.shape == output_shape
        rng = np.random.default_rng(7)
        for _ in range(4):
            point = {k: int(v) for k, v in enumerate(rng.integers(1, 6, size=variables))}
            concrete, offset = {}, 0
            for name, shape in shapes.items():
                count = int(np.prod(shape, dtype=int))
                values = [Fraction(point[offset + k]) for k in range(count)]
                concrete[name] = np.array(values, dtype=object).reshape(shape)
                offset += count
            want = np.asarray(
                evaluator.evaluate(program, concrete, output_shape=output_shape), dtype=object
            )
            assert [at(g, point) for g in got.reshape(-1)] == list(want.reshape(-1))


class TestErrorHandling:
    def test_missing_binding(self):
        with pytest.raises(TacoTypeError):
            evaluate("a(i) = b(i)", {})

    def test_rank_mismatch(self):
        with pytest.raises(TacoTypeError):
            evaluate("a(i) = b(i,j)", {"b": [1, 2, 3]})

    def test_inconsistent_extents(self):
        with pytest.raises(TacoTypeError):
            evaluate("a(i) = b(i) + c(i)", {"b": [1, 2], "c": [1, 2, 3]})

    def test_unknown_output_extent(self):
        with pytest.raises(TacoTypeError):
            evaluate("a(i) = Const", {}, constants={"Const": 1})

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            TacoEvaluator(mode="decimal")


class TestPropertyBased:
    @given(
        rows=st.integers(min_value=1, max_value=4),
        cols=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_matvec_matches_numpy(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        b = rng.integers(-5, 5, size=(rows, cols))
        c = rng.integers(-5, 5, size=cols)
        out = evaluate("a(i) = b(i,j) * c(j)", {"b": b, "c": c})
        np.testing.assert_allclose(out, b @ c)

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, n, seed):
        rng = np.random.default_rng(seed)
        b = rng.integers(-5, 5, size=n)
        c = rng.integers(-5, 5, size=n)
        left = evaluate("a(i) = b(i) + c(i)", {"b": b, "c": c})
        right = evaluate("a(i) = b(i) + c(i)", {"b": c, "c": b})
        np.testing.assert_allclose(left, right)

    @given(
        n=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_reduction_linearity(self, n, m, seed):
        """sum_j (b + c) == sum_j b + sum_j c (einsum reduction is linear)."""
        rng = np.random.default_rng(seed)
        b = rng.integers(-5, 5, size=(n, m))
        c = rng.integers(-5, 5, size=(n, m))
        combined = evaluate("a(i) = b(i,j) + c(i,j)", {"b": b, "c": c})
        separate = evaluate("a(i) = b(i,j)", {"b": b}) + evaluate("a(i) = b(i,j)", {"b": c})
        np.testing.assert_allclose(combined, separate)
