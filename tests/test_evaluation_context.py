"""Tests for EvaluationContext caching, aliases, and the _reduce semantics."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.taco import TacoEvaluator, TacoTypeError, evaluate, parse_program
from repro.taco.errors import TacoEvaluationError
from repro.taco.evaluator import EvaluationContext


class TestContextReuse:
    def test_context_matches_one_shot_evaluation(self):
        bindings = {"b": np.arange(6).reshape(2, 3), "c": np.array([1, 2, 3])}
        evaluator = TacoEvaluator(mode="exact")
        context = evaluator.context(bindings)
        programs = [
            "a(i) = b(i,j) * c(j)",
            "a(i) = b(i,j) + c(j)",
            "a(i) = b(i,j) - c(j)",
            "a = b(i,j)",
            "a(i,j) = b(i,j) * 2",
        ]
        for source in programs:
            program = parse_program(source)
            via_context = evaluator.evaluate_in_context(context, program)
            one_shot = evaluator.evaluate(program, bindings)
            if isinstance(one_shot, np.ndarray):
                assert via_context.tolist() == one_shot.tolist(), source
            else:
                assert via_context == one_shot, source

    def test_layouts_shared_across_same_access_pattern(self):
        bindings = {"b": [1, 2, 3], "c": [4, 5, 6]}
        evaluator = TacoEvaluator(mode="float")
        context = evaluator.context(bindings)
        for op in "+-*/":
            program = parse_program(f"a(i) = b(i) {op} c(i)")
            evaluator.evaluate_in_context(context, program)
        # One layout for the shared access pattern, three cache hits.
        assert context.layout_misses == 1
        assert context.layout_hits == 3

    def test_rebind_keeps_the_grids_and_reads_the_new_values(self, monkeypatch):
        evaluator = TacoEvaluator(mode="exact")
        program = parse_program("a(i) = b(i,j) * c(j) + s")
        inputs = [
            {"b": np.arange(6).reshape(2, 3) + k, "c": np.array([1, 2, 3]) * k, "s": k}
            for k in range(3)
        ]
        expected = [evaluator.evaluate(program, b).tolist() for b in inputs]
        computed = []
        compute = EvaluationContext._compute_grids
        monkeypatch.setattr(
            EvaluationContext,
            "_compute_grids",
            lambda self, *args: computed.append(1) or compute(self, *args),
        )
        context = evaluator.context({})
        for bindings, want in zip(inputs, expected):
            context.rebind(bindings)
            assert evaluator.evaluate_in_context(context, program).tolist() == want
        assert len(computed) == 1
        assert context.layout_misses == 3

    def test_mode_mismatch_rejected(self):
        context = EvaluationContext({"b": [1]}, mode="float")
        program = parse_program("a(i) = b(i)")
        with pytest.raises(TacoTypeError):
            TacoEvaluator(mode="exact").evaluate_in_context(context, program)

    def test_missing_binding_still_raises(self):
        evaluator = TacoEvaluator(mode="float")
        context = evaluator.context({"b": [1, 2]})
        with pytest.raises(TacoTypeError):
            evaluator.evaluate_in_context(context, parse_program("a(i) = q(i)"))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EvaluationContext({}, mode="decimal")


class TestAliases:
    def test_alias_evaluation_matches_renamed_program(self):
        bindings = {"Mat1": np.arange(6).reshape(2, 3), "Mat2": np.array([1, 2, 3])}
        evaluator = TacoEvaluator(mode="exact")
        context = evaluator.context(bindings)
        template = parse_program("a(i) = b(i,j) * c(j)")
        via_alias = evaluator.evaluate_in_context(
            context, template, aliases={"b": "Mat1", "c": "Mat2"}
        )
        concrete = parse_program("a(i) = Mat1(i,j) * Mat2(j)")
        direct = evaluator.evaluate_in_context(context, concrete)
        assert via_alias.tolist() == direct.tolist()
        # Both evaluations resolve to the same access pattern: one layout.
        assert context.layout_misses == 1
        assert context.layout_hits == 1

    def test_alias_with_symbolic_constant(self):
        evaluator = TacoEvaluator(mode="float")
        context = evaluator.context({"x": [1.0, 2.0]})
        template = parse_program("a(i) = b(i) + Const")
        out = evaluator.evaluate_in_context(
            context, template, aliases={"b": "x"}, constants={"Const": 10}
        )
        np.testing.assert_allclose(out, [11.0, 12.0])


class TestIntMode:
    def test_int_mode_division_raises(self):
        with pytest.raises(TacoEvaluationError):
            evaluate("a(i) = b(i) / c(i)", {"b": [4, 6], "c": [2, 3]}, mode="int")

    def test_int_mode_division_raises_in_context(self):
        evaluator = TacoEvaluator(mode="int")
        context = evaluator.context({"b": [4], "c": [2]})
        with pytest.raises(TacoEvaluationError):
            evaluator.evaluate_in_context(context, parse_program("a(i) = b(i) / c(i)"))

    def test_int_mode_arithmetic_stays_integral(self):
        out = evaluate("a(i) = b(i) * c(i)", {"b": [2, 3], "c": [4, 5]}, mode="int")
        assert out.dtype == np.int64
        assert out.tolist() == [8, 15]


class TestReduceAlignment:
    def test_rhs_omitting_leading_index_variable(self):
        """a(i,j) = b(j): the RHS never mentions i, extents coincide."""
        b = np.array([10, 20])
        out = evaluate("a(i,j) = b(j)", {"b": b}, output_shape=(2, 2))
        np.testing.assert_allclose(out, [[10, 20], [10, 20]])

    def test_scalar_rhs_fills_with_mode_dtype(self):
        out = evaluate("a(i) = 3", {}, output_shape=(4,))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [3.0] * 4)
        exact = evaluate("a(i) = 3", {}, mode="exact", output_shape=(4,))
        assert exact.dtype == object
        assert list(exact) == [Fraction(3)] * 4

    def test_lower_rank_value_aligns_positionally(self):
        """Regression: a rank-deficient value binds leading index variables.

        With equal extents NumPy's default (trailing-axis) broadcast would
        silently rebind the value's only axis to the *last* index variable;
        the explicit reshape in _reduce must keep alignment positional.
        """
        evaluator = TacoEvaluator(mode="float")
        program = parse_program("a(i) = b(i,j)")  # reduces over j
        index_order = ("i", "j")
        extents = {"i": 2, "j": 2}
        # A value carrying only the i axis: [10, 20].
        value = np.array([10.0, 20.0])
        reduced = evaluator._reduce(program, value, index_order, extents)
        # Positional alignment: row i is constant, summing over j doubles it.
        np.testing.assert_allclose(reduced, [20.0, 40.0])

    def test_full_rank_values_unchanged(self):
        b = np.arange(6).reshape(2, 3)
        np.testing.assert_allclose(
            evaluate("a(i) = b(i,j)", {"b": b}), b.sum(axis=1)
        )
