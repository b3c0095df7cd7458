"""Tests for the penalty functions (Section 5.1/5.2) and the cost models."""

from __future__ import annotations

import math

import pytest

from repro.core.costs import BottomUpCostModel, TopDownCostModel, count_rhs_tensors
from repro.core.grammar_gen import bottomup_template_grammar, topdown_template_grammar
from repro.core.pcfg_learn import learn_pcfg
from repro.core.penalties import (
    PenaltyConfig,
    PenaltyContext,
    PenaltyEvaluator,
    TemplateView,
    view_from_symbols,
)
from repro.core.templates import templatize_all
from repro.grammars import NonTerminal
from repro.taco import parse_program
from repro.taco.printer import to_tokens


def view_of(source: str) -> TemplateView:
    return view_from_symbols(list(to_tokens(parse_program(source))))


def context(dims=(1, 2, 1), has_const=False, operators=frozenset({"*"})) -> PenaltyContext:
    return PenaltyContext(
        dimension_list=dims,
        grammar_has_constant=has_const,
        observed_operators=frozenset(operators),
    )


class TestTemplateView:
    def test_view_from_complete_template(self):
        view = view_of("a(i) = b(i,j) * c(j)")
        assert view.is_complete
        assert view.operator_tokens == ("*",)
        assert view.length == 3

    def test_view_from_partial_symbols(self):
        symbols = ["a(i)", "=", NonTerminal("EXPR"), "*", "c(j)"]
        view = view_from_symbols(symbols)
        assert not view.is_complete
        assert view.length == 2

    def test_length_counts_unique_tensors_plus_constants(self):
        assert view_of("a = b(i) * b(i)").length == 2
        assert view_of("a(i) = b(i) + Const").length == 3

    def test_tensors_with_index(self):
        view = view_of("a(i) = b(i,j) * c(j)")
        assert view.tensors_with_index("i") == 2
        assert view.tensors_with_index("j") == 2
        assert view.tensors_with_index("k") == 0


class TestTopDownPenalties:
    def test_correct_template_has_zero_penalty(self):
        evaluator = PenaltyEvaluator.topdown(context())
        assert evaluator.evaluate(list(to_tokens(parse_program("a(i) = b(i,j) * c(j)")))) == 0.0

    def test_a2_wrong_length(self):
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1), operators=frozenset())
        )
        penalty = evaluator.evaluate(list(to_tokens(parse_program("a(i) = b(i,j)"))))
        assert penalty == pytest.approx(100.0)

    def test_a3_alphabetical_order(self):
        evaluator = PenaltyEvaluator.topdown(context())
        symbols = ["a(i)", "=", "c(j)", "*", "b(i,j)"]
        assert math.isinf(evaluator.evaluate(symbols))

    def test_a4_repeated_subtraction_of_same_tensor(self):
        evaluator = PenaltyEvaluator.topdown(context(dims=(1, 1, 1), operators=frozenset({"-"})))
        penalty = evaluator.evaluate(list(to_tokens(parse_program("a(i) = b(i) - b(i)"))))
        assert math.isinf(penalty)

    def test_a4_allows_repeated_multiplication(self):
        evaluator = PenaltyEvaluator.topdown(context(dims=(0, 1), operators=frozenset({"*"})))
        penalty = evaluator.evaluate(list(to_tokens(parse_program("a = b(i) * b(i)"))))
        assert penalty == 0.0

    def test_a5_requires_half_the_defined_operators(self):
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        # Uses 1 of 4 defined operators -> infinite penalty.
        penalty = evaluator.evaluate(
            list(to_tokens(parse_program("a(i) = b(i) + c(i) + d(i)")))
        )
        assert math.isinf(penalty)

    def test_a5_single_defined_operator_is_fine(self):
        evaluator = PenaltyEvaluator.topdown(context(operators=frozenset({"*"})))
        assert (
            evaluator.evaluate(list(to_tokens(parse_program("a(i) = b(i,j) * c(j)")))) == 0.0
        )

    def test_a1_applies_only_with_constants_in_grammar(self):
        long_template = list(to_tokens(parse_program("a(i) = b(i,j) * c(j) + d(i) + e(i)")))
        no_const = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1, 1, 1), operators=frozenset({"*", "+"}))
        )
        with_const = PenaltyEvaluator.topdown(
            PenaltyContext((1, 2, 1, 1, 1), True, frozenset({"*", "+"}))
        )
        assert no_const.evaluate(long_template) == 0.0
        assert with_const.evaluate(long_template) == pytest.approx(10.0)

    def test_dropping_a_criterion_disables_it(self):
        config = PenaltyConfig.drop("a2")
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1), operators=frozenset()), config
        )
        assert evaluator.evaluate(list(to_tokens(parse_program("a(i) = b(i,j)")))) == 0.0
        assert "a2" not in evaluator.active_criteria

    def test_drop_all(self):
        config = PenaltyConfig.drop_all_topdown()
        evaluator = PenaltyEvaluator.topdown(context(), config)
        assert evaluator.active_criteria == ()


class TestBottomUpPenalties:
    def test_b1_alphabetical_is_finite(self):
        evaluator = PenaltyEvaluator.bottomup(context())
        symbols = ["a(i)", "=", "c(j)", "*", "b(i,j)"]
        assert evaluator.evaluate(symbols) == pytest.approx(100.0)

    def test_b2_operator_coverage(self):
        evaluator = PenaltyEvaluator.bottomup(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        symbols = list(to_tokens(parse_program("a(i) = b(i) + c(i) + d(i)")))
        assert math.isinf(evaluator.evaluate(symbols))

    def test_b2_not_triggered_before_enough_tensors(self):
        evaluator = PenaltyEvaluator.bottomup(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        symbols = ["a(i)", "=", "b(i)"]
        assert evaluator.evaluate(symbols) == 0.0


class TestCostModels:
    def _pcfg(self, style):
        templates = templatize_all(
            [parse_program(s) for s in ("r(i) = m(i,j) * v(j)", "r(i) = m(i,j) * v(j)")]
        )
        if style == "topdown":
            grammar = topdown_template_grammar((1, 2, 1), 2, templates)
        else:
            grammar = bottomup_template_grammar((1, 2, 1), 2, templates)
        return learn_pcfg(grammar, templates, style=style), templates

    def test_topdown_costs_positive_and_monotone(self):
        pcfg, _ = self._pcfg("topdown")
        model = TopDownCostModel(pcfg)
        for production in pcfg.productions:
            assert model.production_cost(production) >= 0.0
        assert model.completion_cost([NonTerminal("EXPR")]) > 0.0
        assert model.completion_cost(["a(i)", "=", "b(i,j)"]) == 0.0

    def test_topdown_completion_cost_is_the_heuristic_sum_bit_for_bit(self):
        from repro.grammars import completion_costs, heuristic_completion_cost

        pcfg, _ = self._pcfg("topdown")
        model = TopDownCostModel(pcfg)
        expr, tensor = NonTerminal("EXPR"), NonTerminal("TENSOR")
        form = ["a(i)", "=", expr, "+", tensor, "*", expr, NonTerminal("UNKNOWN")]
        expected = heuristic_completion_cost(form, completion_costs(pcfg))
        assert model.completion_cost(form) == expected
        # Terminals left of the leftmost non-terminal add nothing.
        assert model.completion_cost(form, start=2) == expected

    def test_bottomup_completion_cost_decreases_with_progress(self):
        pcfg, _ = self._pcfg("bottomup")
        model = BottomUpCostModel(pcfg, (1, 2, 1))
        assert model.completion_cost(0) >= model.completion_cost(1) >= model.completion_cost(2)

    def test_count_rhs_tensors(self):
        assert count_rhs_tensors(["a(i)", "=", "b(i,j)", "*", "c(j)"]) == 2
        assert count_rhs_tensors(["a(i)", "=", NonTerminal("EXPR")]) == 0
        assert count_rhs_tensors(["a(i)", "=", "b(i)", "+", NonTerminal("TENSOR")]) == 1
