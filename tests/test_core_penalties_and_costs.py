"""Tests for the penalty functions (Section 5.1/5.2) and the cost models."""

from __future__ import annotations

import math

import pytest

from repro.core.costs import (
    BottomUpCostModel,
    TopDownCostModel,
    interned_completion_cost,
    rhs_tensor_counter,
)
from repro.core.grammar_gen import bottomup_template_grammar, topdown_template_grammar
from repro.core.pcfg_learn import learn_pcfg
from repro.core.penalties import (
    PenaltyConfig,
    PenaltyContext,
    PenaltyEvaluator,
    TemplateView,
    view_from_symbols,
)
from repro.core.search import InternedGrammar
from repro.core.templates import templatize_all
from repro.grammars import NonTerminal
from repro.taco import parse_program
from repro.taco.printer import to_tokens


def view_of(source: str) -> TemplateView:
    return view_from_symbols(list(to_tokens(parse_program(source))))


def encode(alphabet, symbols) -> str:
    """*symbols* interned against *alphabet*: code ``chr(i)`` is ``alphabet[i]``."""
    return "".join(chr(alphabet.index(symbol)) for symbol in symbols)


def penalty_of(evaluator: PenaltyEvaluator, symbols) -> float:
    """``X(x)`` of *symbols* the way a search scores it: interned and memoized.

    Checked against the plain view path, so both agree on every case below.
    """
    alphabet = tuple(dict.fromkeys(symbols))
    value = evaluator.memoized(alphabet)(encode(alphabet, symbols))
    expected = evaluator.evaluate_view(view_from_symbols(symbols))
    assert value == expected
    return value


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
        template = list(to_tokens(parse_program("a(i) = b(i,j) * c(j)")))
        assert penalty_of(evaluator, template) == 0.0

    def test_a2_wrong_length(self):
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1), operators=frozenset())
        )
        penalty = penalty_of(evaluator, list(to_tokens(parse_program("a(i) = b(i,j)"))))
        assert penalty == pytest.approx(100.0)

    def test_a3_alphabetical_order(self):
        evaluator = PenaltyEvaluator.topdown(context())
        symbols = ["a(i)", "=", "c(j)", "*", "b(i,j)"]
        assert math.isinf(penalty_of(evaluator, symbols))

    def test_a4_repeated_subtraction_of_same_tensor(self):
        evaluator = PenaltyEvaluator.topdown(context(dims=(1, 1, 1), operators=frozenset({"-"})))
        penalty = penalty_of(evaluator, list(to_tokens(parse_program("a(i) = b(i) - b(i)"))))
        assert math.isinf(penalty)

    def test_a4_allows_repeated_multiplication(self):
        evaluator = PenaltyEvaluator.topdown(context(dims=(0, 1), operators=frozenset({"*"})))
        penalty = penalty_of(evaluator, list(to_tokens(parse_program("a = b(i) * b(i)"))))
        assert penalty == 0.0

    def test_a5_requires_half_the_defined_operators(self):
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        # Uses 1 of 4 defined operators -> infinite penalty.
        penalty = penalty_of(
            evaluator, list(to_tokens(parse_program("a(i) = b(i) + c(i) + d(i)")))
        )
        assert math.isinf(penalty)

    def test_a5_single_defined_operator_is_fine(self):
        evaluator = PenaltyEvaluator.topdown(context(operators=frozenset({"*"})))
        assert (
            penalty_of(evaluator, list(to_tokens(parse_program("a(i) = b(i,j) * c(j)")))) == 0.0
        )

    def test_a1_applies_only_with_constants_in_grammar(self):
        long_template = list(to_tokens(parse_program("a(i) = b(i,j) * c(j) + d(i) + e(i)")))
        no_const = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1, 1, 1), operators=frozenset({"*", "+"}))
        )
        with_const = PenaltyEvaluator.topdown(
            PenaltyContext((1, 2, 1, 1, 1), True, frozenset({"*", "+"}))
        )
        assert penalty_of(no_const, long_template) == 0.0
        assert penalty_of(with_const, long_template) == pytest.approx(10.0)

    def test_dropping_a_criterion_disables_it(self):
        config = PenaltyConfig.drop("a2")
        evaluator = PenaltyEvaluator.topdown(
            context(dims=(1, 2, 1), operators=frozenset()), config
        )
        assert penalty_of(evaluator, list(to_tokens(parse_program("a(i) = b(i,j)")))) == 0.0
        assert "a2" not in evaluator.active_criteria

    def test_drop_all(self):
        config = PenaltyConfig.drop_all_topdown()
        evaluator = PenaltyEvaluator.topdown(context(), config)
        assert evaluator.active_criteria == ()


class TestBottomUpPenalties:
    def test_b1_alphabetical_is_finite(self):
        evaluator = PenaltyEvaluator.bottomup(context())
        symbols = ["a(i)", "=", "c(j)", "*", "b(i,j)"]
        assert penalty_of(evaluator, symbols) == pytest.approx(100.0)

    def test_b2_operator_coverage(self):
        evaluator = PenaltyEvaluator.bottomup(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        symbols = list(to_tokens(parse_program("a(i) = b(i) + c(i) + d(i)")))
        assert math.isinf(penalty_of(evaluator, symbols))

    def test_b2_not_triggered_before_enough_tensors(self):
        evaluator = PenaltyEvaluator.bottomup(
            context(dims=(1, 1, 1, 1), operators=frozenset({"+", "-", "*", "/"}))
        )
        symbols = ["a(i)", "=", "b(i)"]
        assert penalty_of(evaluator, symbols) == 0.0


class TestCostModels:
    def _pcfg(self, style):
        templates = templatize_all(
            [parse_program(s) for s in ("r(i) = m(i,j) * v(j)", "r(i) = m(i,j) * v(j)")]
        )
        if style == "topdown":
            grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        else:
            grammar = bottomup_template_grammar((1, 2, 1), 2, templates, constants=())
        return learn_pcfg(grammar, templates, style=style), templates

    def test_topdown_costs_positive_and_monotone(self):
        pcfg, _ = self._pcfg("topdown")
        model = TopDownCostModel(pcfg)
        for production in pcfg.productions:
            assert model.production_cost(production) >= 0.0
        interned = InternedGrammar(pcfg, model.production_cost)
        completion_cost = model.completion_cost(interned.alphabet)
        assert completion_cost(interned.encode([NonTerminal("EXPR")])) > 0.0
        # A terminal-only form ("a(i) = b(i,j)") has no open non-terminals.
        assert completion_cost("") == 0.0

    def test_topdown_completion_cost_is_the_heuristic_sum_bit_for_bit(self):
        from repro.grammars import completion_costs, heuristic_completion_cost

        pcfg, _ = self._pcfg("topdown")
        model = TopDownCostModel(pcfg)
        interned = InternedGrammar(pcfg, model.production_cost)
        expr, tensor = NonTerminal("EXPR"), NonTerminal("TENSOR")
        form = ["a(i)", "=", expr, "+", tensor, "*", expr]
        open_codes = interned.encode([expr, tensor, expr])
        expected = heuristic_completion_cost(form, completion_costs(pcfg))
        completion_cost = model.completion_cost(interned.alphabet)
        assert completion_cost(open_codes) == expected
        assert completion_cost(open_codes) == expected  # from the memo
        # A non-terminal the cost map does not know costs the same fallback.
        costs = {expr: completion_costs(pcfg)[expr]}
        assert interned_completion_cost(interned.alphabet, costs)(
            open_codes
        ) == heuristic_completion_cost(form, costs)

    def test_interned_completion_cost_sums_left_to_right_uncompensated(self):
        """Mixed magnitudes where naive and compensated float sums differ.

        ``1e16 + 1.0`` rounds back to ``1e16`` (ties to even), so the naive
        left-to-right sum of ``1e16, 1.0, 1.0`` is ``1e16``, while a
        compensated sum (``math.fsum``; builtin ``sum`` since Python 3.12)
        is ``1e16 + 2``.  The A* queue order depends on the naive bits.
        """
        from repro.grammars import heuristic_completion_cost

        big, one, other = NonTerminal("BIG"), NonTerminal("ONE"), NonTerminal("OTHER")
        costs = {big: 1e16, one: 1.0, other: 1.0}
        assert math.fsum(costs.values()) == 1e16 + 2 != 1e16
        alphabet = (big, one, other, "x")
        completion_cost = interned_completion_cost(alphabet, costs)
        for order in [(big, one, other), (big, one, "x", other), (one, other, big)]:
            open_nonterminals = [s for s in order if isinstance(s, NonTerminal)]
            expected = heuristic_completion_cost(order, costs)
            assert completion_cost(encode(alphabet, open_nonterminals)) == expected
        assert completion_cost(encode(alphabet, [big, one, other])) == 1e16
        assert completion_cost(encode(alphabet, [one, other, big])) == 1e16 + 2

    def test_bottomup_completion_cost_decreases_with_progress(self):
        pcfg, _ = self._pcfg("bottomup")
        model = BottomUpCostModel(pcfg, (1, 2, 1))
        assert model.completion_cost(0) >= model.completion_cost(1) >= model.completion_cost(2)

    def test_count_rhs_tensors(self):
        expr, tensor = NonTerminal("EXPR"), NonTerminal("TENSOR")
        alphabet = (expr, tensor, "a(i)", "=", "b(i,j)", "*", "c(j)", "b(i)", "+", "(", ")")
        count_rhs_tensors = rhs_tensor_counter(alphabet)

        def count(symbols):
            return count_rhs_tensors(encode(alphabet, symbols))

        assert count(["a(i)", "=", "b(i,j)", "*", "c(j)"]) == 2
        assert count(["a(i)", "=", expr]) == 0
        assert count(["a(i)", "=", "b(i)", "+", tensor]) == 1
        assert count(["a(i)", "=", "(", "b(i)", "+", "c(j)", ")", "*", "b(i,j)"]) == 3
        # No "=" yet: nothing is on the right-hand side.
        assert count(["a(i)", expr]) == 0
        assert rhs_tensor_counter((expr, "a(i)"))(encode((expr, "a(i)"), ["a(i)"])) == 0
