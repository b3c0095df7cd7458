"""Tests for the grammar machinery (CFG, pCFG, sentential forms, h(alpha))."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import SententialForm
from repro.grammars import (
    ContextFreeGrammar,
    GrammarError,
    NonTerminal,
    ProbabilisticGrammar,
    Production,
    WeightedGrammar,
    completion_costs,
    derivable_nonterminals,
    heuristic_completion_cost,
    max_derivation_probabilities,
)

S = NonTerminal("S")
E = NonTerminal("E")
OP = NonTerminal("OP")


def simple_grammar() -> ContextFreeGrammar:
    """S -> E ; E -> 'x' | 'y' | E OP E ; OP -> '+' | '*'"""
    return ContextFreeGrammar(
        S,
        [
            Production(S, (E,)),
            Production(E, ("x",)),
            Production(E, ("y",)),
            Production(E, (E, OP, E)),
            Production(OP, ("+",)),
            Production(OP, ("*",)),
        ],
    )


class TestContextFreeGrammar:
    def test_basic_introspection(self):
        grammar = simple_grammar()
        assert grammar.start == S
        assert set(grammar.terminals) == {"x", "y", "+", "*"}
        assert S in grammar.nonterminals and E in grammar.nonterminals
        assert len(grammar.productions_for(E)) == 3

    def test_undefined_nonterminal_rejected(self):
        with pytest.raises(GrammarError):
            ContextFreeGrammar(S, [Production(S, (NonTerminal("MISSING"),))])

    def test_start_without_production_rejected(self):
        with pytest.raises(GrammarError):
            ContextFreeGrammar(NonTerminal("T"), [Production(S, ("x",))])

    def test_leftmost_expansion(self):
        grammar = simple_grammar()
        form = (S,)
        form = grammar.expand_leftmost(form, Production(S, (E,)))
        form = grammar.expand_leftmost(form, Production(E, (E, OP, E)))
        assert form == (E, OP, E)
        assert grammar.leftmost_nonterminal(form) == E
        assert not grammar.is_complete(form)

    def test_expand_wrong_nonterminal_rejected(self):
        grammar = simple_grammar()
        with pytest.raises(GrammarError):
            grammar.expand_leftmost((S,), Production(E, ("x",)))


class TestWeightedAndProbabilistic:
    def test_weight_counting_and_normalisation(self):
        grammar = simple_grammar()
        weighted = WeightedGrammar(grammar.start, grammar.productions, default_weight=0.0)
        weighted.set_weight(Production(E, ("x",)), 3.0)
        weighted.set_weight(Production(E, ("y",)), 1.0)
        weighted.set_weight(Production(E, (E, OP, E)), 0.0)
        pcfg = ProbabilisticGrammar.from_weights(weighted)
        assert pcfg.probability(Production(E, ("x",))) == pytest.approx(0.75)
        assert pcfg.probability(Production(E, ("y",))) == pytest.approx(0.25)

    def test_zero_weight_nonterminal_falls_back_to_uniform(self):
        grammar = simple_grammar()
        weighted = WeightedGrammar(grammar.start, grammar.productions, default_weight=0.0)
        pcfg = ProbabilisticGrammar.from_weights(weighted)
        assert pcfg.probability(Production(OP, ("+",))) == pytest.approx(0.5)

    def test_uniform_probabilities_sum_to_one(self):
        pcfg = ProbabilisticGrammar.uniform(simple_grammar())
        for nt in pcfg.nonterminals:
            total = sum(pcfg.probability(p) for p in pcfg.productions_for(nt))
            assert total == pytest.approx(1.0)

    def test_invalid_probabilities_rejected(self):
        grammar = simple_grammar()
        probabilities = {p: 1.0 for p in grammar.productions}
        with pytest.raises(GrammarError):
            ProbabilisticGrammar(grammar.start, grammar.productions, probabilities)

    def test_cost_is_negative_log2(self):
        pcfg = ProbabilisticGrammar.uniform(simple_grammar())
        production = Production(OP, ("+",))
        assert pcfg.cost(production) == pytest.approx(1.0)  # probability 0.5


class TestAnalysis:
    def test_h_values_in_unit_interval(self):
        pcfg = ProbabilisticGrammar.uniform(simple_grammar())
        h = max_derivation_probabilities(pcfg)
        for value in h.values():
            assert 0.0 <= value <= 1.0

    def test_all_nonterminals_derivable(self):
        pcfg = ProbabilisticGrammar.uniform(simple_grammar())
        assert all(derivable_nonterminals(pcfg).values())

    def test_completion_cost_zero_for_terminal_only_forms(self):
        pcfg = ProbabilisticGrammar.uniform(simple_grammar())
        costs = completion_costs(pcfg)
        assert heuristic_completion_cost(("x", "+", "y"), costs) == 0.0
        assert heuristic_completion_cost((E,), costs) > 0.0

    def test_underivable_nonterminal_detected(self):
        loop = NonTerminal("LOOP")
        grammar = ContextFreeGrammar(
            S,
            [
                Production(S, ("x",)),
                Production(S, (loop,)),
                Production(loop, (loop,)),
            ],
        )
        pcfg = ProbabilisticGrammar.uniform(grammar)
        assert derivable_nonterminals(pcfg)[loop] is False


def derive(grammar, productions):
    """Replay *productions* as a leftmost derivation from the start symbol."""
    form = SententialForm.start(grammar.start)
    for production in productions:
        form = form.expand(production)
    return form


class TestSententialForm:
    def test_manual_derivation(self):
        form = derive(
            simple_grammar(),
            [
                Production(S, (E,)),
                Production(E, (E, OP, E)),
                Production(E, ("x",)),
                Production(OP, ("+",)),
                Production(E, ("y",)),
            ],
        )
        assert form.position is None and form.leftmost is None
        assert form.tokens() == ("x", "+", "y")

    def test_expansion_is_persistent(self):
        form = SententialForm.start(S)
        expanded = form.expand(Production(S, (E,)))
        assert form.leftmost == S and form.symbols == (S,)
        assert expanded.leftmost == E

    def test_replay_matches_grammar_expand_leftmost(self):
        grammar = simple_grammar()
        rules = [
            Production(S, (E,)),
            Production(E, (E, OP, E)),
            Production(E, ("x",)),
            Production(OP, ("*",)),
            Production(E, ("y",)),
        ]
        form = SententialForm.start(grammar.start)
        reference = (grammar.start,)
        for rule in rules:
            form = form.expand(rule)
            reference = grammar.expand_leftmost(reference, rule)
            assert form.symbols == reference
            assert form.leftmost == grammar.leftmost_nonterminal(reference)
        assert " ".join(form.tokens()) == "x * y"

    def test_expression_levels_and_depth(self):
        expr = NonTerminal("EXPR")
        form = SententialForm.start(S)
        form = form.expand(Production(S, (expr,)))
        assert form.levels == (1,)
        form = form.expand(Production(expr, (expr, OP, expr)))
        assert form.levels == (2, 1, 2)
        assert form.depth() == 2
        form = form.expand(Production(expr, ("x",)))
        assert form.levels == (2, 1, 2) and form.leftmost == OP

    def test_cannot_expand_complete_form(self):
        form = derive(simple_grammar(), [Production(S, (E,)), Production(E, ("x",))])
        with pytest.raises(GrammarError):
            form.expand(Production(E, ("y",)))

    def test_production_must_expand_the_leftmost_nonterminal(self):
        form = derive(simple_grammar(), [Production(S, (E,))])
        with pytest.raises(GrammarError):
            form.expand(Production(OP, ("+",)))

    def test_yield_tokens_requires_completeness(self):
        with pytest.raises(GrammarError):
            SententialForm.start(simple_grammar().start).tokens()


class TestPropertyBased:
    @given(weights=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_normalisation_always_sums_to_one(self, weights):
        grammar = simple_grammar()
        weighted = WeightedGrammar(grammar.start, grammar.productions, default_weight=1.0)
        for production, weight in zip(grammar.productions_for(E), weights):
            weighted.set_weight(production, weight)
        pcfg = ProbabilisticGrammar.from_weights(weighted)
        total = sum(pcfg.probability(p) for p in pcfg.productions_for(E))
        assert total == pytest.approx(1.0)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_derivations_terminate_and_are_complete(self, seed):
        import random

        rng = random.Random(seed)
        grammar = simple_grammar()
        form = SententialForm.start(grammar.start)
        for _ in range(200):
            if form.position is None:
                break
            options = grammar.productions_for(form.leftmost)
            # Bias towards terminals so random derivations terminate.
            terminal_options = [p for p in options if not p.rhs_nonterminals()]
            prefer_terminal = terminal_options and rng.random() < 0.7
            pick = rng.choice(terminal_options if prefer_terminal else list(options))
            expected = grammar.expand_leftmost(form.symbols, pick)
            form = form.expand(pick)
            assert form.symbols == expected
            assert form.leftmost == grammar.leftmost_nonterminal(expected)
            assert len(form.levels) == len(form.symbols)
            if form.position is not None:
                assert form.symbols[form.position] == form.leftmost
                assert grammar.is_complete(form.symbols[: form.position])
        if form.position is None:
            assert grammar.is_complete(form.symbols)
            assert all(isinstance(token, str) for token in form.tokens())
