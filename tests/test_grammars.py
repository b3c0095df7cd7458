"""Tests for the grammar machinery (CFG, pCFG, sentential forms, h(alpha))."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import InternedGrammar
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


def start_form(grammar):
    """*grammar* interned with unit step costs, and its start form."""
    interned = InternedGrammar(grammar, lambda production: 1.0)
    return interned, interned.start_form()


def derive(grammar, productions):
    """Replay *productions* as a leftmost derivation from the start symbol."""
    interned, form = start_form(grammar)
    for production in productions:
        form = interned.expand(form, production)
    return interned, form


def position(form):
    """The leftmost non-terminal's index in *form*, None once complete."""
    return form[3]


def depth(form):
    """The expression depth of *form*."""
    return form[4]


def cost(form):
    """``c(x)`` of *form*."""
    return form[5]


class TestSententialForm:
    def test_manual_derivation(self):
        interned, form = derive(
            simple_grammar(),
            [
                Production(S, (E,)),
                Production(E, (E, OP, E)),
                Production(E, ("x",)),
                Production(OP, ("+",)),
                Production(E, ("y",)),
            ],
        )
        assert position(form) is None and interned.leftmost(form) is None
        assert interned.tokens(form) == ("x", "+", "y")
        assert cost(form) == 5.0  # one unit step cost per production applied

    def test_expansion_is_persistent(self):
        interned, form = start_form(simple_grammar())
        expanded = interned.expand(form, Production(S, (E,)))
        assert interned.leftmost(form) == S and interned.symbols(form) == (S,)
        assert interned.leftmost(expanded) == E
        assert (cost(form), cost(expanded)) == (0.0, 1.0)

    def test_one_code_point_per_symbol(self):
        grammar = simple_grammar()
        interned, form = derive(grammar, [Production(S, (E,)), Production(E, (E, OP, E))])
        # Non-terminals first (codes 0..N-1), then terminals.
        assert interned.alphabet == grammar.nonterminals + grammar.terminals
        assert interned.nonterminal_count == len(grammar.nonterminals)
        codes, _level_codes, open_codes, _position, _depth, _cost = form
        symbols = interned.symbols(form)
        assert len(codes) == len(symbols) == 3
        assert interned.decode(interned.encode(symbols)) == symbols
        assert open_codes == interned.encode((E, OP, E))

    def test_symbols_outside_the_grammar_are_rejected(self):
        interned, form = start_form(simple_grammar())
        with pytest.raises(GrammarError):
            interned.expand(form, Production(S, (NonTerminal("MISSING"),)))
        with pytest.raises(GrammarError):
            # known symbols, unknown production
            interned.expand(form, Production(S, ("x",)))

    def test_replay_matches_grammar_expand_leftmost(self):
        grammar = simple_grammar()
        rules = [
            Production(S, (E,)),
            Production(E, (E, OP, E)),
            Production(E, ("x",)),
            Production(OP, ("*",)),
            Production(E, ("y",)),
        ]
        interned, form = start_form(grammar)
        reference = (grammar.start,)
        for rule in rules:
            form = interned.expand(form, rule)
            reference = grammar.expand_leftmost(reference, rule)
            assert interned.symbols(form) == reference
            assert interned.leftmost(form) == grammar.leftmost_nonterminal(reference)
        assert " ".join(interned.tokens(form)) == "x * y"

    def test_expression_levels_and_depth(self):
        expr = NonTerminal("EXPR")
        grammar = ContextFreeGrammar(
            S,
            [
                Production(S, (expr,)),
                Production(expr, (expr, OP, expr)),
                Production(expr, ("x",)),
                Production(OP, ("+",)),
            ],
        )
        interned, form = start_form(grammar)
        form = interned.expand(form, Production(S, (expr,)))
        assert interned.levels(form) == (1,)
        form = interned.expand(form, Production(expr, (expr, OP, expr)))
        assert interned.levels(form) == (2, 1, 2)
        assert depth(form) == 2
        form = interned.expand(form, Production(expr, ("x",)))
        assert interned.levels(form) == (2, 1, 2) and interned.leftmost(form) == OP

    def test_epsilon_expansion_recomputes_depth(self):
        """Erasing the deepest symbol lowers the depth to the deepest one left."""
        expr, tail = NonTerminal("EXPR"), NonTerminal("TAIL")
        grammar = ContextFreeGrammar(
            S,
            [
                Production(S, ("x", expr)),
                Production(expr, (tail,)),
                Production(expr, ()),
                Production(tail, ()),
            ],
        )
        interned, form = derive(grammar, [Production(S, ("x", expr))])
        assert (interned.levels(form), depth(form)) == ((0, 1), 1)
        erased = interned.expand(form, Production(expr, ()))
        assert (interned.symbols(erased), interned.levels(erased), depth(erased)) == (
            ("x",), (0,), 0
        )
        assert position(erased) is None
        kept = interned.expand(
            interned.expand(form, Production(expr, (tail,))), Production(tail, ())
        )
        assert (interned.levels(kept), depth(kept), interned.tokens(kept)) == (
            (0,), 0, ("x",)
        )

    def test_cannot_expand_complete_form(self):
        interned, form = derive(
            simple_grammar(), [Production(S, (E,)), Production(E, ("x",))]
        )
        with pytest.raises(GrammarError):
            interned.expand(form, Production(E, ("y",)))

    def test_production_must_expand_the_leftmost_nonterminal(self):
        interned, form = derive(simple_grammar(), [Production(S, (E,))])
        with pytest.raises(GrammarError):
            interned.expand(form, Production(OP, ("+",)))

    def test_yield_tokens_requires_completeness(self):
        interned, form = start_form(simple_grammar())
        with pytest.raises(GrammarError):
            interned.tokens(form)


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
        interned, form = start_form(grammar)
        for _ in range(200):
            if position(form) is None:
                break
            options = grammar.productions_for(interned.leftmost(form))
            # Bias towards terminals so random derivations terminate.
            terminal_options = [p for p in options if not p.rhs_nonterminals()]
            prefer_terminal = terminal_options and rng.random() < 0.7
            pick = rng.choice(terminal_options if prefer_terminal else list(options))
            expected = grammar.expand_leftmost(interned.symbols(form), pick)
            form = interned.expand(form, pick)
            symbols = interned.symbols(form)
            assert symbols == expected
            assert interned.leftmost(form) == grammar.leftmost_nonterminal(expected)
            assert len(interned.levels(form)) == len(symbols)
            if position(form) is not None:
                assert symbols[position(form)] == interned.leftmost(form)
                assert grammar.is_complete(symbols[: position(form)])
        if position(form) is None:
            assert grammar.is_complete(interned.symbols(form))
            assert all(isinstance(token, str) for token in interned.tokens(form))
