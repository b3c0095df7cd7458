"""Tests for refined grammar generation (4.2.4, 5.2) and pCFG learning (4.3)."""

from __future__ import annotations

import pytest

from repro.core.grammar_gen import (
    bottomup_template_grammar,
    full_bottomup_template_grammar,
    full_template_grammar,
    topdown_template_grammar,
)
from repro.core.pcfg_learn import learn_pcfg, learn_weights, operator_weights
from repro.core.templates import templatize_all
from repro.grammars import NonTerminal, derivable_nonterminals, ProbabilisticGrammar
from repro.taco import parse_program
from repro.taco.grammar import NT_OP, NT_TENSOR, NT_TENSOR1


def _templates(sources):
    return templatize_all([parse_program(s) for s in sources])


MATVEC_CANDIDATES = [
    "r(f) = m1(i,f) * m2(f)",
    "Result(i) = Mat1(i,f) * Mat2(f)",
    "Result(i) := Mat1(f,i) * Mat2(i)",
    "out(i) = A(i,j) * x(j)",
    "y(i) = W(i,j) * v(j)",
]


class TestTopDownGrammar:
    def test_lhs_token_fixed_by_dimension_list(self):
        grammar = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        lhs_tokens = [p.rhs[0] for p in grammar.productions_for(NT_TENSOR1)]
        assert lhs_tokens == ["a(i)"]

    def test_tensor_tokens_match_predicted_ranks(self):
        grammar = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        tokens = {p.rhs[0] for p in grammar.productions_for(NT_TENSOR)}
        assert "b(i,j)" in tokens and "b(j,i)" in tokens
        assert "c(i)" in tokens and "c(j)" in tokens
        # No rank-1 b or rank-2 c: ranks are pinned by the dimension list.
        assert "b(i)" not in tokens and "c(i,j)" not in tokens

    def test_no_constant_rule_without_constants(self):
        grammar = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        assert not any("Const" in str(p.rhs) for p in grammar.productions)

    def test_constant_rule_for_scalar_position(self):
        templates = _templates(["out(i) = x(i) * 3"])
        grammar = topdown_template_grammar((1, 1, 0), 1, templates, constants=(3,))
        assert any("Const" in str(p.rhs) for p in grammar.productions)
        # The validator binds Const only to literals of the C source: with
        # none harvested, a Const template could never validate.
        grammar = topdown_template_grammar((1, 1, 0), 1, templates, constants=())
        assert not any("Const" in str(p.rhs) for p in grammar.productions)

    def test_repeated_index_access_added_only_when_observed(self):
        without = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        tokens_without = {p.rhs[0] for p in without.productions_for(NT_TENSOR)}
        assert "b(i,i)" not in tokens_without
        with_repeat = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES + ["r(i) = m(i,i) * v(i)"]), constants=()
        )
        tokens_with = {p.rhs[0] for p in with_repeat.productions_for(NT_TENSOR)}
        assert "b(i,i)" in tokens_with

    def test_every_nonterminal_can_derive(self):
        grammar = topdown_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        pcfg = ProbabilisticGrammar.uniform(grammar)
        assert all(derivable_nonterminals(pcfg).values())

    def test_scalar_lhs(self):
        grammar = topdown_template_grammar(
            (0, 1, 1), 1, _templates(["s = x(i) * y(i)"]), constants=()
        )
        lhs_tokens = [p.rhs[0] for p in grammar.productions_for(NT_TENSOR1)]
        assert lhs_tokens == ["a"]


class TestBottomUpGrammar:
    def test_no_constant_rule_with_an_empty_constant_pool(self):
        templates = _templates(["out(i) = x(i) * 3"])
        grammar = bottomup_template_grammar((1, 1, 0), 1, templates, constants=())
        assert not any("Const" in str(p.rhs) for p in grammar.productions)
        grammar = bottomup_template_grammar((1, 1, 0), 1, templates, constants=(3,))
        assert any("Const" in str(p.rhs) for p in grammar.productions)

    def test_chain_structure(self):
        grammar = bottomup_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        names = {nt.name for nt in grammar.nonterminals}
        assert "TENSOR2" in names and "TENSOR3" in names and "TAIL1" in names

    def test_tail_has_epsilon(self):
        grammar = bottomup_template_grammar(
            (1, 2, 1), 2, _templates(MATVEC_CANDIDATES), constants=()
        )
        tail1 = NonTerminal("TAIL1")
        assert any(p.is_epsilon for p in grammar.productions_for(tail1))

    def test_positions_respect_ranks(self):
        grammar = bottomup_template_grammar(
            (0, 1, 2, 1), 3, _templates(["a = b(i) * c(i,j) * d(j)"]), constants=()
        )
        t2 = {p.rhs[0] for p in grammar.productions_for(NonTerminal("TENSOR2"))}
        t3 = {p.rhs[0] for p in grammar.productions_for(NonTerminal("TENSOR3"))}
        assert all(token.count(",") == 0 for token in t2)          # rank 1
        assert all(token.count(",") == 1 for token in t3)          # rank 2

    def test_derivable(self):
        grammar = bottomup_template_grammar(
            (1, 1, 1), 1, _templates(["o(i) = x(i) + y(i)"]), constants=()
        )
        pcfg = ProbabilisticGrammar.uniform(grammar)
        assert derivable_nonterminals(pcfg)[grammar.start]


class TestFullGrammars:
    def test_full_grammar_is_larger_than_refined(self):
        templates = _templates(MATVEC_CANDIDATES)
        refined = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        unrefined = full_template_grammar(1, max_rhs_tensors=3, max_rank=2, num_indices=3)
        assert len(unrefined) > len(refined)

    def test_full_bottomup_grammar_structure(self):
        grammar = full_bottomup_template_grammar(1, max_rhs_tensors=3, max_rank=2, num_indices=3)
        assert grammar.has_nonterminal(NonTerminal("TENSOR4"))


class TestPcfgLearning:
    def test_weights_reflect_candidate_frequency(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        weighted = learn_weights(grammar, templates, style="topdown")
        mul = next(p for p in grammar.productions_for(NT_OP) if p.rhs == ("*",))
        add = next(p for p in grammar.productions_for(NT_OP) if p.rhs == ("+",))
        assert weighted.weight(mul) > weighted.weight(add)

    def test_unused_rules_keep_default_weight(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        weighted = learn_weights(grammar, templates, style="topdown")
        div = next(p for p in grammar.productions_for(NT_OP) if p.rhs == ("/",))
        assert weighted.weight(div) == 1.0

    def test_probabilities_normalised(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        pcfg = learn_pcfg(grammar, templates, style="topdown")
        for nt in pcfg.nonterminals:
            total = sum(pcfg.probability(p) for p in pcfg.productions_for(nt))
            assert total == pytest.approx(1.0)

    def test_equal_probability_mode(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        pcfg = learn_pcfg(grammar, templates, style="topdown", probability_mode="equal")
        for production in pcfg.productions_for(NT_OP):
            assert pcfg.probability(production) == pytest.approx(0.25)

    def test_learned_probability_favours_observed_tokens(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        pcfg = learn_pcfg(grammar, templates, style="topdown")
        tensor_probs = {
            str(p.rhs[0]): pcfg.probability(p) for p in grammar.productions_for(NT_TENSOR)
        }
        # b(i,j) appears in three candidates, b(j,i) in two, so the learned
        # probabilities must order them accordingly.
        assert tensor_probs["b(i,j)"] > tensor_probs["b(j,i)"]
        assert tensor_probs["c(j)"] > tensor_probs["c(i)"]

    def test_bottomup_weight_counting(self):
        templates = _templates(["o(i) = x(i) + y(i)", "o(i) = x(i) * y(i)", "o(i) = x(i) + z(i)"])
        grammar = bottomup_template_grammar((1, 1, 1), 1, templates, constants=())
        weighted = learn_weights(grammar, templates, style="bottomup")
        add = next(p for p in grammar.productions_for(NT_OP) if p.rhs == ("+",))
        mul = next(p for p in grammar.productions_for(NT_OP) if p.rhs == ("*",))
        assert weighted.weight(add) > weighted.weight(mul)

    def test_operator_weights_summary(self):
        templates = _templates(MATVEC_CANDIDATES)
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        weights = operator_weights(grammar, templates, style="topdown")
        assert weights.get("*", 0) >= 5
        assert "/" not in weights
