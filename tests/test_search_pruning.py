"""Tests for sentential-form expansion and visited-form pruning in the searches."""

from __future__ import annotations

import pytest

from repro.core import SearchLimits, StaggConfig, StaggSynthesizer, VerifierConfig
from repro.core.search import SententialForm, VisitedForms, expansion_table
from repro.grammars import NonTerminal
from repro.llm import OracleConfig, SyntheticOracle
from repro.suite import all_benchmarks


def _lift(benchmark, style, prune):
    # No wall-clock budget: the deterministic caps decide both runs.
    limits = SearchLimits(
        max_expansions=120_000,
        max_candidates=2_400,
        timeout_seconds=None,
        prune_duplicates=prune,
    )
    config = StaggConfig(
        search=style,
        limits=limits,
        verifier=VerifierConfig(size_bound=2, exhaustive_cap=729, sampled_checks=24),
    )
    return StaggSynthesizer(SyntheticOracle(OracleConfig()), config).lift(
        benchmark.task()
    )


class TestVisitedFormPruning:
    @pytest.mark.parametrize("name", ["blend.weighted_sum", "darknet.axpy_cpu"])
    def test_topdown_node_counts_strictly_drop_outcomes_unchanged(self, name):
        """Multi-operand kernels search long enough to generate duplicates."""
        by_name = {b.name: b for b in all_benchmarks()}
        bench = by_name[name]
        pruned = _lift(bench, "topdown", prune=True)
        unpruned = _lift(bench, "topdown", prune=False)
        assert pruned.success == unpruned.success
        assert str(pruned.template) == str(unpruned.template)
        assert str(pruned.lifted_program) == str(unpruned.lifted_program)
        # The top-down EXPR grammar is ambiguous, so duplicates exist and the
        # visited set must strictly reduce the expansion count.
        assert pruned.nodes_expanded < unpruned.nodes_expanded

    def test_topdown_short_searches_are_untouched(self):
        """A kernel solved before any duplicate arises: identical trajectories."""
        bench = {b.name: b for b in all_benchmarks()}["darknet.forward_connected"]
        pruned = _lift(bench, "topdown", prune=True)
        unpruned = _lift(bench, "topdown", prune=False)
        assert pruned.success and unpruned.success
        assert str(pruned.lifted_program) == str(unpruned.lifted_program)
        assert pruned.nodes_expanded == unpruned.nodes_expanded
        assert pruned.attempts == unpruned.attempts

    def test_bottomup_outcomes_unchanged(self):
        by_name = {b.name: b for b in all_benchmarks()}
        bench = by_name["blend.weighted_sum"]
        pruned = _lift(bench, "bottomup", prune=True)
        unpruned = _lift(bench, "bottomup", prune=False)
        assert pruned.success == unpruned.success
        assert str(pruned.lifted_program) == str(unpruned.lifted_program)
        # The chain grammar derives every sentential form uniquely, so the
        # visited set never prunes — and must never change anything.
        assert pruned.nodes_expanded == unpruned.nodes_expanded

    def test_visited_forms_dominance(self):
        visited = VisitedForms()
        form = ("a", "+", "b")
        levels = (2, 1, 2)
        assert not visited.should_prune(form, levels, cost=2.0)
        # Duplicate state at worse-or-equal cost: pruned.
        assert visited.should_prune(form, levels, cost=2.0)
        assert visited.should_prune(form, levels, cost=5.0)
        # A cheaper occurrence survives and tightens the record.
        assert not visited.should_prune(form, levels, cost=1.0)
        assert visited.should_prune(form, levels, cost=1.5)
        # Same yield at different nesting levels is a *different* state:
        # its completions reach different expression depths, so it is kept.
        assert not visited.should_prune(form, (3, 2, 3), cost=5.0)
        assert len(visited) == 2

    def test_visited_complete_forms_respect_depth_budget(self):
        visited = VisitedForms(max_depth=3)
        form = ("a(i)", "=", "b(i)", "+", "c(i)")
        # First derivation is too deep to ever be checked (depth 5 > 3)...
        assert not visited.should_prune_complete(form, (1, 1, 5, 1, 5), cost=2.0)
        # ...so an in-budget derivation of the same sentence must survive,
        # even at higher cost: it is the only copy the search will check.
        assert not visited.should_prune_complete(form, (1, 1, 3, 1, 3), cost=4.0)
        # Now a checkable copy is recorded: equal-or-worse-cost duplicates
        # are redundant (same tokens -> same template)...
        assert visited.should_prune_complete(form, (1, 1, 2, 1, 2), cost=4.0)
        # ...as is any derivation the depth check would discard anyway.
        assert visited.should_prune_complete(form, (1, 1, 6, 1, 6), cost=9.0)
        # A cheaper derivation still gets through.
        assert not visited.should_prune_complete(form, (1, 1, 3, 1, 3), cost=1.0)


def _replay(start, productions):
    """Reference ``(levels, depth)`` of a leftmost derivation, from its tree.

    Rebuilds the derivation tree as nested ``[symbol, children]`` lists;
    ``levels`` counts the EXPR nodes above each yield symbol (an unexpanded
    one counting itself), ``depth`` is the deepest EXPR nesting in the tree.
    """
    root = [start, None]

    def leftmost_open(node):
        symbol, children = node
        if children is None:
            return node if isinstance(symbol, NonTerminal) else None
        return next(filter(None, map(leftmost_open, children)), None)

    for production in productions:
        leftmost_open(root)[1] = [[symbol, None] for symbol in production.rhs]
    levels = []

    def walk(node, level):
        symbol, children = node
        level += isinstance(symbol, NonTerminal) and symbol.name == "EXPR"
        if children is None:
            levels.append(level)
            return level
        return max([level] + [walk(child, level) for child in children])

    depth = walk(root, 0)
    return tuple(levels), depth


class TestSententialFormExpansion:
    def _topdown_grammar(self):
        from repro.core.grammar_gen import topdown_template_grammar
        from repro.core.templates import templatize_all
        from repro.llm import LiftingQuery

        bench = {b.name: b for b in all_benchmarks()}["blend.weighted_sum"]
        oracle = SyntheticOracle(OracleConfig())
        response = oracle.propose(
            LiftingQuery(
                c_source=bench.c_source,
                name=bench.name,
                reference_solution=bench.ground_truth,
            )
        )
        templates = templatize_all(response.candidates)
        dimension_list = (1, 1, 1, 1)
        return topdown_template_grammar(dimension_list, 1, templates)

    def test_expansion_matches_grammar_and_derivation_replay(self):
        """Spliced symbols, position and levels equal the references, everywhere."""
        grammar = self._topdown_grammar()
        table = expansion_table(grammar, lambda production: 0.0)
        frontier = [(SententialForm.start(grammar.start), ())]
        seen = 0
        while frontier and seen < 300:
            form, applied = frontier.pop()
            expansions = table[form.leftmost.name]
            assert [e.production for e, _ in expansions] == list(
                grammar.productions_for(form.leftmost)
            )
            for expansion, _cost in expansions:
                production = expansion.production
                child = form.expand(production)
                fast = form.apply(expansion)
                assert (fast.symbols, fast.levels, fast.position) == (
                    child.symbols, child.levels, child.position
                )
                assert child.symbols == grammar.expand_leftmost(form.symbols, production)
                assert child.leftmost == grammar.leftmost_nonterminal(child.symbols)
                if child.position is not None:
                    assert child.symbols[child.position] == child.leftmost
                    assert grammar.is_complete(child.symbols[: child.position])
                levels, depth = _replay(grammar.start, applied + (production,))
                assert child.levels == levels
                assert child.depth() == depth
                seen += 1
                if child.position is not None:
                    frontier.append((child, applied + (production,)))
        assert seen >= 300

    def test_depth_matches_tree_expression_depth_on_shallow_forms(self):
        grammar = self._topdown_grammar()
        frontier = [(SententialForm.start(grammar.start), ())]
        checked = 0
        while frontier and checked < 500:
            form, applied = frontier.pop()
            assert form.depth() == _replay(grammar.start, applied)[1]
            checked += 1
            if form.position is None:
                continue
            for production in grammar.productions_for(form.leftmost):
                child = form.expand(production)
                if child.depth() <= 4:
                    frontier.append((child, applied + (production,)))
        assert checked == 500


class TestPenaltyMemoization:
    def test_memoized_evaluate_matches_view_path(self):
        from repro.core.penalties import (
            PenaltyContext,
            PenaltyEvaluator,
            view_from_symbols,
        )

        context = PenaltyContext(
            dimension_list=(1, 1, 1),
            grammar_has_constant=True,
            observed_operators=frozenset({"+", "*"}),
        )
        evaluator = PenaltyEvaluator.topdown(context)
        symbols = ("a(i)", "=", "b(i)", "+", "c(i)")
        first = evaluator.evaluate(symbols)
        second = evaluator.evaluate(list(symbols))  # sequence type irrelevant
        assert first == second
        assert first == evaluator.evaluate_view(view_from_symbols(symbols))
