"""Learning probabilities for the template grammar (Section 4.3).

Each production rule of the generated grammar is weighted by the number of
times it appears in the leftmost derivations of the templatized LLM
candidates.  Rules that never appear keep a default weight of 1 "so that
these combinations are considered during the synthesis process with a lower
priority", and the weights are normalised per non-terminal into a pCFG.

Because the generated grammars have a fixed, known shape, the leftmost
derivation of a template can be reconstructed structurally from its AST — no
general CFG parsing is needed.  Candidates that do not fit the grammar
(wrong left-hand-side rank, tensors outside the predicted dimension list,
parenthesised sub-expressions in the chain-shaped bottom-up grammar, ...)
contribute the rules they *do* use and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..grammars import (
    ContextFreeGrammar,
    NonTerminal,
    Production,
    ProbabilisticGrammar,
    WeightedGrammar,
)
from ..taco import (
    BinaryOp,
    Constant,
    Expression,
    SymbolicConstant,
    TensorAccess,
    UnaryOp,
)
from ..taco.grammar import (
    CONST_TOKEN,
    NT_CONSTANT,
    NT_EXPR,
    NT_OP,
    NT_PROGRAM,
    NT_TENSOR,
    NT_TENSOR1,
)
from ..taco.printer import tensor_token
from .grammar_gen import position_nonterminal, tail_nonterminal
from .templates import Template

#: Default weight for production rules never used by any candidate (§4.3).
DEFAULT_RULE_WEIGHT = 1.0


class _RuleIndex:
    """Fast lookup of productions by (lhs, rhs)."""

    def __init__(self, grammar: ContextFreeGrammar) -> None:
        self._by_key: Dict[Tuple[NonTerminal, Tuple[object, ...]], Production] = {
            (p.lhs, p.rhs): p for p in grammar.productions
        }
        self._grammar = grammar

    def find(self, lhs: NonTerminal, rhs: Tuple[object, ...]) -> Optional[Production]:
        return self._by_key.get((lhs, rhs))

    def find_terminal(self, lhs: NonTerminal, token: str) -> Optional[Production]:
        return self._by_key.get((lhs, (token,)))

    def has_nonterminal(self, nt: NonTerminal) -> bool:
        return self._grammar.has_nonterminal(nt)


# ---------------------------------------------------------------------- #
# Structural derivations
# ---------------------------------------------------------------------- #
def _count(counter: Dict[Production, float], production: Optional[Production]) -> None:
    if production is not None:
        counter[production] = counter.get(production, 0.0) + 1.0


def _count_topdown_expression(
    expr: Expression, index: _RuleIndex, counter: Dict[Production, float]
) -> None:
    if isinstance(expr, BinaryOp):
        _count(counter, index.find(NT_EXPR, (NT_EXPR, NT_OP, NT_EXPR)))
        _count(counter, index.find_terminal(NT_OP, expr.op.value))
        _count_topdown_expression(expr.left, index, counter)
        _count_topdown_expression(expr.right, index, counter)
        return
    if isinstance(expr, UnaryOp):
        # The refined grammar has no unary minus; fold it away for counting.
        _count_topdown_expression(expr.operand, index, counter)
        return
    if isinstance(expr, TensorAccess):
        _count(counter, index.find(NT_EXPR, (NT_TENSOR,)))
        _count(counter, index.find_terminal(NT_TENSOR, tensor_token(expr)))
        return
    if isinstance(expr, (Constant, SymbolicConstant)):
        _count(counter, index.find(NT_EXPR, (NT_CONSTANT,)))
        _count(counter, index.find_terminal(NT_CONSTANT, CONST_TOKEN))
        return


def count_topdown_derivation(
    template: Template, index: _RuleIndex, counter: Dict[Production, float]
) -> None:
    """Count the rules of *template*'s derivation in a top-down grammar."""
    program = template.program
    _count(counter, index.find(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)))
    _count(counter, index.find_terminal(NT_TENSOR1, tensor_token(program.lhs)))
    _count_topdown_expression(program.rhs, index, counter)


def _flatten_chain(expr: Expression) -> Optional[List[object]]:
    """Flatten a left-leaning operator chain into ``[operand, op, operand, ...]``.

    Returns None when the expression is not a pure chain (contains
    parenthesised / right-nested sub-expressions), which the bottom-up
    grammar cannot represent.
    """
    if isinstance(expr, (TensorAccess, Constant, SymbolicConstant)):
        return [expr]
    if isinstance(expr, UnaryOp):
        return _flatten_chain(expr.operand)
    if isinstance(expr, BinaryOp):
        if not isinstance(expr.right, (TensorAccess, Constant, SymbolicConstant)):
            return None
        left = _flatten_chain(expr.left)
        if left is None:
            return None
        return left + [expr.op, expr.right]
    return None


def count_bottomup_derivation(
    template: Template, index: _RuleIndex, counter: Dict[Production, float]
) -> None:
    """Count the rules of *template*'s derivation in a bottom-up (tail) grammar."""
    program = template.program
    chain = _flatten_chain(program.rhs)
    if chain is None:
        return
    _count(counter, index.find(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)))
    _count(counter, index.find_terminal(NT_TENSOR1, tensor_token(program.lhs)))
    first = position_nonterminal(2)
    _count(counter, index.find(NT_EXPR, (first, tail_nonterminal(1))))
    operands = chain[0::2]
    operators = chain[1::2]
    for position, operand in enumerate(operands):
        nt = position_nonterminal(position + 2)
        if not index.has_nonterminal(nt):
            break
        token = (
            CONST_TOKEN
            if isinstance(operand, (Constant, SymbolicConstant))
            else tensor_token(operand)  # type: ignore[arg-type]
        )
        _count(counter, index.find_terminal(nt, token))
        tail = tail_nonterminal(position + 1)
        if position < len(operators) and index.has_nonterminal(tail):
            extension = index.find(
                tail, (NT_OP, position_nonterminal(position + 3), tail_nonterminal(position + 2))
            )
            _count(counter, extension)
            _count(counter, index.find_terminal(NT_OP, operators[position].value))
        elif index.has_nonterminal(tail):
            _count(counter, index.find(tail, ()))


# ---------------------------------------------------------------------- #
# Public API
# ---------------------------------------------------------------------- #
def count_rules(
    grammar: ContextFreeGrammar, templates: Sequence[Template], style: str = "topdown"
) -> Dict[Production, float]:
    """How often each rule of *grammar* occurs in *templates*' derivations.

    ``style`` selects how derivations are reconstructed: ``"topdown"`` for the
    recursive grammars (refined or full), ``"bottomup"`` for the tail-form
    grammars of Section 5.2.
    """
    count = count_bottomup_derivation if style == "bottomup" else count_topdown_derivation
    index = _RuleIndex(grammar)
    counter: Dict[Production, float] = {}
    for template in templates:
        count(template, index, counter)
    return counter


def weights_from_counts(
    grammar: ContextFreeGrammar,
    counts: Mapping[Production, float],
    default_weight: float = DEFAULT_RULE_WEIGHT,
) -> WeightedGrammar:
    """Rule weights from :func:`count_rules` counts (Section 4.3)."""
    weighted = WeightedGrammar(grammar.start, grammar.productions, default_weight=0.0)
    for production in grammar.productions:
        # Unused rules keep a small default so the search can still reach them.
        weighted.set_weight(production, counts.get(production, 0.0) or default_weight)
    return weighted


def learn_weights(
    grammar: ContextFreeGrammar,
    templates: Sequence[Template],
    style: str = "topdown",
    default_weight: float = DEFAULT_RULE_WEIGHT,
) -> WeightedGrammar:
    """Count rule usages of *templates* over *grammar* (Section 4.3)."""
    return weights_from_counts(
        grammar, count_rules(grammar, templates, style), default_weight
    )


def learn_pcfg(
    grammar: ContextFreeGrammar,
    templates: Sequence[Template],
    style: str = "topdown",
    probability_mode: str = "learned",
    default_weight: float = DEFAULT_RULE_WEIGHT,
) -> ProbabilisticGrammar:
    """Build the pCFG used by the search.

    ``probability_mode`` is ``"learned"`` for the full STAGG configuration and
    ``"equal"`` for the EqualProbability ablation.
    """
    if probability_mode == "equal":
        return ProbabilisticGrammar.uniform(grammar)
    weighted = learn_weights(grammar, templates, style=style, default_weight=default_weight)
    return ProbabilisticGrammar.from_weights(weighted)


def operator_counts(counts: Mapping[Production, float]) -> Dict[str, float]:
    """The operator-token totals among :func:`count_rules` counts."""
    weights: Dict[str, float] = {}
    for production, weight in counts.items():
        if production.lhs == NT_OP and len(production.rhs) == 1:
            weights[str(production.rhs[0])] = weights.get(str(production.rhs[0]), 0.0) + weight
    return weights


def operator_weights(
    grammar: ContextFreeGrammar, templates: Sequence[Template], style: str = "topdown"
) -> Dict[str, float]:
    """Observed usage counts of each operator token among the candidates.

    The penalty functions use this to decide which operators are "defined in
    the grammar" in the sense of criteria a5 / b2 (operators the LLM actually
    proposed, as opposed to operators only present with the default weight).
    """
    return operator_counts(count_rules(grammar, templates, style))
