"""Cost model for the weighted A* searches (Section 5).

Three quantities make up the score of a partial template ``x``:

* ``c(x)``   — accumulated cost: the sum of ``-log2 P[r]`` over the rules
  applied so far (probabilities turned into additive costs),
* ``g(x)``   — heuristic completion cost; the top-down search uses the
  ``h(alpha)`` fixpoint of the pCFG, the bottom-up search a per-remaining-
  position minimum,
* ``X(x)``   — the penalty term (see :mod:`repro.core.penalties`).

This module implements the first two.  The searches score forms interned by
:class:`repro.core.search.InternedGrammar` — one code point per grammar
symbol, code ``chr(i)`` standing for ``alphabet[i]`` — so the per-form
quantities (the top-down ``g(x)``, the bottom-up placed-tensor count) are
functions built once per search from per-code tables.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Sequence

from ..grammars import NonTerminal, ProbabilisticGrammar, Production, Symbol, completion_costs
from .dimension_list import DimensionList
from .grammar_gen import position_nonterminal

#: Floor applied when converting probabilities to costs.
_PROBABILITY_FLOOR = 1e-12

#: Completion cost of a non-terminal the ``h(alpha)`` fixpoint does not know.
_UNKNOWN_COMPLETION_COST = -math.log2(_PROBABILITY_FLOOR)


class TopDownCostModel:
    """``c`` and ``g`` for the top-down search over a pCFG."""

    def __init__(self, grammar: ProbabilisticGrammar) -> None:
        self._grammar = grammar
        self._completion = completion_costs(grammar)

    def production_cost(self, production: Production) -> float:
        return -math.log2(max(self._grammar.probability(production), _PROBABILITY_FLOOR))

    def completion_cost(self, alphabet: Sequence[Symbol]) -> Callable[[str], float]:
        """``g(x)`` of the forms of one search; see :func:`interned_completion_cost`."""
        return interned_completion_cost(alphabet, self._completion)


#: Cap on a search's completion-cost memo, as for the penalty memo.
_COMPLETION_MEMO_LIMIT = 262_144


def interned_completion_cost(
    alphabet: Sequence[Symbol], costs: Mapping[NonTerminal, float]
) -> Callable[[str], float]:
    """``g(x)`` over forms interned against *alphabet*: ``g(open_codes)``.

    The minimal cost of completing every open non-terminal of a form, given
    their codes in order (a form's ``open_codes``), with *costs* giving each
    one's (the map of :func:`repro.grammars.completion_costs`).  It is
    :func:`repro.grammars.heuristic_completion_cost` term for term: the open
    non-terminals are summed from the leftmost one on with a plain
    left-to-right ``+=``, so the float is the same bit for bit.  (Never
    builtin ``sum()``: since Python 3.12 it compensates, which changes the
    low bits and with them the A* queue order.)  Sums are memoized per
    string of open non-terminals.
    """
    per_code = {
        chr(code): costs.get(symbol, _UNKNOWN_COMPLETION_COST)
        for code, symbol in enumerate(alphabet)
        if type(symbol) is NonTerminal
    }
    memo: Dict[str, float] = {}

    def completion_cost(open_codes: str) -> float:
        total = memo.get(open_codes)
        if total is None:
            total = 0.0
            for code in open_codes:
                total += per_code[code]
            if len(memo) >= _COMPLETION_MEMO_LIMIT:
                memo.clear()
            memo[open_codes] = total
        return total

    return completion_cost


class BottomUpCostModel:
    """``c`` and the simplified ``g`` of Section 5.2 for the bottom-up search.

    ``g(x) = sum_{i=k}^{|L|} m(L[i+1])`` where ``k`` is the number of tensors
    already placed and ``m(d)`` is the minimal cost of adding a tensor of
    dimension ``d`` — computed here as the cheapest production of the
    corresponding position non-terminal (plus the cheapest operator for every
    position after the first).
    """

    def __init__(
        self, grammar: ProbabilisticGrammar, dimension_list: DimensionList
    ) -> None:
        self._grammar = grammar
        self._dimension_list = dimension_list
        self._position_costs: Dict[int, float] = {}
        self._min_operator_cost = self._compute_min_operator_cost()
        num_rhs = max(len(dimension_list) - 1, 1)
        for position in range(2, num_rhs + 2):
            self._position_costs[position] = self._compute_position_cost(position)

    def production_cost(self, production: Production) -> float:
        return -math.log2(max(self._grammar.probability(production), _PROBABILITY_FLOOR))

    def _compute_min_operator_cost(self) -> float:
        op_nt = NonTerminal("OP")
        if not self._grammar.has_nonterminal(op_nt):
            return 0.0
        return min(
            self.production_cost(p) for p in self._grammar.productions_for(op_nt)
        )

    def _compute_position_cost(self, position: int) -> float:
        nt = position_nonterminal(position)
        if not self._grammar.has_nonterminal(nt):
            return 0.0
        best = min(self.production_cost(p) for p in self._grammar.productions_for(nt))
        if position > 2:
            best += self._min_operator_cost
        return best

    def completion_cost(self, tensors_placed: int) -> float:
        """``g(x)`` given the number of right-hand-side tensors already placed."""
        num_rhs = max(len(self._dimension_list) - 1, 1)
        total = 0.0
        for position in range(2 + tensors_placed, num_rhs + 2):
            total += self._position_costs.get(position, 0.0)
        return total


def rhs_tensor_counter(alphabet: Sequence[Symbol]) -> Callable[[str], int]:
    """``count_rhs_tensors(codes)`` over forms interned against *alphabet*.

    The number of already-placed operand tokens on the right-hand side:
    terminal tokens after the ``=`` sign that are not operators or
    parentheses — exactly the tensors/constants the bottom-up chain has
    emitted so far.
    """
    not_operands = {
        code: None
        for code, symbol in enumerate(alphabet)
        if type(symbol) is NonTerminal or symbol in ("=", "+", "-", "*", "/", "(", ")")
    }
    # Without an "=" in the grammar, a code outside the alphabet: never found.
    assign = chr(alphabet.index("=") if "=" in alphabet else len(alphabet))

    def count_rhs_tensors(codes: str) -> int:
        at = codes.find(assign)
        return 0 if at < 0 else len(codes[at + 1 :].translate(not_operands))

    return count_rhs_tensors
