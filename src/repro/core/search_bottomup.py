"""Bottom-up weighted A* template enumeration (Section 5.2, Algorithm 2).

The bottom-up grammar generates expressions as left-to-right chains
``TENSOR2 (OP TENSOR3 (OP TENSOR4 ...))`` terminated by ``TAIL`` non-terminals
with epsilon productions.  Consequently every dequeued sentential form whose
only remaining non-terminal is a trailing ``TAIL`` can be *truncated* into a
complete template and checked immediately; if the check fails the original
form (tail re-attached) is expanded further.

Following Algorithm 2, truncation-and-validation is attempted once the
number of tensors in the expression reaches the length predicted by the
dimension list; fully epsilon-closed (complete) forms are always checked.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..grammars import ProbabilisticGrammar, Symbol, is_nonterminal
from ..taco.errors import TacoError
from ..taco.parser import parse_program
from .costs import BottomUpCostModel, count_rhs_tensors
from .dimension_list import DimensionList
from .events import safe_notify
from .penalties import PenaltyEvaluator
from .search import (
    CandidateChecker,
    Deadline,
    PriorityQueue,
    SearchLimits,
    SearchOutcome,
    SententialForm,
    VisitedForms,
    expansion_table,
)


class BottomUpSearch:
    """Algorithm 2: bottom-up (chain) enumeration of the template grammar."""

    def __init__(
        self,
        grammar: ProbabilisticGrammar,
        dimension_list: DimensionList,
        penalties: PenaltyEvaluator,
        checker: CandidateChecker,
        limits: Optional[SearchLimits] = None,
    ) -> None:
        self._grammar = grammar
        self._dimension_list = dimension_list
        self._costs = BottomUpCostModel(grammar, dimension_list)
        self._penalties = penalties
        self._checker = checker
        self._limits = limits if limits is not None else SearchLimits()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, budget=None, observer=None) -> SearchOutcome:
        """Run the search; ``budget``/``observer`` cooperatively bound/watch it."""
        outcome = SearchOutcome(success=False)
        deadline = Deadline(self._limits.timeout_seconds, budget)
        # Hoisted: the heartbeat guard runs once per expansion.
        progress_interval = self._limits.progress_interval if observer is not None else 0
        queue = PriorityQueue()
        checked: set[str] = set()
        visited = VisitedForms() if self._limits.prune_duplicates else None
        table = expansion_table(self._grammar, self._costs.production_cost)
        root = SententialForm.start(self._grammar.start)
        # Queue items carry the number of right-hand-side tensors placed,
        # which the heuristic already counted when the form was enqueued.
        queue.push(0.0, (root, 0.0, count_rhs_tensors(root.symbols)))
        target_tensors = len(self._dimension_list)

        while queue:
            if deadline.expired():
                outcome.timed_out = True
                break
            if outcome.nodes_expanded >= self._limits.max_expansions:
                break
            _priority, (form, accumulated_cost, placed) = queue.pop()
            outcome.nodes_expanded += 1
            if progress_interval and outcome.nodes_expanded % progress_interval == 0:
                safe_notify(observer, outcome.heartbeat(deadline.elapsed()))

            complete = form.position is None
            tensors_in_form = placed + 1  # + LHS tensor
            should_check = complete or (
                tensors_in_form >= target_tensors and self._truncatable(form)
            )
            if should_check:
                tokens = self._truncate(form.symbols)
                if tokens is not None and self._try_candidate(tokens, outcome, checked):
                    outcome.elapsed_seconds = deadline.elapsed()
                    return outcome
                if outcome.candidates_tried >= self._limits.max_candidates:
                    break
                if complete:
                    continue

            for expansion, step_cost in table[form.leftmost.name]:
                cost = accumulated_cost + step_cost
                child = form.apply(expansion)
                symbols, levels = child.symbols, child.levels
                if visited is not None:
                    if (
                        visited.should_prune_complete(symbols, levels, cost)
                        if child.position is None
                        else visited.should_prune(symbols, levels, cost)
                    ):
                        outcome.duplicates_pruned += 1
                        continue
                penalty = self._penalties.evaluate(symbols)
                if math.isinf(penalty):
                    continue
                child_placed = count_rhs_tensors(symbols)
                heuristic = self._costs.completion_cost(child_placed)
                queue.push(cost + heuristic + penalty, (child, cost, child_placed))

        outcome.exhausted = not queue and not outcome.timed_out
        outcome.elapsed_seconds = deadline.elapsed()
        return outcome

    # ------------------------------------------------------------------ #
    # Truncation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _truncatable(form: SententialForm) -> bool:
        """True when the only non-terminals left are trailing TAIL symbols."""
        for symbol in form.symbols[form.position :]:
            if is_nonterminal(symbol) and not str(symbol).startswith("TAIL"):
                return False
        return True

    @staticmethod
    def _truncate(symbols: Tuple[Symbol, ...]) -> Optional[List[str]]:
        """Drop trailing TAIL non-terminals, yielding the complete token list."""
        tokens: List[str] = []
        for symbol in symbols:
            if is_nonterminal(symbol):
                if str(symbol).startswith("TAIL"):
                    continue
                return None
            tokens.append(str(symbol))
        return tokens

    # ------------------------------------------------------------------ #
    # Candidate handling
    # ------------------------------------------------------------------ #
    def _try_candidate(
        self, tokens: List[str], outcome: SearchOutcome, checked: set
    ) -> bool:
        try:
            template = parse_program(" ".join(tokens))
        except TacoError:
            return False
        key = str(template)
        if key in checked:
            return False
        checked.add(key)
        outcome.candidates_tried += 1
        solved, validation, verification = self._checker(template)
        if solved:
            outcome.success = True
            outcome.template = template
            outcome.validation = validation
            outcome.verification = verification
            if validation is not None:
                outcome.concrete_program = validation.concrete_program
        return solved
