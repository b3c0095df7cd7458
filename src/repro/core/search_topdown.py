"""Top-down weighted A* template enumeration (Section 5.1, Algorithm 1).

The search maintains a priority queue of partial templates — sentential
forms of leftmost derivations over the refined template pCFG.  At each step
it pops the form with minimal score ``f(x) = c(x) + g(x) + X(x)``:

* complete forms are parsed into TACO templates and handed to the candidate
  checker (validation against I/O examples, then bounded verification);
* partial forms are expanded by applying every production of the grammar to
  their leftmost non-terminal.

Forms deeper than the configured depth limit are discarded, and forms whose
penalty is infinite are never enqueued.
"""

from __future__ import annotations

import math
from typing import Optional

from ..grammars import ProbabilisticGrammar
from ..taco.errors import TacoError
from ..taco.printer import from_tokens
from .costs import TopDownCostModel
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
    notify_search_progress,
)


class TopDownSearch:
    """Algorithm 1: top-down enumeration of the template grammar."""

    def __init__(
        self,
        grammar: ProbabilisticGrammar,
        penalties: PenaltyEvaluator,
        checker: CandidateChecker,
        limits: Optional[SearchLimits] = None,
    ) -> None:
        self._grammar = grammar
        self._costs = TopDownCostModel(grammar)
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
        visited = (
            VisitedForms(self._limits.max_depth)
            if self._limits.prune_duplicates
            else None
        )

        table = expansion_table(self._grammar, self._costs.production_cost)
        root = SententialForm.start(self._grammar.start)
        queue.push(0.0, (root, 0.0))

        while queue:
            if deadline.expired():
                outcome.timed_out = True
                break
            if outcome.nodes_expanded >= self._limits.max_expansions:
                break
            _priority, (form, accumulated_cost) = queue.pop()
            outcome.nodes_expanded += 1
            if progress_interval and outcome.nodes_expanded % progress_interval == 0:
                notify_search_progress(
                    observer, outcome.nodes_expanded, outcome.candidates_tried,
                    deadline.elapsed(), outcome.duplicates_pruned,
                )

            if form.depth() > self._limits.max_depth:
                continue

            if form.position is None:
                if self._try_candidate(form, outcome, checked):
                    outcome.elapsed_seconds = deadline.elapsed()
                    return outcome
                if outcome.candidates_tried >= self._limits.max_candidates:
                    break
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
                if child.position is None:
                    heuristic = 0.0
                else:
                    heuristic = self._costs.completion_cost(symbols, child.position)
                queue.push(cost + heuristic + penalty, (child, cost))

        outcome.exhausted = not queue and not outcome.timed_out
        outcome.elapsed_seconds = deadline.elapsed()
        return outcome

    # ------------------------------------------------------------------ #
    # Candidate handling
    # ------------------------------------------------------------------ #
    def _try_candidate(
        self, form: SententialForm, outcome: SearchOutcome, checked: set
    ) -> bool:
        try:
            template = from_tokens(form.tokens())
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
