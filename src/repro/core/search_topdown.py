"""Top-down weighted A* template enumeration (Section 5.1, Algorithm 1).

The search maintains a priority queue of partial templates — sentential
forms of leftmost derivations over the refined template pCFG.  At each step
it pops the form with minimal score ``f(x) = c(x) + g(x) + X(x)``:

* complete forms are parsed into TACO templates and handed to the candidate
  checker (validation against I/O examples, then bounded verification);
* partial forms are expanded by applying every production of the grammar to
  their leftmost non-terminal.

Forms deeper than the configured depth limit are discarded, and forms whose
penalty is infinite are never enqueued.  The search interns its grammar
(:class:`repro.core.search.InternedGrammar`), whose methods splice forms held
as plain tuples, and queues ``(priority, tie, form)`` entries on a ``heapq``
list; tokens are decoded only for a complete form about to be parsed.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Optional

from ..grammars import ProbabilisticGrammar
from ..taco.errors import TacoError
from ..taco.printer import from_tokens
from .costs import TopDownCostModel
from .events import safe_notify
from .penalties import PenaltyEvaluator
from .search import (
    CandidateChecker,
    Deadline,
    InternedGrammar,
    SearchLimits,
    SearchOutcome,
    VisitedForms,
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
        # Entries are (priority, tie, form); the tie keeps equal priorities FIFO.
        queue: list = []
        tie = itertools.count()
        checked: set[str] = set()
        seen: set[str] = set()
        visited = (
            VisitedForms(self._limits.max_depth)
            if self._limits.prune_duplicates
            else None
        )

        grammar = InternedGrammar(self._grammar, self._costs.production_cost)
        expansions = grammar.expansions
        apply = grammar.apply
        penalty_of = self._penalties.memoized(grammar.alphabet)
        completion_cost = self._costs.completion_cost(grammar.alphabet)
        max_depth = self._limits.max_depth
        heappush(queue, (0.0, next(tie), grammar.start_form()))

        while queue:
            if deadline.expired():
                outcome.timed_out = True
                break
            if outcome.nodes_expanded >= self._limits.max_expansions:
                break
            _priority, _tie, form = heappop(queue)
            outcome.nodes_expanded += 1
            if progress_interval and outcome.nodes_expanded % progress_interval == 0:
                safe_notify(observer, outcome.heartbeat(deadline.elapsed()))

            codes, _level_codes, open_codes, position, depth, _cost = form
            if depth > max_depth:
                continue

            if position is None:
                if self._try_candidate(grammar, codes, outcome, checked, seen):
                    outcome.elapsed_seconds = deadline.elapsed()
                    return outcome
                if outcome.candidates_tried >= self._limits.max_candidates:
                    break
                continue

            for expansion in expansions[open_codes[0]]:
                child = apply(form, expansion)
                codes, level_codes, open_codes, _position, depth, cost = child
                if visited is not None:
                    if (
                        visited.should_prune(codes, level_codes, cost)
                        if open_codes
                        else visited.should_prune_complete(codes, depth, cost)
                    ):
                        outcome.duplicates_pruned += 1
                        continue
                penalty = penalty_of(codes)
                if math.isinf(penalty):
                    continue
                # g("") = 0.0 for a complete form.
                heuristic = completion_cost(open_codes)
                heappush(queue, (cost + heuristic + penalty, next(tie), child))

        outcome.exhausted = not queue and not outcome.timed_out
        outcome.elapsed_seconds = deadline.elapsed()
        return outcome

    # ------------------------------------------------------------------ #
    # Candidate handling
    # ------------------------------------------------------------------ #
    def _try_candidate(
        self,
        grammar: InternedGrammar,
        codes: str,
        outcome: SearchOutcome,
        checked: set,
        seen: set,
    ) -> bool:
        # Parsing is pure: a token string seen before was either unparsable
        # or already checked (and failed, or the search would have ended).
        if codes in seen:
            return False
        seen.add(codes)
        try:
            template = from_tokens(grammar.decode(codes))
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
