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

import itertools
import math
from heapq import heappop, heappush
from typing import Optional

from ..grammars import ProbabilisticGrammar
from ..taco.errors import TacoError
from ..taco.parser import parse_program
from .costs import BottomUpCostModel, rhs_tensor_counter
from .dimension_list import DimensionList
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
        # Entries are (priority, tie, form, placed), where placed is the
        # number of right-hand-side tensors in the form, which the heuristic
        # already counted when the form was enqueued.  The tie keeps equal
        # priorities FIFO.
        queue: list = []
        tie = itertools.count()
        checked: set[str] = set()
        seen: set[str] = set()
        visited = VisitedForms() if self._limits.prune_duplicates else None
        grammar = InternedGrammar(self._grammar, self._costs.production_cost)
        expansions = grammar.expansions
        apply = grammar.apply
        penalty_of = self._penalties.memoized(grammar.alphabet)
        count_rhs_tensors = rhs_tensor_counter(grammar.alphabet)
        # Per-code tables of truncation: the codes of the TAIL non-terminals
        # it drops, and a translate table deleting every non-terminal.
        tails = grammar.encode(
            symbol
            for symbol in grammar.alphabet[: grammar.nonterminal_count]
            if symbol.name.startswith("TAIL")
        )
        drop_open = dict.fromkeys(range(grammar.nonterminal_count))
        root = grammar.start_form()
        heappush(queue, (0.0, next(tie), root, count_rhs_tensors(root[0])))
        target_tensors = len(self._dimension_list)

        while queue:
            if deadline.expired():
                outcome.timed_out = True
                break
            if outcome.nodes_expanded >= self._limits.max_expansions:
                break
            _priority, _tie, form, placed = heappop(queue)
            outcome.nodes_expanded += 1
            if progress_interval and outcome.nodes_expanded % progress_interval == 0:
                safe_notify(observer, outcome.heartbeat(deadline.elapsed()))

            codes, _level_codes, open_codes, position, _depth, _cost = form
            complete = position is None
            tensors_in_form = placed + 1  # + LHS tensor
            should_check = complete or (
                tensors_in_form >= target_tensors and self._truncatable(open_codes, tails)
            )
            if should_check:
                sentence = self._truncate(codes, open_codes, tails, drop_open)
                if sentence is not None and self._try_candidate(
                    grammar, sentence, outcome, checked, seen
                ):
                    outcome.elapsed_seconds = deadline.elapsed()
                    return outcome
                if outcome.candidates_tried >= self._limits.max_candidates:
                    break
                if complete:
                    continue

            for expansion in expansions[open_codes[0]]:
                child = apply(form, expansion)
                codes, level_codes, child_open, _position, depth, cost = child
                if visited is not None:
                    if (
                        visited.should_prune(codes, level_codes, cost)
                        if child_open
                        else visited.should_prune_complete(codes, depth, cost)
                    ):
                        outcome.duplicates_pruned += 1
                        continue
                penalty = penalty_of(codes)
                if math.isinf(penalty):
                    continue
                child_placed = count_rhs_tensors(codes)
                heuristic = self._costs.completion_cost(child_placed)
                heappush(queue, (cost + heuristic + penalty, next(tie), child, child_placed))

        outcome.exhausted = not queue and not outcome.timed_out
        outcome.elapsed_seconds = deadline.elapsed()
        return outcome

    # ------------------------------------------------------------------ #
    # Truncation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _truncatable(open_codes: str, tails: str) -> bool:
        """True when the only non-terminals left are trailing TAIL symbols."""
        return not open_codes.strip(tails)

    @classmethod
    def _truncate(
        cls, codes: str, open_codes: str, tails: str, drop_open: dict
    ) -> Optional[str]:
        """Drop trailing TAIL non-terminals, yielding the complete form's codes."""
        return codes.translate(drop_open) if cls._truncatable(open_codes, tails) else None

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
            template = parse_program(" ".join(grammar.decode(codes)))
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
