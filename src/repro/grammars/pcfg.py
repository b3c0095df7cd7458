"""Probabilistic context-free grammars (Definition 4.3).

A :class:`ProbabilisticGrammar` is a weighted grammar whose weights have been
normalized so that, for every non-terminal, the probabilities of its
productions sum to one.  STAGG learns the weights from the leftmost
derivations of the LLM's candidate solutions and then normalizes them here
(Section 4.3 of the paper).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

from .cfg import (
    ContextFreeGrammar,
    GrammarError,
    NonTerminal,
    Production,
    WeightedGrammar,
)


class ProbabilisticGrammar(ContextFreeGrammar):
    """A pCFG: a CFG with a probability for every production.

    The invariant ``sum_beta P(alpha -> beta) == 1`` is enforced at
    construction time for every non-terminal ``alpha``.
    """

    #: Tolerance for the per-non-terminal probability-sum invariant.
    _SUM_TOLERANCE = 1e-9

    def __init__(
        self,
        start: NonTerminal,
        productions: Iterable[Production],
        probabilities: Mapping[Production, float],
    ) -> None:
        super().__init__(start, productions)
        self._probabilities: Dict[Production, float] = {}
        for prod in self.productions:
            if prod not in probabilities:
                raise GrammarError(f"missing probability for production {prod}")
            p = float(probabilities[prod])
            if p < 0.0 or p > 1.0 + self._SUM_TOLERANCE:
                raise GrammarError(f"probability for {prod} out of range: {p}")
            self._probabilities[prod] = min(p, 1.0)
        self._check_normalization()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_weights(cls, weighted: WeightedGrammar) -> "ProbabilisticGrammar":
        """Normalize a weighted grammar into a pCFG.

        For each non-terminal ``alpha`` the probability of ``alpha -> beta``
        is ``W[alpha -> beta] / sum_gamma W[alpha -> gamma]`` as in
        Section 4.3.  Non-terminals whose total weight is zero fall back to a
        uniform distribution over their productions.
        """
        probabilities: Dict[Production, float] = {}
        for nt in weighted.nonterminals:
            if not weighted.has_nonterminal(nt):
                continue
            prods = weighted.productions_for(nt)
            total = sum(weighted.weight(p) for p in prods)
            if total <= 0:
                uniform = 1.0 / len(prods)
                for p in prods:
                    probabilities[p] = uniform
            else:
                for p in prods:
                    probabilities[p] = weighted.weight(p) / total
        return cls(weighted.start, weighted.productions, probabilities)

    @classmethod
    def uniform(cls, grammar: ContextFreeGrammar) -> "ProbabilisticGrammar":
        """Build a pCFG assigning equal probability to each alternative.

        This implements the ``EqualProbability`` ablation configuration of
        the evaluation (Section 8, RQ5).
        """
        probabilities: Dict[Production, float] = {}
        for nt in grammar.nonterminals:
            if not grammar.has_nonterminal(nt):
                continue
            prods = grammar.productions_for(nt)
            uniform = 1.0 / len(prods)
            for p in prods:
                probabilities[p] = uniform
        return cls(grammar.start, grammar.productions, probabilities)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def probability(self, production: Production) -> float:
        """The probability P(production)."""
        try:
            return self._probabilities[production]
        except KeyError:
            raise GrammarError(f"unknown production {production}") from None

    def probabilities(self) -> Dict[Production, float]:
        """A copy of the production-to-probability map."""
        return dict(self._probabilities)

    def cost(self, production: Production, floor: float = 1e-12) -> float:
        """The additive search cost ``-log2 P(production)``.

        Productions with probability zero (possible after refinement when a
        rule never occurs in the candidates but is kept with default weight
        zero) receive a large-but-finite cost derived from *floor*, so the
        search can still reach them eventually.
        """
        p = max(self._probabilities[production], floor)
        return -math.log2(p)

    # ------------------------------------------------------------------ #
    # Internal checks
    # ------------------------------------------------------------------ #
    def _check_normalization(self) -> None:
        for nt in self.nonterminals:
            if not self.has_nonterminal(nt):
                continue
            total = sum(self._probabilities[p] for p in self.productions_for(nt))
            if abs(total - 1.0) > 1e-6:
                raise GrammarError(
                    f"probabilities for non-terminal {nt} sum to {total}, expected 1"
                )
