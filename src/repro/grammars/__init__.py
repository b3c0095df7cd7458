"""Grammar machinery: CFGs, weighted CFGs, pCFGs and their analyses.

These implement Definitions 4.1-4.3 and 4.6 of *Guided Tensor Lifting* and the
``h(alpha)`` fixpoint used by the weighted A* searches of Section 5.
"""

from .cfg import (
    ContextFreeGrammar,
    GrammarError,
    NonTerminal,
    Production,
    Symbol,
    WeightedGrammar,
    is_nonterminal,
    is_terminal,
)
from .pcfg import ProbabilisticGrammar, smoothed_weights
from .analysis import (
    completion_costs,
    derivable_nonterminals,
    expected_min_cost_sentence,
    heuristic_completion_cost,
    max_derivation_probabilities,
)

__all__ = [
    "ContextFreeGrammar",
    "GrammarError",
    "NonTerminal",
    "Production",
    "Symbol",
    "WeightedGrammar",
    "ProbabilisticGrammar",
    "smoothed_weights",
    "is_nonterminal",
    "is_terminal",
    "completion_costs",
    "derivable_nonterminals",
    "expected_min_cost_sentence",
    "heuristic_completion_cost",
    "max_derivation_probabilities",
]
