"""Prediction of the dimension list (Section 4.2.3, Definition 4.5).

The dimension list ``L`` has one entry per tensor position in the target
expression: ``L[1]`` is the rank of the left-hand-side tensor, ``L[2]`` the
rank of the first right-hand-side tensor, and so on (constants and scalar
variables contribute 0).  STAGG predicts it by combining two sources:

* **RHS ranks** come from a vote over the LLM candidates: compute each
  candidate template's dimension list, keep only the lists of maximal
  length, and take the most frequent one.
* **The LHS rank** comes from static analysis of the C program (array
  recovery + delinearization), which is exact, and overrides the first entry
  of the voted list.

One departure from Section 4.2.3, which takes the RHS ranks from the vote
alone: when the voted list has fewer RHS slots than the kernel has input
tensor arguments (``ArgumentKind.TENSOR``), the vote cannot name every
array the kernel reads, so the missing slots are filled from the static
argument ranks (:attr:`~repro.core.kernel.Kernel.dimensions`) — the
static ranks of the input tensors that the voted RHS ranks do not already
cover, as a multiset difference in argument order.  The rule only appends
slots; it never changes or drops a voted one.  On ``blend.screen_rows``,
which reads two rank-2 arrays, the vote ``(2, 2)`` becomes ``(2, 2, 2)``; a
tensor read twice (``a = b(i) * b(i)``) already has its slots and keeps the
voted list.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .kernel import Kernel
from .templates import Template

#: A dimension list, e.g. ``(1, 2, 1)`` for ``a(i) = b(i,j) * c(j)``.
DimensionList = Tuple[int, ...]


@dataclass(frozen=True)
class DimensionPredictionResult:
    """The predicted dimension list plus provenance information."""

    dimension_list: DimensionList
    voted_list: DimensionList
    static_lhs_rank: Optional[int]
    candidate_lists: Tuple[DimensionList, ...]

    @property
    def num_tensors(self) -> int:
        return len(self.dimension_list)


def vote_dimension_list(templates: Sequence[Template]) -> DimensionList:
    """The majority dimension list among the longest candidate lists.

    Implements the filter-then-argmax of Section 4.2.3: lists shorter than
    the maximum length are removed, and the most frequent remaining list is
    returned (ties broken towards the list seen first, for determinism).

    One robustness refinement over the paper's literal description: the
    winning (maximal) length must be attested by at least two candidates and
    by at least a third of the votes; otherwise the vote falls back to the
    next longest length with that much support.  A lone candidate (or a small
    minority) that hallucinates an extra term would otherwise discard the
    broadly supported correct shape, which is clearly not the intent of the
    filter — its purpose is to prefer the longest *well-supported* shape.
    """
    lists = [template.dimension_list() for template in templates if template.dimension_list()]
    if not lists:
        return (0, 0)
    by_length: dict[int, List[DimensionList]] = {}
    for dimension_list in lists:
        by_length.setdefault(len(dimension_list), []).append(dimension_list)
    lengths = sorted(by_length, reverse=True)
    support_threshold = max(2, (len(lists) + 2) // 3)
    chosen_length = lengths[0]
    for length in lengths:
        if len(by_length[length]) >= support_threshold:
            chosen_length = length
            break
    longest = by_length[chosen_length]
    counts = Counter(longest)
    best_count = max(counts.values())
    for candidate in longest:  # first-seen tie-break
        if counts[candidate] == best_count:
            return candidate
    return longest[0]


def predict_dimension_list(
    templates: Sequence[Template], kernel: Optional[Kernel] = None
) -> DimensionPredictionResult:
    """Predict the dimension list for a lifting task.

    Parameters
    ----------
    templates:
        The templatized LLM candidates.
    kernel:
        The C kernel; its static ranks give the LHS rank and fill RHS slots
        the vote missed.  Without it the vote decides.
    """
    voted = vote_dimension_list(templates)
    final: List[int] = list(voted)
    lhs_rank: Optional[int] = None
    if kernel is not None:
        lhs_rank = kernel.output_rank
        final[0] = lhs_rank
        final.extend(_missing_input_ranks(kernel, final[1:]))
    return DimensionPredictionResult(
        dimension_list=tuple(final),
        voted_list=voted,
        static_lhs_rank=lhs_rank,
        candidate_lists=tuple(t.dimension_list() for t in templates),
    )


def _missing_input_ranks(kernel: Kernel, rhs: Sequence[int]) -> List[int]:
    """Static ranks of the input tensors that the RHS ranks *rhs* miss.

    Empty unless *rhs* has fewer slots than the kernel has input tensor
    arguments; the static ranks are computed only then.
    """
    tensors = kernel.signature.tensors()
    if len(rhs) >= len(tensors):
        return []
    ranks = kernel.dimensions.argument_ranks
    uncovered = Counter(rhs)
    missing: List[int] = []
    for name in tensors:
        rank = ranks[name]
        if uncovered[rank]:
            uncovered[rank] -= 1
        else:
            missing.append(rank)
    return missing


def num_unique_indices(templates: Sequence[Template]) -> int:
    """``i(T)``: the number of unique index variables across the candidates.

    The grammar generator uses this to decide how many of the canonical index
    variables the refined grammar may mention.
    """
    best = 0
    for template in templates:
        best = max(best, template.num_unique_indices())
    return max(best, 1)
