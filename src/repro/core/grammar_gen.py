"""Generation of refined template grammars (Sections 4.2.4 and 5.2).

Given the predicted dimension list ``L`` and the set of templatized LLM
candidates ``T``, STAGG generates a *refined* context-free grammar whose
sentences are exactly the templates worth enumerating:

* the **top-down** grammar (Section 4.2.4) keeps the recursive
  ``EXPR ::= EXPR OP EXPR`` shape of the TACO grammar but fixes the
  left-hand-side token and restricts every right-hand-side tensor to the
  ranks predicted by ``L`` (with every permutation of the available index
  variables);
* the **bottom-up** grammar (Section 5.2) linearises the expression into a
  chain ``TENSOR2 (OP TENSOR3 (OP TENSOR4 ...))`` using ``TAIL`` non-terminals
  with epsilon productions, so that every intermediate sentential form can be
  truncated into a complete (checkable) template.

Both refined grammars offer the ``Const`` placeholder only when the
validator can bind it.  Section 4.2.4 offers ``Const`` at every rank-0
position, but the validator (Section 6) instantiates ``Const`` only from the
literals found in the C source (``harvest_constants``); with none harvested,
every template holding a ``Const`` is rejected before any substitution is
tried.  The grammar builders therefore take the kernel's constant pool, and
an empty pool drops ``Const`` from the grammar.  On ``darknet.axpy_cpu``
(``ALPHA`` is a rank-0 scalar, the source has no literal) this takes the
winning template from attempt 1,119 to attempt 5.

The ``FullGrammar`` and ``LLMGrammar`` ablations of the evaluation use the
*unrefined* grammar built by :func:`full_template_grammar`, which keeps the
paper's unconditional ``Const``.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Sequence, Set, Tuple

from ..grammars import ContextFreeGrammar, NonTerminal, Production
from ..taco import TensorAccess
from ..taco.grammar import (
    CANONICAL_INDEX_VARIABLES,
    CANONICAL_TENSOR_NAMES,
    CONST_TOKEN,
    NT_CONSTANT,
    NT_EXPR,
    NT_OP,
    NT_PROGRAM,
    NT_TENSOR,
    NT_TENSOR1,
    OPERATOR_TOKENS,
)
from ..taco.printer import tensor_token
from .dimension_list import DimensionList
from .templates import Template

#: Upper bound on the number of right-hand-side tensor positions a grammar
#: will expose; longer dimension lists are truncated (the corpus never needs
#: more than four operands).
MAX_RHS_TENSORS = 6


def _index_pool(dimension_list: DimensionList, num_indices: int) -> Tuple[str, ...]:
    """The canonical index variables available to the refined grammar."""
    needed = max([num_indices] + [rank for rank in dimension_list])
    needed = max(1, min(needed, len(CANONICAL_INDEX_VARIABLES)))
    return CANONICAL_INDEX_VARIABLES[:needed]


def _lhs_token(rank: int) -> str:
    return tensor_token(TensorAccess("a", CANONICAL_INDEX_VARIABLES[:rank]))


def _access_tokens(
    name: str, rank: int, index_pool: Sequence[str], repeated: Set[Tuple[int, Tuple[str, ...]]]
) -> List[str]:
    """All index-permutation tokens for one tensor position.

    *repeated* holds (rank, indices) pairs observed in the LLM candidates
    that use the same index variable more than once; those accesses are added
    back even though the default enumeration uses only distinct indices
    (Section 4.2.4: "we will remove b(i,i)" unless a candidate used it).
    """
    if rank == 0:
        return [name]
    tokens = [
        tensor_token(TensorAccess(name, combo))
        for combo in permutations(index_pool, min(rank, len(index_pool)))
    ]
    for observed_rank, indices in repeated:
        if observed_rank == rank:
            token = tensor_token(TensorAccess(name, indices))
            if token not in tokens:
                tokens.append(token)
    if not tokens:
        tokens = [tensor_token(TensorAccess(name, tuple(index_pool[:1]) * rank))]
    return tokens


def _repeated_index_accesses(templates: Sequence[Template]) -> Set[Tuple[int, Tuple[str, ...]]]:
    repeated: Set[Tuple[int, Tuple[str, ...]]] = set()
    for template in templates:
        for access in template.program.rhs.tensors():
            if len(set(access.indices)) != len(access.indices):
                repeated.add((access.rank, access.indices))
    return repeated


def _include_constant(
    positions: Sequence[Tuple[str, int]],
    templates: Sequence[Template],
    constants: Sequence[object],
) -> bool:
    """Whether a refined grammar offers ``Const``.

    Section 4.2.4 offers it when a candidate used a constant or a position
    has rank 0.  *constants* is the validator's constant pool: when it is
    empty, no ``Const`` could ever be instantiated, so none is offered.
    """
    return bool(constants) and (
        any(template.has_constant() for template in templates)
        or any(rank == 0 for _, rank in positions)
    )


def rhs_positions(dimension_list: DimensionList) -> List[Tuple[str, int]]:
    """(tensor-name, rank) pairs for the right-hand-side positions of ``L``."""
    positions: List[Tuple[str, int]] = []
    for offset, rank in enumerate(dimension_list[1 : 1 + MAX_RHS_TENSORS]):
        name = CANONICAL_TENSOR_NAMES[offset + 1]
        positions.append((name, rank))
    if not positions:
        positions = [(CANONICAL_TENSOR_NAMES[1], 0)]
    return positions


# ---------------------------------------------------------------------- #
# Top-down refined grammar (Section 4.2.4)
# ---------------------------------------------------------------------- #
def topdown_template_grammar(
    dimension_list: DimensionList,
    num_indices: int,
    templates: Sequence[Template] = (),
    *,
    constants: Sequence[object],
) -> ContextFreeGrammar:
    """Build the refined top-down template grammar for ``L`` and ``i(T)``.

    *constants* is the validator's constant pool (see
    :func:`_include_constant`).
    """
    index_pool = _index_pool(dimension_list, num_indices)
    repeated = _repeated_index_accesses(templates)
    positions = rhs_positions(dimension_list)
    include_constant = _include_constant(positions, templates, constants)

    productions: List[Production] = [
        Production(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)),
        Production(NT_TENSOR1, (_lhs_token(dimension_list[0] if dimension_list else 0),)),
        Production(NT_EXPR, (NT_TENSOR,)),
    ]
    if include_constant:
        productions.append(Production(NT_EXPR, (NT_CONSTANT,)))
    productions.append(Production(NT_EXPR, (NT_EXPR, NT_OP, NT_EXPR)))
    for op in OPERATOR_TOKENS:
        productions.append(Production(NT_OP, (op,)))

    seen_tokens: Set[str] = set()
    for name, rank in positions:
        for token in _access_tokens(name, rank, index_pool, repeated):
            if token not in seen_tokens:
                seen_tokens.add(token)
                productions.append(Production(NT_TENSOR, (token,)))
    if include_constant:
        productions.append(Production(NT_CONSTANT, (CONST_TOKEN,)))
    return ContextFreeGrammar(NT_PROGRAM, productions)


# ---------------------------------------------------------------------- #
# Bottom-up refined grammar (Section 5.2)
# ---------------------------------------------------------------------- #
def position_nonterminal(position: int) -> NonTerminal:
    """The non-terminal for the tensor at 1-based position *position*."""
    return NonTerminal(f"TENSOR{position}")


def tail_nonterminal(position: int) -> NonTerminal:
    return NonTerminal(f"TAIL{position}")


def bottomup_template_grammar(
    dimension_list: DimensionList,
    num_indices: int,
    templates: Sequence[Template] = (),
    *,
    constants: Sequence[object],
) -> ContextFreeGrammar:
    """Build the refined bottom-up (tail-form) template grammar for ``L``.

    *constants* is the validator's constant pool (see
    :func:`_include_constant`).
    """
    index_pool = _index_pool(dimension_list, num_indices)
    repeated = _repeated_index_accesses(templates)
    positions = rhs_positions(dimension_list)
    include_constant = _include_constant(positions, templates, constants)

    productions: List[Production] = [
        Production(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)),
        Production(NT_TENSOR1, (_lhs_token(dimension_list[0] if dimension_list else 0),)),
    ]
    # EXPR ::= TENSOR2 TAIL1
    first_position = position_nonterminal(2)
    productions.append(Production(NT_EXPR, (first_position, tail_nonterminal(1))))
    for op in OPERATOR_TOKENS:
        productions.append(Production(NT_OP, (op,)))

    # TAILn ::= epsilon | OP TENSOR(n+2) TAIL(n+1)
    num_rhs = len(positions)
    for tail_index in range(1, max(num_rhs, 1) + 1):
        tail = tail_nonterminal(tail_index)
        productions.append(Production(tail, ()))
        next_position = tail_index + 2
        if next_position <= num_rhs + 1:
            productions.append(
                Production(
                    tail,
                    (NT_OP, position_nonterminal(next_position), tail_nonterminal(tail_index + 1)),
                )
            )
    # Ensure the last referenced TAIL exists (epsilon-only).
    last_tail = tail_nonterminal(max(num_rhs, 1) + 1)
    if num_rhs >= 1:
        productions.append(Production(last_tail, ()))

    # Tensor positions
    for offset, (name, rank) in enumerate(positions):
        nt = position_nonterminal(offset + 2)
        for token in _access_tokens(name, rank, index_pool, repeated):
            productions.append(Production(nt, (token,)))
        if rank == 0 and include_constant:
            productions.append(Production(nt, (CONST_TOKEN,)))
    return ContextFreeGrammar(NT_PROGRAM, productions)


# ---------------------------------------------------------------------- #
# Unrefined (full) grammar for the FullGrammar / LLMGrammar ablations
# ---------------------------------------------------------------------- #
def full_bottomup_template_grammar(
    lhs_rank: int,
    max_rhs_tensors: int = 3,
    max_rank: int = 2,
    num_indices: int = 3,
    include_constant: bool = True,
) -> ContextFreeGrammar:
    """The unrefined chain-form grammar used by the bottom-up ablations.

    Every position may hold any tensor of any rank up to *max_rank*; this is
    the bottom-up analogue of :func:`full_template_grammar`.
    """
    index_pool = CANONICAL_INDEX_VARIABLES[
        : max(1, min(num_indices, len(CANONICAL_INDEX_VARIABLES)))
    ]
    productions: List[Production] = [
        Production(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)),
        Production(NT_TENSOR1, (_lhs_token(lhs_rank),)),
        Production(NT_EXPR, (position_nonterminal(2), tail_nonterminal(1))),
    ]
    for op in OPERATOR_TOKENS:
        productions.append(Production(NT_OP, (op,)))
    for tail_index in range(1, max_rhs_tensors + 1):
        tail = tail_nonterminal(tail_index)
        productions.append(Production(tail, ()))
        next_position = tail_index + 2
        if next_position <= max_rhs_tensors + 1:
            productions.append(
                Production(
                    tail,
                    (NT_OP, position_nonterminal(next_position), tail_nonterminal(tail_index + 1)),
                )
            )
    for offset in range(max_rhs_tensors):
        nt = position_nonterminal(offset + 2)
        name = CANONICAL_TENSOR_NAMES[offset + 1]
        for rank in range(0, max_rank + 1):
            for token in _access_tokens(name, rank, index_pool, set()):
                productions.append(Production(nt, (token,)))
        if include_constant:
            productions.append(Production(nt, (CONST_TOKEN,)))
    return ContextFreeGrammar(NT_PROGRAM, productions)


def full_template_grammar(
    lhs_rank: int,
    max_rhs_tensors: int = 3,
    max_rank: int = 2,
    num_indices: int = 3,
    include_constant: bool = True,
) -> ContextFreeGrammar:
    """The unrefined template grammar over symbolic tensors ``b, c, d, ...``.

    Every right-hand-side tensor name may appear at every rank up to
    *max_rank* with every permutation of the first *num_indices* canonical
    index variables — the search space the paper's ``FullGrammar`` ablation
    pays for (hundreds of enumeration attempts per query).
    """
    index_pool = CANONICAL_INDEX_VARIABLES[
        : max(1, min(num_indices, len(CANONICAL_INDEX_VARIABLES)))
    ]
    productions: List[Production] = [
        Production(NT_PROGRAM, (NT_TENSOR1, "=", NT_EXPR)),
        Production(NT_TENSOR1, (_lhs_token(lhs_rank),)),
        Production(NT_EXPR, (NT_TENSOR,)),
    ]
    if include_constant:
        productions.append(Production(NT_EXPR, (NT_CONSTANT,)))
        productions.append(Production(NT_CONSTANT, (CONST_TOKEN,)))
    productions.append(Production(NT_EXPR, (NT_EXPR, NT_OP, NT_EXPR)))
    for op in OPERATOR_TOKENS:
        productions.append(Production(NT_OP, (op,)))
    for offset in range(max_rhs_tensors):
        name = CANONICAL_TENSOR_NAMES[offset + 1]
        for rank in range(0, max_rank + 1):
            for token in _access_tokens(name, rank, index_pool, set()):
                productions.append(Production(NT_TENSOR, (token,)))
    return ContextFreeGrammar(NT_PROGRAM, productions)
