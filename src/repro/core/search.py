"""Shared machinery for the two weighted A* template searches.

Each search first interns its grammar (:class:`InternedGrammar`), so a
sentential form is a plain tuple (:data:`Form`): three ``str`` values with
one code point per symbol, the leftmost position, the depth and ``c(x)``.
Splicing a production, the visited-form lookups (:class:`VisitedForms`) and
the penalty and ``g(x)`` memos then run on C-level string operations and
cached string hashes; tokens are decoded only for a complete form about to
be parsed into a candidate template.  The searches queue ``(priority, tie,
form, ...)`` tuples on a plain ``heapq`` list.  A form holds no reference to
its grammar, so the cyclic collector untracks forms and queue entries at
the first collection that sees them and later passes skip the frontier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from ..grammars import ContextFreeGrammar, GrammarError, NonTerminal, Production, Symbol
from ..taco import TacoProgram
from .events import LiftEvent
from .validator import ValidationResult
from .verifier import VerificationResult

#: The signature of the candidate checker supplied by the synthesizer: it
#: validates a complete template against the I/O examples and, if validation
#: succeeds, verifies the instantiation against the C kernel.
CandidateChecker = Callable[
    [TacoProgram], Tuple[bool, Optional[ValidationResult], Optional[VerificationResult]]
]

#: How many queue expansions a search performs between observer
#: ``search_progress`` notifications.  Canonical definition (re-exported by
#: :mod:`repro.lifting.observer`); a power of two keeps the modulo cheap.
SEARCH_PROGRESS_INTERVAL = 512


@dataclass(frozen=True)
class SearchLimits:
    """Resource limits applied to a single search."""

    #: Maximum number of queue expansions before giving up.
    max_expansions: int = 200_000
    #: Maximum number of complete templates sent to validation.
    max_candidates: int = 5_000
    #: Wall-clock budget in seconds (None = unlimited).
    timeout_seconds: Optional[float] = None
    #: Maximum expression depth (Section 5.1 uses 6).
    max_depth: int = 6
    #: Prune duplicate partial derivations before enqueueing: a candidate
    #: expansion whose sentential-form state (yield plus expression-nesting
    #: levels) was already enqueued at no worse cost is skipped.
    prune_duplicates: bool = True
    #: Expansions between ``search_progress`` heartbeats; must be >= 1
    #: (heartbeats only fire while an observer is attached, so "disable"
    #: means detaching the observer, not zeroing the cadence).
    #: Observational only — excluded from :meth:`StaggConfig.digest_dict`,
    #: so changing the cadence never retires store digests.
    progress_interval: int = SEARCH_PROGRESS_INTERVAL

    def __post_init__(self) -> None:
        if self.progress_interval < 1:
            raise ValueError(
                f"progress_interval must be >= 1 (got "
                f"{self.progress_interval}); to silence heartbeats, lift "
                f"without an observer or raise the interval instead"
            )


@dataclass
class SearchOutcome:
    """The result of one search run."""

    success: bool
    template: Optional[TacoProgram] = None
    concrete_program: Optional[TacoProgram] = None
    validation: Optional[ValidationResult] = None
    verification: Optional[VerificationResult] = None
    #: Number of complete templates handed to the validator ("attempts").
    candidates_tried: int = 0
    #: Number of nodes expanded from the priority queue.
    nodes_expanded: int = 0
    #: Number of candidate expansions skipped by the visited-form set.
    duplicates_pruned: int = 0
    elapsed_seconds: float = 0.0
    timed_out: bool = False
    exhausted: bool = False

    def heartbeat(self, elapsed_seconds: float) -> LiftEvent:
        """The ``search_progress`` event for the search so far.

        ``nodes_per_sec`` is derived here (not in the search loops) so
        every observer sees the same unit economics.
        """
        nodes_per_sec = (
            self.nodes_expanded / elapsed_seconds if elapsed_seconds > 0 else 0.0
        )
        return LiftEvent("search_progress", attrs={
            "nodes_expanded": self.nodes_expanded,
            "candidates_tried": self.candidates_tried,
            "nodes_per_sec": nodes_per_sec,
            "duplicates_pruned": self.duplicates_pruned,
        })


#: Non-terminal names whose nesting defines the expression depth measure of
#: Section 5.1: ``b(i)`` and ``c(i,j)`` have depth 1, ``b(i) + c(i,j)`` depth 2.
EXPRESSION_NONTERMINALS = frozenset({"EXPR"})


class Expansion(NamedTuple):
    """A production of an :class:`InternedGrammar`, ready to splice."""

    #: The right-hand side, one code point per symbol.
    rhs: str
    #: The right-hand side's non-terminals, in order.
    open_codes: str
    #: Offset of the first non-terminal in the right-hand side, or None.
    first: Optional[int]
    #: The step cost ``c`` of applying the production.
    cost: float
    #: Per parent level code, the right-hand side's level codes and their
    #: maximum (None for an epsilon production); filled on first use, since
    #: the bottom-up search has no depth limit.
    levels: Dict[str, Tuple[str, Optional[int]]]


#: A sentential form, as the searches queue it: ``(codes, level_codes,
#: open_codes, position, depth, cost)``.  See :class:`InternedGrammar`.
Form = Tuple[str, str, str, Optional[int], int, float]


class InternedGrammar:
    """A grammar with every symbol interned to one code point, for one search.

    Non-terminals get codes ``0..N-1`` in definition order and terminals
    ``N..`` in order of first appearance, so a sentential form is a ``str``
    with one character per symbol: its hash is cached, and slicing,
    concatenation, ``find`` and ``translate`` all run in C.  Codes mean
    nothing across grammars, so every table keyed by them (the expansions,
    the penalty and completion-cost memos) belongs to one search.

    A partial template is a leftmost-derivation state, a :data:`Form` tuple.
    The score ``f(x) = c(x) + g(x) + X(x)`` of Sections 5.1/5.2 reads only a
    few facts of a partial derivation, so a form carries exactly those and no
    derivation tree:

    * ``codes`` — the yield, one code point per terminal token or unexpanded
      non-terminal;
    * ``level_codes`` — per symbol, ``chr`` of the number of expression
      non-terminals (:data:`EXPRESSION_NONTERMINALS`) enclosing it in the
      derivation, an unexpanded one counting itself;
    * ``open_codes`` — the unexpanded non-terminals in order, which ``g(x)``
      reads; the first one is the leftmost;
    * ``position`` — the index of the leftmost non-terminal, ``None`` once the
      form is a complete sentence;
    * ``depth`` — the expression depth, the maximum of ``level_codes``, kept
      up to date by every splice;
    * ``cost`` — ``c(x)``, the summed step costs of the expansions applied.

    A form holds only ``str``, ``int``, ``float`` and ``None``, and the search,
    not the form, holds the grammar.  CPython therefore untracks a form, and a
    queue entry made of forms and numbers, the first time a collection sees
    it, so cyclic-GC passes do not walk the frontier.  The grammar's methods
    take and return forms: :meth:`apply` splices a right-hand side in at
    ``position``.  When the right-hand side has no non-terminal, the next
    leftmost one is the old second open non-terminal, found by one ``find``
    of its code from the end of the splice: every symbol before it is a
    terminal.  :meth:`symbols`, :meth:`levels` and :meth:`leftmost` decode a
    form for tests and debugging; the searches never call them.
    """

    __slots__ = ("alphabet", "nonterminal_count", "start", "expansions", "_codes", "_expression")

    def __init__(
        self, grammar: ContextFreeGrammar, production_cost: Callable[[Production], float]
    ) -> None:
        nonterminals = grammar.nonterminals
        #: The symbol of each code: ``alphabet[ord(code)]``.
        self.alphabet: Tuple[Symbol, ...] = nonterminals + grammar.terminals
        self.nonterminal_count = len(nonterminals)
        self._codes = {symbol: chr(index) for index, symbol in enumerate(self.alphabet)}
        self._expression = frozenset(
            self._codes[symbol]
            for symbol in nonterminals
            if symbol.name in EXPRESSION_NONTERMINALS
        )
        self.start = self._codes[grammar.start]
        #: Per non-terminal code, its productions in grammar order.  Built
        #: once per search, so the expansion loop neither hashes productions
        #: nor takes logarithms.
        self.expansions: Dict[str, Tuple[Expansion, ...]] = {}
        for nonterminal in nonterminals:
            entries = []
            for production in grammar.productions_for(nonterminal):
                rhs = self.encode(production.rhs)
                open_codes = "".join(
                    code for code in rhs if ord(code) < self.nonterminal_count
                )
                first = rhs.find(open_codes[0]) if open_codes else None
                entries.append(
                    Expansion(rhs, open_codes, first, production_cost(production), {})
                )
            self.expansions[self._codes[nonterminal]] = tuple(entries)

    def encode(self, symbols: Iterable[Symbol]) -> str:
        """The code string of *symbols*; raises on a symbol of another grammar."""
        try:
            return "".join([self._codes[symbol] for symbol in symbols])
        except KeyError as error:
            raise GrammarError(f"symbol {error.args[0]} is not in the grammar") from None

    def decode(self, codes: str) -> Tuple[Symbol, ...]:
        """The symbols of a code string."""
        return tuple(map(self.alphabet.__getitem__, map(ord, codes)))

    def level_segment(self, codes: str, level: str) -> Tuple[str, Optional[int]]:
        """The level codes of *codes* spliced in under a parent at *level*,
        with their maximum (None when *codes* is empty)."""
        base = ord(level)
        bumps = [code in self._expression for code in codes]
        segment = "".join([chr(base + bump) for bump in bumps])
        return segment, (base + max(bumps) if bumps else None)

    def start_form(self) -> Form:
        """The one-symbol form a derivation from the start symbol starts at."""
        level_codes, depth = self.level_segment(self.start, "\x00")
        return (self.start, level_codes, self.start, 0, depth, 0.0)

    def symbols(self, form: Form) -> Tuple[Symbol, ...]:
        """The decoded yield of *form*."""
        return self.decode(form[0])

    def levels(self, form: Form) -> Tuple[int, ...]:
        """The decoded per-symbol expression-nesting levels of *form*."""
        return tuple(map(ord, form[1]))

    def leftmost(self, form: Form) -> Optional[NonTerminal]:
        """The leftmost non-terminal of *form*, the one an expansion rewrites."""
        open_codes = form[2]
        if not open_codes:
            return None
        return self.alphabet[ord(open_codes[0])]  # type: ignore[return-value]

    def expand(self, form: Form, production: Production) -> Form:
        """*form* with *production* applied to its leftmost non-terminal."""
        _codes, _level_codes, open_codes, position, _depth, _cost = form
        if position is None:
            raise GrammarError("cannot expand a complete sentential form")
        leftmost = self.leftmost(form)
        if leftmost != production.lhs:
            raise GrammarError(
                f"leftmost non-terminal is {leftmost}, "
                f"production expands {production.lhs}"
            )
        rhs = self.encode(production.rhs)
        for expansion in self.expansions[open_codes[0]]:
            if expansion.rhs == rhs:
                return self.apply(form, expansion)
        raise GrammarError(f"{production} is not a production of the grammar")

    def apply(self, form: Form, expansion: Expansion) -> Form:
        """:meth:`expand` without its checks, for an expansion the caller
        took from :attr:`expansions` of the form's leftmost non-terminal."""
        codes, level_codes, open_codes, position, depth, cost = form
        level = level_codes[position]
        rhs = expansion.rhs
        spliced = expansion.levels.get(level)
        if spliced is None:
            spliced = expansion.levels[level] = self.level_segment(rhs, level)
        segment, top = spliced
        # Every symbol left of the leftmost non-terminal is a terminal, so
        # the first occurrence of its code is the one to rewrite.
        codes = codes.replace(open_codes[0], rhs, 1)
        level_codes = level_codes[:position] + segment + level_codes[position + 1 :]
        if top is None:  # epsilon: the removed symbol may have been the deepest
            depth = ord(max(level_codes)) if level_codes else 0
        elif top > depth:
            depth = top
        open_codes = expansion.open_codes + open_codes[1:]
        if expansion.first is not None:
            position += expansion.first
        elif open_codes:
            position = codes.find(open_codes[0], position + len(rhs))
        else:
            position = None
        return (codes, level_codes, open_codes, position, depth, cost + expansion.cost)

    def tokens(self, form: Form) -> Tuple[str, ...]:
        """The sentence of a complete form.  Raises on a partial one."""
        if form[3] is not None:
            raise GrammarError("a partial sentential form has no token yield")
        return self.symbols(form)  # type: ignore[return-value]


class VisitedForms:
    """Dedup of duplicate derivations, sound with respect to search outcomes.

    Two kinds of duplicates are recognised:

    * **Partial states**, keyed on the yield *plus* the per-element
      expression-nesting levels (a form's ``codes`` and ``level_codes``).
      Two partial forms that agree on both are interchangeable: every future
      expansion splices into the yield at positions and nesting levels
      determined entirely by that state, so they derive exactly the same
      completions at the same future costs and expression depths.  A new
      occurrence is pruned when an equally cheap copy of the same state is
      already enqueued.

    * **Complete forms**, keyed on the yield (``codes``) alone and recorded
      with their expression depth.  A complete form's token string fully
      determines the candidate template (the parser, not the derivation
      structure, fixes the semantics), so a second derivation of the same
      sentence is redundant — this is where the grammar's ambiguity
      (operator chains derive left- and right-nested) actually bites.  The
      duplicate is pruned when the recorded copy is no more expensive and
      will really be checked (its expression depth fits the search's depth
      budget), or when the duplicate itself would be discarded by the depth
      check anyway.
    """

    __slots__ = ("_partial", "_complete", "_max_depth")

    #: Safety valve against pathological searches: when either record grows
    #: past this many entries it is dropped and rebuilt (losing only dedup
    #: opportunities, never correctness), mirroring the penalty memo's cap.
    MAX_ENTRIES = 262_144

    def __init__(self, max_depth: Optional[int] = None) -> None:
        self._partial: dict = {}
        self._complete: dict = {}
        self._max_depth = max_depth

    def should_prune(self, symbols, levels, cost: float) -> bool:
        key = (symbols, levels)
        best = self._partial.get(key)
        if best is not None and cost >= best:
            return True
        if len(self._partial) >= self.MAX_ENTRIES:
            self._partial.clear()
        self._partial[key] = cost if best is None else min(cost, best)
        return False

    def should_prune_complete(self, symbols, depth: int, cost: float) -> bool:
        if len(self._complete) >= self.MAX_ENTRIES:
            self._complete.clear()
        entry = self._complete.get(symbols)
        if entry is not None:
            kept_cost, kept_depth = entry
            kept_in_budget = self._max_depth is None or kept_depth <= self._max_depth
            new_discarded = self._max_depth is not None and depth > self._max_depth
            if cost >= kept_cost and (kept_in_budget or new_discarded):
                return True
        # Keep, recording the strongest real (cost, depth) pair seen: cheaper
        # wins, ties go to the shallower (more budget-proof) derivation, and
        # an in-budget derivation replaces an out-of-budget record.
        if (
            entry is None
            or cost < entry[0]
            or (cost == entry[0] and depth < entry[1])
            or (
                self._max_depth is not None
                and entry[1] > self._max_depth
                and depth <= self._max_depth
            )
        ):
            self._complete[symbols] = (cost, depth)
        return False

    def __len__(self) -> int:
        return len(self._partial) + len(self._complete)


class Deadline:
    """A small helper tracking the wall-clock budget of a search.

    ``budget`` is an optional cooperative :class:`repro.lifting.Budget`
    (duck-typed: anything with ``expired()``): the deadline then expires at
    whichever comes first — the search's own ``timeout_seconds`` or the
    caller's budget (deadline or cancellation).
    """

    def __init__(self, timeout_seconds: Optional[float], budget=None) -> None:
        self._start = time.monotonic()
        self._timeout = timeout_seconds
        self._budget = budget

    def expired(self) -> bool:
        if self._timeout is not None and self.elapsed() >= self._timeout:
            return True
        return self._budget is not None and self._budget.expired()

    def elapsed(self) -> float:
        return time.monotonic() - self._start
