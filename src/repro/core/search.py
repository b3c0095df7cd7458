"""Shared machinery for the two weighted A* template searches.

Each search first interns its grammar (:class:`InternedGrammar`), so a
:class:`SententialForm` is a few ``str`` values with one code point per
symbol.  Splicing a production, the visited-form lookups
(:class:`VisitedForms`) and the penalty and ``g(x)`` memos then run on C-level
string operations and cached string hashes; tokens are decoded only for a
complete form about to be parsed into a candidate template.
"""

from __future__ import annotations

import heapq
import itertools
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


class InternedGrammar:
    """A grammar with every symbol interned to one code point, for one search.

    Non-terminals get codes ``0..N-1`` in definition order and terminals
    ``N..`` in order of first appearance, so a sentential form is a ``str``
    with one character per symbol: its hash is cached, and slicing,
    concatenation, ``find`` and ``translate`` all run in C.  Codes mean
    nothing across grammars, so every table keyed by them (the expansions,
    the penalty and completion-cost memos) belongs to one search.
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


class SententialForm:
    """A partial template as the searches see it: a leftmost-derivation state.

    The score ``f(x) = c(x) + g(x) + X(x)`` of Sections 5.1/5.2 reads only a
    few facts of a partial derivation, so a form carries exactly those and no
    derivation tree, interned against its :class:`InternedGrammar`:

    * ``codes`` — the yield, one code point per terminal token or unexpanded
      non-terminal;
    * ``level_codes`` — per symbol, ``chr`` of the number of expression
      non-terminals (:data:`EXPRESSION_NONTERMINALS`) enclosing it in the
      derivation, an unexpanded one counting itself; their maximum is the
      expression depth (kept up to date, see :meth:`depth`);
    * ``open_codes`` — the unexpanded non-terminals in order, which ``g(x)``
      reads; the first one is the leftmost;
    * ``position`` — the index of the leftmost non-terminal, ``None`` once the
      form is a complete sentence;
    * ``cost`` — ``c(x)``, the summed step costs of the expansions applied.

    Forms are immutable.  :meth:`apply` splices a right-hand side in at
    ``position``.  When the right-hand side has no non-terminal, the next
    leftmost one is the old second open non-terminal, found by one ``find``
    of its code from the end of the splice: every symbol before it is a
    terminal.  The ``symbols`` and ``levels`` properties decode a form for
    tests and debugging; the searches never call them.
    """

    __slots__ = ("grammar", "codes", "level_codes", "open_codes", "position", "_depth", "cost")

    def __init__(
        self,
        grammar: InternedGrammar,
        codes: str,
        level_codes: str,
        open_codes: str,
        position: Optional[int],
        depth: int,
        cost: float,
    ) -> None:
        self.grammar = grammar
        self.codes = codes
        self.level_codes = level_codes
        self.open_codes = open_codes
        self.position = position
        self._depth = depth
        self.cost = cost

    @classmethod
    def start(cls, grammar: InternedGrammar) -> "SententialForm":
        """The one-symbol form a derivation from the start symbol starts at."""
        level_codes, depth = grammar.level_segment(grammar.start, "\x00")
        return cls(grammar, grammar.start, level_codes, grammar.start, 0, depth, 0.0)

    @property
    def symbols(self) -> Tuple[Symbol, ...]:
        """The decoded yield."""
        return self.grammar.decode(self.codes)

    @property
    def levels(self) -> Tuple[int, ...]:
        """The decoded per-symbol expression-nesting levels."""
        return tuple(map(ord, self.level_codes))

    @property
    def leftmost(self) -> Optional[NonTerminal]:
        """The leftmost non-terminal, the one an expansion rewrites."""
        if not self.open_codes:
            return None
        return self.grammar.alphabet[ord(self.open_codes[0])]  # type: ignore[return-value]

    def depth(self) -> int:
        """The expression depth the search's depth limit is checked against."""
        return self._depth

    def expand(self, production: Production) -> "SententialForm":
        """The form with *production* applied to the leftmost non-terminal."""
        if self.position is None:
            raise GrammarError("cannot expand a complete sentential form")
        if self.leftmost != production.lhs:
            raise GrammarError(
                f"leftmost non-terminal is {self.leftmost}, "
                f"production expands {production.lhs}"
            )
        rhs = self.grammar.encode(production.rhs)
        for expansion in self.grammar.expansions[self.open_codes[0]]:
            if expansion.rhs == rhs:
                return self.apply(expansion)
        raise GrammarError(f"{production} is not a production of the grammar")

    def apply(self, expansion: Expansion) -> "SententialForm":
        """:meth:`expand` without its checks, for an expansion the caller
        took from the grammar's alternatives for :attr:`leftmost`."""
        position = self.position
        level = self.level_codes[position]
        rhs = expansion.rhs
        spliced = expansion.levels.get(level)
        if spliced is None:
            spliced = expansion.levels[level] = self.grammar.level_segment(rhs, level)
        segment, top = spliced
        # Every symbol left of the leftmost non-terminal is a terminal, so
        # the first occurrence of its code is the one to rewrite.
        codes = self.codes.replace(self.open_codes[0], rhs, 1)
        level_codes = self.level_codes[:position] + segment + self.level_codes[position + 1 :]
        depth = self._depth
        if top is None:  # epsilon: the removed symbol may have been the deepest
            depth = ord(max(level_codes)) if level_codes else 0
        elif top > depth:
            depth = top
        open_codes = expansion.open_codes + self.open_codes[1:]
        if expansion.first is not None:
            position += expansion.first
        elif open_codes:
            position = codes.find(open_codes[0], position + len(rhs))
        else:
            position = None
        return SententialForm(
            self.grammar, codes, level_codes, open_codes, position, depth,
            self.cost + expansion.cost,
        )

    def tokens(self) -> Tuple[str, ...]:
        """The sentence of a complete form.  Raises on a partial one."""
        if self.position is not None:
            raise GrammarError("a partial sentential form has no token yield")
        return self.symbols  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SententialForm({' '.join(map(str, self.symbols))!r})"


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


class PriorityQueue:
    """A min-heap with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def push(self, priority: float, item) -> None:
        heapq.heappush(self._heap, (priority, next(self._counter), item))

    def pop(self) -> Tuple[float, object]:
        priority, _count, item = heapq.heappop(self._heap)
        return priority, item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


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
