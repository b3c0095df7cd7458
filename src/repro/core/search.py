"""Shared machinery for the two weighted A* template searches."""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ..grammars import ContextFreeGrammar, GrammarError, NonTerminal, Production, Symbol
from ..taco import TacoProgram
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


#: Broken observers mapped to the set of event names they already failed
#: on.  A WeakKeyDictionary so a long-lived process doesn't pin every
#: broken observer it ever saw; each *(observer, event)* pair is warned
#: about at most once, so an observer that breaks on a second, different
#: event is still diagnosable.  The lock serialises check-then-add:
#: portfolio members share one observer across racing threads.
_WARNED_OBSERVERS = weakref.WeakKeyDictionary()
_WARNED_OBSERVERS_LOCK = threading.Lock()


def safe_notify(observer, method: str, *args) -> None:
    """Invoke ``observer.method(*args)``, swallowing observer errors.

    The single implementation of the "observers must never abort a lift"
    contract (re-exported by :mod:`repro.lifting.observer`).  Duck-typed so
    the core package never imports :mod:`repro.lifting` at module scope;
    ``observer=None`` is the common fast path and returns immediately.

    Swallowed exceptions are not fully silent: the first failure of each
    *(observer, event)* pair emits a :class:`RuntimeWarning` naming the
    event, so a broken observer is diagnosable without ever being able to
    abort a lift.
    """
    if observer is None:
        return
    try:
        getattr(observer, method)(*args)
    except Exception as error:  # noqa: BLE001 - observers are untrusted plugins
        try:
            with _WARNED_OBSERVERS_LOCK:
                failed_events = _WARNED_OBSERVERS.get(observer)
                already_warned = failed_events is not None and method in failed_events
                if not already_warned:
                    if failed_events is None:
                        failed_events = set()
                        _WARNED_OBSERVERS[observer] = failed_events
                    failed_events.add(method)
        except TypeError:  # not weak-referenceable: warn on every failure
            already_warned = False
        if not already_warned:
            try:
                warnings.warn(
                    f"lift observer {type(observer).__name__}.{method} raised "
                    f"{type(error).__name__}: {error} (observer exceptions never "
                    f"abort a lift; further errors from this observer are "
                    f"suppressed silently)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            except Exception:  # noqa: BLE001 - warnings-as-errors must not
                pass  # break the "observers never abort a lift" contract


def notify_search_progress(observer, nodes_expanded: int, candidates_tried: int,
                           elapsed_seconds: float = 0.0,
                           duplicates_pruned: int = 0) -> None:
    """Heartbeat an observer from inside a search loop, swallowing errors.

    ``nodes_per_sec`` is derived here (not in the search loop) so every
    observer sees the same unit economics without each search repeating
    the division.
    """
    nodes_per_sec = nodes_expanded / elapsed_seconds if elapsed_seconds > 0 else 0.0
    safe_notify(
        observer, "search_progress",
        nodes_expanded, candidates_tried, nodes_per_sec, duplicates_pruned,
    )


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


#: Non-terminal names whose nesting defines the expression depth measure of
#: Section 5.1: ``b(i)`` and ``c(i,j)`` have depth 1, ``b(i) + c(i,j)`` depth 2.
EXPRESSION_NONTERMINALS = frozenset({"EXPR"})


class Expansion(NamedTuple):
    """A production with what splicing it into a form needs, precomputed."""

    production: Production
    #: Per right-hand-side symbol: 1 for an expression non-terminal, else 0.
    bumps: Tuple[int, ...]
    #: Offset of the first non-terminal in the right-hand side, or None.
    first: Optional[int]

    @classmethod
    def of(cls, production: Production) -> "Expansion":
        rhs = production.rhs
        bumps = tuple(
            int(type(symbol) is NonTerminal and symbol.name in EXPRESSION_NONTERMINALS)
            for symbol in rhs
        )
        first = next(
            (offset for offset, symbol in enumerate(rhs) if type(symbol) is NonTerminal), None
        )
        return cls(production, bumps, first)


def expansion_table(
    grammar: ContextFreeGrammar, production_cost: Callable[[Production], float]
) -> Dict[str, Tuple[Tuple[Expansion, float], ...]]:
    """Per non-terminal name, its productions as ``(expansion, step cost)``.

    Built once per search, so the expansion loop neither hashes productions
    nor takes logarithms.
    """
    return {
        nonterminal.name: tuple(
            (Expansion.of(production), production_cost(production))
            for production in grammar.productions_for(nonterminal)
        )
        for nonterminal in grammar.nonterminals
    }


class SententialForm:
    """A partial template as the searches see it: a leftmost-derivation state.

    The score ``f(x) = c(x) + g(x) + X(x)`` of Sections 5.1/5.2 reads only
    three facts of a partial derivation, so a form carries exactly those and
    no derivation tree:

    * ``symbols`` — the yield: terminal tokens and unexpanded non-terminals;
    * ``levels`` — per symbol, the number of expression non-terminals
      (:data:`EXPRESSION_NONTERMINALS`) enclosing it in the derivation, an
      unexpanded one counting itself; their maximum is the expression depth;
    * ``position`` — the index of the leftmost non-terminal, ``None`` once the
      form is a complete sentence.

    Forms are immutable.  :meth:`apply` splices a right-hand side in at
    ``position`` and looks for the next leftmost non-terminal from the end of
    the splice only, since every symbol left of it is a terminal.
    """

    __slots__ = ("symbols", "levels", "position")

    def __init__(
        self,
        symbols: Tuple[Symbol, ...],
        levels: Tuple[int, ...],
        position: Optional[int],
    ) -> None:
        self.symbols = symbols
        self.levels = levels
        self.position = position

    @classmethod
    def start(cls, symbol: NonTerminal) -> "SententialForm":
        """The one-symbol form a derivation from *symbol* starts at."""
        return cls((symbol,), (int(symbol.name in EXPRESSION_NONTERMINALS),), 0)

    @property
    def leftmost(self) -> Optional[NonTerminal]:
        """The leftmost non-terminal, the one an expansion rewrites."""
        return None if self.position is None else self.symbols[self.position]

    def depth(self) -> int:
        """The expression depth the search's depth limit is checked against."""
        return max(self.levels, default=0)

    def expand(self, production: Production) -> "SententialForm":
        """The form with *production* applied to the leftmost non-terminal."""
        if self.position is None:
            raise GrammarError("cannot expand a complete sentential form")
        if self.symbols[self.position] != production.lhs:
            raise GrammarError(
                f"leftmost non-terminal is {self.symbols[self.position]}, "
                f"production expands {production.lhs}"
            )
        return self.apply(Expansion.of(production))

    def apply(self, expansion: Expansion) -> "SententialForm":
        """:meth:`expand` without its checks, for a production the caller
        took from the grammar's alternatives for :attr:`leftmost`."""
        position = self.position
        rhs = expansion.production.rhs
        symbols = self.symbols[:position] + rhs + self.symbols[position + 1 :]
        levels = (
            self.levels[:position]
            + tuple(map(self.levels[position].__add__, expansion.bumps))
            + self.levels[position + 1 :]
        )
        if expansion.first is not None:
            return SententialForm(symbols, levels, position + expansion.first)
        for index in range(position + len(rhs), len(symbols)):
            if type(symbols[index]) is NonTerminal:
                return SententialForm(symbols, levels, index)
        return SententialForm(symbols, levels, None)

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

    * **Partial states**, keyed on the yield symbols *plus* the per-element
      expression-nesting levels.  Two partial forms that agree on both are
      interchangeable: every future expansion splices into the yield at
      positions and nesting levels determined entirely by that state, so
      they derive exactly the same completions at the same future costs and
      expression depths.  A new occurrence is pruned when an equally cheap
      copy of the same state is already enqueued.

    * **Complete forms**, keyed on the yield alone.  A complete form's token
      string fully determines the candidate template (the parser, not the
      derivation structure, fixes the semantics), so a second derivation of
      the same sentence is redundant — this is where the grammar's ambiguity
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

    def should_prune_complete(self, symbols, levels, cost: float) -> bool:
        depth = max(levels, default=0)
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
