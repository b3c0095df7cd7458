"""Guards for a search frontier the cyclic garbage collector does not walk.

Both searches queue sentential forms as plain tuples of ``str``, ``int``,
``float`` and ``None``.  CPython untracks such a tuple at the first
collection that sees it, and then a queue entry made of forms and numbers
too, so gen-2 passes stay cheap however large the queue grows.  A form that
gains a reference to a tracked object (the grammar, a list, a slotted
instance) or becomes a tuple subclass stays tracked, and these tests fail.
"""

from __future__ import annotations

import ast
import gc
import heapq
import itertools
from pathlib import Path

import pytest

from repro.core import SearchLimits, StaggConfig, StaggSynthesizer, VerifierConfig
from repro.core import search_bottomup, search_topdown
from repro.core.search import InternedGrammar
from repro.grammars import ContextFreeGrammar, NonTerminal, Production
from repro.llm import OracleConfig, SyntheticOracle
from repro.suite import all_benchmarks

S, EXPR, OP = NonTerminal("S"), NonTerminal("EXPR"), NonTerminal("OP")

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Calls that change the collector for the whole process.  Lifts run on
#: service threads, so no library code may make them.
PROCESS_GLOBAL_GC_CALLS = frozenset({"disable", "enable", "set_threshold", "freeze"})


def _interned():
    grammar = ContextFreeGrammar(
        S,
        [
            Production(S, (EXPR,)),
            Production(EXPR, (EXPR, OP, EXPR)),
            Production(EXPR, ("x",)),
            Production(OP, ("+",)),
        ],
    )
    return InternedGrammar(grammar, lambda production: 0.5)


def _untracked_after_collection(*objects) -> bool:
    gc.collect()
    return not any(gc.is_tracked(obj) for obj in objects)


class TestFormsAreUntracked:
    def test_start_form_is_an_untracked_tuple(self):
        form = _interned().start_form()
        assert type(form) is tuple
        assert _untracked_after_collection(form)

    def test_applied_forms_are_untracked_tuples(self):
        interned = _interned()
        form = interned.start_form()
        forms = []
        # S -> EXPR -> EXPR OP EXPR -> x OP EXPR -> x + EXPR -> x + x
        for choice in (0, 0, 1, 0, 1):
            form = interned.apply(form, interned.expansions[form[2][0]][choice])
            forms.append(form)
        assert interned.tokens(form) == ("x", "+", "x")
        assert all(type(form) is tuple for form in forms)
        assert _untracked_after_collection(*forms)

    def test_topdown_queue_entry_is_untracked(self):
        interned = _interned()
        tie = itertools.count()
        form = interned.start_form()
        child = interned.apply(form, interned.expansions[form[2][0]][0])
        entry = (1.25, next(tie), child)
        assert _untracked_after_collection(entry)

    def test_bottomup_queue_entry_is_untracked(self):
        interned = _interned()
        tie = itertools.count()
        form = interned.start_form()
        child = interned.apply(form, interned.expansions[form[2][0]][0])
        entry = (1.25, next(tie), child, 1)
        assert _untracked_after_collection(entry)


@pytest.mark.parametrize(
    "style, module", [("topdown", search_topdown), ("bottomup", search_bottomup)]
)
def test_every_queue_entry_of_a_search_is_untracked(monkeypatch, style, module):
    """Record what each search really pushes, then collect: nothing stays tracked."""
    pushed = []

    def recording_push(queue, entry):
        pushed.append(entry)
        heapq.heappush(queue, entry)

    monkeypatch.setattr(module, "heappush", recording_push)
    bench = {b.name: b for b in all_benchmarks()}["darknet.axpy_cpu"]
    config = StaggConfig(
        search=style,
        limits=SearchLimits(max_expansions=400, timeout_seconds=None),
        verifier=VerifierConfig(size_bound=2, exhaustive_cap=729, sampled_checks=24),
    )
    StaggSynthesizer(SyntheticOracle(OracleConfig()), config).lift(bench.task())
    assert len(pushed) > 10
    assert all(type(entry[2]) is tuple for entry in pushed)
    # A collection untracks a tuple only once its items are untracked, and a
    # full collection may visit an entry before a form that aged into an
    # older generation; the second pass settles those.
    gc.collect()
    assert _untracked_after_collection(*pushed)


def test_no_process_global_gc_changes_in_src():
    """No module under src/repro switches or tunes the cyclic collector."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "gc"
                and node.func.attr in PROCESS_GLOBAL_GC_CALLS
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} gc.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                offenders.extend(
                    f"{path.relative_to(SRC)}:{node.lineno} from gc import {alias.name}"
                    for alias in node.names
                    if alias.name in PROCESS_GLOBAL_GC_CALLS
                )
    assert offenders == []
