"""Feature extraction for the similarity index over the result store.

Every stored lift is summarised into one flat, JSON-safe **index row** by
:func:`entry_row` — a *pure function of the stored entry* (report plus
provenance), which is what makes the on-disk index byte-deterministically
rebuildable from the store's objects alone.  Two feature families feed the
retriever's two rankings:

* **Lexical** — ``k``-token shingles of the kernel's C source (comments
  stripped), hashed to short hex tokens.  Jaccard similarity over shingle
  sets is the classic near-duplicate detector: a kernel one token away
  from a solved one shares almost all of its shingles.
* **Structural** — the loop-nest depth profile and classified signature
  shape of the C source, plus (on the stored side) the dimension
  signature and templatized skeleton of the winning program.  Structure
  survives wholesale renames that destroy lexical overlap.

The C source of a stored lift is resolved from provenance (``task`` /
``request`` payloads) with a corpus-name fallback, so entries written by
older code still index — minus lexical features when no source survives.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..cfront import parse_function
from ..cfront.analysis import analyze_signature
from ..cfront.analysis.loops import analyze_loops
from ..core.kernel import kernel_of

#: Tokens per lexical shingle (trigrams: small enough to survive edits,
#: large enough that shared shingles imply shared phrasing).
SHINGLE_SIZE = 3

#: Hex digits kept per hashed shingle (48 bits: collisions are harmless —
#: they only nudge a similarity score — and short tokens keep the index
#: file compact).
SHINGLE_HEX = 12

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+(?:\.\d+)?|[^\sA-Za-z_\d]")
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def tokenize_c(source: str) -> List[str]:
    """The kernel source as a flat token stream (comments stripped)."""
    return _TOKEN_RE.findall(_COMMENT_RE.sub(" ", source))


def lexical_shingles(source: str, k: int = SHINGLE_SIZE) -> Tuple[str, ...]:
    """Sorted, deduplicated hashed token ``k``-shingles of *source*."""
    tokens = tokenize_c(source)
    if not tokens:
        return ()
    if len(tokens) < k:
        grams = ["\x1f".join(tokens)]
    else:
        grams = ["\x1f".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
    hashed = {
        hashlib.sha256(gram.encode("utf-8")).hexdigest()[:SHINGLE_HEX]
        for gram in grams
    }
    return tuple(sorted(hashed))


def loop_shape(nest) -> str:
    """The loop-nest depth profile, e.g. ``"1-2-2"`` (empty: no loops)."""
    return "-".join(str(loop.depth) for loop in nest.loops)


def signature_shape(info) -> str:
    """Classified argument counts, e.g. ``"3t1z0s"`` (tensors/sizes/scalars)."""
    return f"{len(info.tensors())}t{len(info.sizes())}z{len(info.scalars())}s"


def _features(c_source: str, analyses: Callable[[], tuple]) -> Dict[str, object]:
    """Lexical features of *c_source* plus the shapes of ``analyses()``, the
    kernel's (loop nest, signature).  A source that does not parse keeps
    only the lexical ones: the index must absorb whatever the store holds."""
    features: Dict[str, object] = {
        "shingles": list(lexical_shingles(c_source)),
        "loop_shape": "",
        "signature_shape": "",
    }
    try:
        nest, info = analyses()
    except Exception:  # noqa: BLE001 - degrade, never fail indexing
        return features
    features["loop_shape"] = loop_shape(nest)
    features["signature_shape"] = signature_shape(info)
    return features


def source_features(
    c_source: str, function_name: Optional[str] = None
) -> Dict[str, object]:
    """Lexical and structural features of one kernel's C source."""

    def analyses() -> tuple:
        function = parse_function(c_source, function_name)
        return analyze_loops(function), analyze_signature(function)

    return _features(c_source, analyses)


def dimension_signature(dimension_list) -> str:
    """The dimension list as a stable string key, e.g. ``"2-1-1-0"``."""
    if not dimension_list:
        return ""
    return "-".join(str(int(rank)) for rank in dimension_list)


# ---------------------------------------------------------------------- #
# Stored-entry rows
# ---------------------------------------------------------------------- #
def resolve_entry_source(entry) -> Tuple[Optional[str], Optional[str]]:
    """Best-effort ``(c_source, function_name)`` of a stored lift.

    Resolution order: the ``task`` provenance payload (written by
    :class:`~repro.service.store.CachedLifter`), the service's ``request``
    payload, then a corpus lookup by the report's task name.  ``(None,
    None)`` when nothing resolves — the row keeps structural fields from
    the report only.
    """
    provenance = entry.provenance or {}
    task = provenance.get("task")
    if isinstance(task, Mapping) and task.get("c_source"):
        return str(task["c_source"]), task.get("function_name") or None
    request = provenance.get("request")
    benchmark_name = None
    if isinstance(request, Mapping):
        if request.get("c_source"):
            return str(request["c_source"]), request.get("function_name") or None
        benchmark_name = request.get("benchmark")
    for name in (benchmark_name, entry.report.task_name):
        if not name:
            continue
        try:
            from ..suite import get_benchmark

            return get_benchmark(str(name)).c_source, None
        except Exception:  # noqa: BLE001 - non-corpus task names are expected
            continue
    return None, None


def entry_row(entry) -> Dict[str, object]:
    """The index row for one :class:`~repro.service.store.StoreEntry`.

    A pure function of the entry's JSON content: the incremental update on
    every store write and the full rebuild from objects go through this
    one extractor, which is what keeps the rebuilt index byte-identical.
    """
    report = entry.report
    row: Dict[str, object] = {
        "task": report.task_name,
        "method": report.method,
        "solved": bool(report.success),
        "skeleton": str(report.template) if report.template is not None else "",
        "dimension_signature": dimension_signature(report.dimension_list),
        "shingles": [],
        "loop_shape": "",
        "signature_shape": "",
    }
    c_source, function_name = resolve_entry_source(entry)
    if c_source:
        row.update(source_features(c_source, function_name))
    return row


def task_features(task) -> Dict[str, object]:
    """Query-side features of a :class:`~repro.core.task.LiftingTask`: its
    :func:`source_features`, parsed and analysed once per process."""

    def analyses() -> tuple:
        kernel = kernel_of(task)
        return kernel.loops, kernel.signature

    return _features(task.c_source, analyses)
