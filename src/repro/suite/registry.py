"""The benchmark registry: the full 77-query corpus and helpers to slice it.

The evaluation of the paper uses:

* the **real-world set** — 67 kernels (61 from the literature corpora plus 6
  from llama2.cpp), and
* the **full set** — the real-world set plus 10 artificial kernels (77 total).

The corpus is built once, on first use, and shared by every caller in the
process: each lookup returns the same :class:`Benchmark` objects.  They are
frozen, and their :class:`~repro.core.task.InputSpec` mappings must be
treated as read-only too — derive a changed task (``Benchmark.task()``,
``LiftingTask.with_reference``) instead of editing a shared one.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from . import artificial, blend, darknet, dsp, llama, mathfu, simpl_array
from .model import Benchmark

#: Corpus modules, in presentation order.
_CATEGORY_MODULES = (blend, darknet, dsp, mathfu, simpl_array, llama, artificial)

#: Names of the real-world categories (everything except ``artificial``).
REAL_WORLD_CATEGORIES = ("blend", "darknet", "dsp", "mathfu", "simpl_array", "llama")


@functools.cache
def _corpus() -> Tuple[Tuple[Benchmark, ...], Dict[str, Benchmark]]:
    """The shared corpus in presentation order and by name, built on first use."""
    corpus: List[Benchmark] = []
    for module in _CATEGORY_MODULES:
        corpus.extend(module.benchmarks())
    return tuple(corpus), _index_by_name(corpus)


def all_benchmarks() -> List[Benchmark]:
    """The full 77-benchmark corpus, in a stable order.

    A fresh list on every call, so callers may slice or reorder it; the
    benchmarks in it are the shared, read-only corpus entries.
    """
    return list(_corpus()[0])


def real_world_benchmarks() -> List[Benchmark]:
    """The 67 real-world benchmarks (everything except the artificial set)."""
    return [b for b in all_benchmarks() if b.category != "artificial"]


def artificial_benchmarks() -> List[Benchmark]:
    """The 10 artificial benchmarks."""
    return [b for b in all_benchmarks() if b.category == "artificial"]


def benchmarks_by_category() -> Dict[str, List[Benchmark]]:
    """The corpus grouped by category."""
    grouped: Dict[str, List[Benchmark]] = {}
    for benchmark in all_benchmarks():
        grouped.setdefault(benchmark.category, []).append(benchmark)
    return grouped


def get_benchmark(name: str) -> Benchmark:
    """Look up one benchmark by its fully qualified name (a shared entry)."""
    try:
        return _corpus()[1][name]
    except KeyError:
        raise KeyError(f"no benchmark named {name!r}") from None


def select(
    names: Optional[Sequence[str]] = None,
    categories: Optional[Sequence[str]] = None,
    real_world_only: bool = False,
    limit: Optional[int] = None,
) -> List[Benchmark]:
    """Flexible corpus slicing used by the examples and the bench harness."""
    corpus = all_benchmarks()
    if names is not None:
        wanted = set(names)
        corpus = [b for b in corpus if b.name in wanted]
    if categories is not None:
        wanted_categories = set(categories)
        corpus = [b for b in corpus if b.category in wanted_categories]
    if real_world_only:
        corpus = [b for b in corpus if b.is_real_world()]
    if limit is not None:
        corpus = corpus[:limit]
    return corpus


def corpus_statistics() -> Dict[str, object]:
    """Summary statistics of the corpus (used in reports and tests)."""
    corpus = all_benchmarks()
    by_category = {
        category: len(group) for category, group in benchmarks_by_category().items()
    }
    return {
        "total": len(corpus),
        "real_world": len(real_world_benchmarks()),
        "artificial": len(artificial_benchmarks()),
        "by_category": by_category,
        "max_rank": max(b.max_rank() for b in corpus),
        "beyond_template_library": sum(1 for b in corpus if b.beyond_template_library),
    }


def _index_by_name(corpus: Sequence[Benchmark]) -> Dict[str, Benchmark]:
    by_name: Dict[str, Benchmark] = {}
    for benchmark in corpus:
        if benchmark.name in by_name:
            raise ValueError(f"duplicate benchmark name {benchmark.name!r}")
        by_name[benchmark.name] = benchmark
    return by_name
