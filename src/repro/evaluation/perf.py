"""Candidate-throughput microbenchmarks (the ``benchmarks/perf/`` harness).

The synthesis loop's unit economics are candidates/sec (how fast the
validator burns through substitutions) and nodes/sec (how fast the A*
searches expand sentential forms).  This module measures both on a fixed
kernel set and emits a JSON record (``BENCH_<tag>.json``) so successive PRs
leave a perf trajectory behind.

Two validator configurations are measured:

* ``tiered_cached`` — the production hot path: pre-converted per-example
  evaluation contexts plus the float64 screen / exact confirm tiers;
* ``seed_reference`` — a reference loop replicating the seed architecture:
  every substitution converts the example tensors from scratch and runs the
  full exact ``Fraction`` evaluation on every example, with the seed's
  Python-level element-by-element output comparison.

The ratio of the two is the validator speedup recorded in the JSON (the
reference still benefits from this PR's vectorised division, so the recorded
speedup is a *conservative* bound on the improvement over the seed).
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bench.gates import PORTFOLIO_GATE_RATIO as _PORTFOLIO_GATE_RATIO
from ..bench.gates import RETRIEVAL_GATE_SPEEDUP as _RETRIEVAL_GATE_SPEEDUP
from ..cfront.analysis import analyze_signature, harvest_constants
from ..core.dimension_list import num_unique_indices, predict_dimension_list
from ..core.grammar_gen import bottomup_template_grammar, topdown_template_grammar
from ..core.io_examples import IOExampleGenerator
from ..core.pcfg_learn import learn_pcfg, operator_weights
from ..core.penalties import PenaltyContext, PenaltyEvaluator
from ..core.search import SearchLimits
from ..core.search_bottomup import BottomUpSearch
from ..core.search_topdown import TopDownSearch
from ..core.templates import templatize_all
from ..core.validator import TemplateValidator, instantiate
from ..llm import LiftingQuery, OracleConfig, SyntheticOracle
from ..suite import get_benchmark
from ..taco import TacoProgram
from ..taco.errors import TacoError
from ..taco.evaluator import TacoEvaluator

#: The fixed kernel set: one representative per structural family
#: (elementwise, scalar broadcast, constant, reduction, matmul, 3-operand).
PERF_KERNELS = (
    "blend.add_pixels",
    "blend.lift_black_level",
    "darknet.dot_cpu",
    "darknet.forward_connected",
    "darknet.gemm_nn",
    "blend.weighted_sum",
)

#: Complete templates enumerated per kernel for the validator measurement.
#: ``warm-similar`` keeps the quick budgets — its point is the retrieval
#: section, but the record stays complete so every gate can evaluate.
TEMPLATES_PER_KERNEL = {"quick": 120, "full": 400, "warm-similar": 120}

#: Expansion budget per kernel for the search measurement.
SEARCH_EXPANSIONS = {"quick": 4_000, "full": 20_000, "warm-similar": 4_000}

#: Members raced by the portfolio measurement.  Deliberately a *diverse*
#: pair — no single configuration dominates (the paper's Figure 9/Table 3
#: observation): refined top-down times out on axpy-style kernels that the
#: full-grammar bottom-up solves in under a second, while the full grammar
#: exhausts without a solution on several kernels the refined search nails
#: instantly.  A portfolio of look-alikes would only measure GIL contention.
PORTFOLIO_MEMBERS = ("STAGG_TD", "STAGG_BU.FullGrammar")

#: The fixed kernel set for the portfolio measurement: two kernels where
#: only the second member wins quickly, three where only the first does,
#: and one both solve (the portfolio must not regress the easy case).
PORTFOLIO_KERNELS = (
    "darknet.axpy_cpu",
    "llama.rmsnorm_scale",
    "blend.weighted_sum",
    "simpl_array.sum_three",
    "dsp.scaled_residual",
    "darknet.copy_cpu",
)

#: Per-query wall-clock budget for the portfolio measurement (seconds).
#: Large enough that the slow member's losses register as real cost, small
#: enough that the sequential baselines stay CI-friendly.
PORTFOLIO_TIMEOUT_SECONDS = 5.0

#: The portfolio wall-clock gate ratio.  The single source of truth lives
#: in the gate registry (:mod:`repro.bench.gates`); it is embedded in the
#: record (``portfolio.gate_ratio``) so the registered gate, the summary
#: line, and the record prose can never drift apart.
PORTFOLIO_GATE_RATIO = _PORTFOLIO_GATE_RATIO

#: Oracle seed for the portfolio measurement (the evaluation default).
PORTFOLIO_ORACLE_SEED = 2025

#: Core count at which the multicore acceptance bar applies: with a core
#: per member (plus one for the parent), the process-backed race must beat
#: the fastest sequential member outright.
MULTICORE_MIN_CORES = 4

#: The multicore bar on machines with >= MULTICORE_MIN_CORES cores: the
#: process-backed portfolio's wall-clock must be <= the fastest member's.
MULTICORE_GATE_RATIO = 1.0

#: The bar recorded on smaller machines, where racing processes time-share
#: cores and spawning is pure overhead — the race cannot beat its fastest
#: member there, so the gate only asserts the overhead stays bounded
#: (mirrors the sequential portfolio's contention allowance plus process
#: spawn/pickle cost).  ``multicore.cores`` documents which bar applied.
MULTICORE_FALLBACK_GATE_RATIO = 3.0

#: Kernel set for the warm-similar (retrieval) measurement: kernels the
#: seed method solves in well under a second but the probe method needs
#: seconds for — or times out on entirely — so similarity seeding moves
#: both wall-clock *and* solve rate.
RETRIEVAL_KERNELS = (
    "darknet.axpy_cpu",
    "llama.rmsnorm_scale",
    "dsp.scaled_residual",
)

#: The method whose solved lifts populate the store (and thus the index).
RETRIEVAL_SEED_METHOD = "STAGG_BU"

#: The method measured cold vs. seeded.  A different method than the
#: seeder, so every probe is a store digest *miss*: the speedup measures
#: the retrieval layer's tier-0 seeding, never digest replay.
RETRIEVAL_PROBE_METHOD = "STAGG_TD"

#: Per-query wall-clock budget for the retrieval measurement (seconds).
RETRIEVAL_TIMEOUT_SECONDS = 10.0

#: The retrieval speedup gate bar (single source of truth in the gate
#: registry; embedded in the record as ``retrieval.gate_speedup``).
RETRIEVAL_GATE_SPEEDUP = _RETRIEVAL_GATE_SPEEDUP


class _PerfTask:
    """Everything the measurements need for one kernel, prepared once."""

    def __init__(self, name: str, seed: int = 7) -> None:
        benchmark = get_benchmark(name)
        self.name = name
        self.task = benchmark.task()
        self.function = self.task.parse()
        self.signature = analyze_signature(self.function)
        self.constants = harvest_constants(self.function)
        self.examples = IOExampleGenerator(
            self.task, self.function, self.signature, seed=seed
        ).generate(3)
        oracle = SyntheticOracle(OracleConfig())
        response = oracle.propose(
            LiftingQuery(
                c_source=self.task.c_source,
                name=self.task.name,
                reference_solution=self.task.reference_solution,
            )
        )
        self.templates = templatize_all(response.candidates)
        prediction = predict_dimension_list(self.templates, self.function)
        self.dimension_list = prediction.dimension_list
        self.indices = num_unique_indices(self.templates)

    def grammar(self, style: str):
        if style == "topdown":
            return topdown_template_grammar(
                self.dimension_list, self.indices, self.templates
            )
        return bottomup_template_grammar(
            self.dimension_list, self.indices, self.templates
        )

    def pcfg(self, style: str):
        return learn_pcfg(self.grammar(style), self.templates, style=style)

    def penalty_evaluator(self, style: str) -> PenaltyEvaluator:
        grammar = self.grammar(style)
        weights = operator_weights(grammar, self.templates, style=style)
        max_weight = max(weights.values(), default=0.0)
        dominant = frozenset(
            op for op, w in weights.items() if w >= 2.0 and w > 0.5 * max_weight
        )
        context = PenaltyContext(
            dimension_list=self.dimension_list,
            grammar_has_constant=any(
                "Const" in str(p.rhs) for p in grammar.productions
            ),
            observed_operators=dominant,
        )
        factory = (
            PenaltyEvaluator.topdown if style == "topdown" else PenaltyEvaluator.bottomup
        )
        return factory(context)


def _enumerate_templates(task: _PerfTask, count: int) -> List[TacoProgram]:
    """The first *count* complete templates the top-down search would check."""
    collected: List[TacoProgram] = []

    def collector(template: TacoProgram):
        collected.append(template)
        return False, None, None

    limits = SearchLimits(
        max_expansions=200_000, max_candidates=count, timeout_seconds=30.0
    )
    TopDownSearch(
        task.pcfg("topdown"), task.penalty_evaluator("topdown"), collector, limits
    ).run()
    return collected


def _seed_outputs_equal(actual, expected) -> bool:
    """The seed's Python-level element-by-element exact comparison."""
    if isinstance(expected, np.ndarray) or isinstance(actual, np.ndarray):
        actual_arr = np.asarray(actual, dtype=object)
        expected_arr = np.asarray(expected, dtype=object)
        if actual_arr.shape != expected_arr.shape:
            return False
        for a, e in zip(actual_arr.reshape(-1), expected_arr.reshape(-1)):
            if Fraction(a) != Fraction(e):
                return False
        return True
    try:
        return Fraction(actual) == Fraction(expected)
    except (TypeError, ValueError):
        return actual == expected


class SeedReferenceValidator(TemplateValidator):
    """Replicates the seed's per-substitution validation cost model.

    Every substitution re-converts the example tensors into exact object
    arrays (by calling the one-shot ``evaluate`` API, which builds a fresh
    context) and compares outputs with the seed's Python loop — no float
    screen, no shared per-task state.  Used only by the perf harness.
    """

    def _satisfying_program(
        self, template, substitution, constant_choice, raw_accesses=None, use_alias=None
    ):
        concrete = instantiate(template, substitution, constant_choice)
        self.stats.candidates += 1
        self.stats.exact_checks += 1
        evaluator = TacoEvaluator(mode="exact")
        for example in self._examples:
            try:
                bindings = {
                    name: example.inputs[name]
                    for name in {access.name for access in concrete.rhs.tensors()}
                }
                result = evaluator.evaluate(
                    concrete, bindings, output_shape=example.output_shape()
                )
            except (TacoError, KeyError, ZeroDivisionError):
                return None
            if not _seed_outputs_equal(result, example.output):
                return None
        return concrete


#: Timed repetitions per configuration; the best (minimum-time) round is
#: reported, the standard way to suppress scheduler/turbo noise in
#: microbenchmarks.  One untimed warm-up round precedes the timed ones.
MEASURE_ROUNDS = 3


def _measure_validator(
    tasks: Sequence[_PerfTask], templates_per_kernel: int
) -> Dict[str, Dict[str, float]]:
    streams = [
        (task, _enumerate_templates(task, templates_per_kernel)) for task in tasks
    ]

    def run_once(factory) -> Tuple[int, float]:
        candidates = 0
        started = time.perf_counter()
        for task, templates in streams:
            validator = factory(task)
            for template in templates:
                validator.validate(template)
            candidates += validator.stats.candidates
        return candidates, time.perf_counter() - started

    results: Dict[str, Dict[str, float]] = {}
    for label, factory in (
        ("tiered_cached", lambda t: TemplateValidator(t.examples, t.constants, tiered=True)),
        ("seed_reference", lambda t: SeedReferenceValidator(t.examples, t.constants)),
    ):
        run_once(factory)  # warm-up (allocators, caches, branch predictors)
        rounds = [run_once(factory) for _ in range(MEASURE_ROUNDS)]
        candidates = rounds[0][0]
        seconds = min(elapsed for _count, elapsed in rounds)
        results[label] = {
            "candidates": candidates,
            "seconds": round(seconds, 4),
            "candidates_per_sec": round(candidates / seconds, 1) if seconds else 0.0,
        }
    tiered = results["tiered_cached"]["candidates_per_sec"]
    seed = results["seed_reference"]["candidates_per_sec"]
    results["speedup"] = round(tiered / seed, 2) if seed else 0.0
    return results


def _measure_search(
    tasks: Sequence[_PerfTask], max_expansions: int
) -> Dict[str, Dict[str, float]]:
    def never(_template):
        return False, None, None

    def run_once(style: str) -> Tuple[int, int, float]:
        nodes = 0
        pruned = 0
        started = time.perf_counter()
        for task in tasks:
            limits = SearchLimits(
                max_expansions=max_expansions,
                max_candidates=10_000_000,
                timeout_seconds=30.0,
            )
            if style == "topdown":
                search = TopDownSearch(
                    task.pcfg(style), task.penalty_evaluator(style), never, limits
                )
            else:
                search = BottomUpSearch(
                    task.pcfg(style),
                    task.dimension_list,
                    task.penalty_evaluator(style),
                    never,
                    limits,
                )
            outcome = search.run()
            nodes += outcome.nodes_expanded
            pruned += outcome.duplicates_pruned
        return nodes, pruned, time.perf_counter() - started

    results: Dict[str, Dict[str, float]] = {}
    for style in ("topdown", "bottomup"):
        rounds = [run_once(style) for _ in range(2)]
        nodes, pruned, _elapsed = rounds[0]
        seconds = min(elapsed for _n, _p, elapsed in rounds)
        results[style] = {
            "nodes": nodes,
            "duplicates_pruned": pruned,
            "seconds": round(seconds, 4),
            "nodes_per_sec": round(nodes / seconds, 1) if seconds else 0.0,
        }
    return results


def _measure_one_method(
    method: str, kernels: Sequence[str], timeout: float, execution=None
) -> Dict[str, object]:
    """Total cold wall-clock (and solve count) of *method* over *kernels*."""
    from ..lifting import resolve_method
    from ..suite import get_benchmark as _get

    total = 0.0
    solved = 0
    per_kernel: Dict[str, float] = {}
    for name in kernels:
        task = _get(name).task()
        lifter = resolve_method(
            method,
            timeout_seconds=timeout,
            oracle_seed=PORTFOLIO_ORACLE_SEED,
            execution=execution,
        )
        started = time.perf_counter()
        report = lifter.lift(task)
        elapsed = time.perf_counter() - started
        total += elapsed
        solved += 1 if report.success else 0
        per_kernel[name] = round(elapsed, 4)
    return {
        "seconds": round(total, 4),
        "solved": solved,
        "per_kernel_seconds": per_kernel,
    }


def measure_portfolio(
    kernels: Optional[Sequence[str]] = None,
    members: Sequence[str] = PORTFOLIO_MEMBERS,
    timeout: float = PORTFOLIO_TIMEOUT_SECONDS,
) -> Dict[str, object]:
    """Portfolio wall-clock versus the best sequential member.

    Runs every member sequentially over the fixed kernel set, then the
    portfolio racing all of them, and records the wall-clock ratio against
    the *fastest* member (the registered ``portfolio-wallclock`` gate
    asserts ``wallclock_ratio`` ≤ ``PORTFOLIO_GATE_RATIO``) plus solve
    counts — the portfolio should
    solve the union of what its members solve.  All runs are cold synthesis
    (never run this through a result store; warm numbers measure the store,
    not the race).
    """
    from ..portfolio import portfolio_label

    names = tuple(kernels) if kernels else PORTFOLIO_KERNELS
    member_results = {
        member: _measure_one_method(member, names, timeout) for member in members
    }
    spec = portfolio_label(members)
    portfolio_result = _measure_one_method(spec, names, timeout)
    fastest = min(member_results, key=lambda m: member_results[m]["seconds"])
    fastest_seconds = member_results[fastest]["seconds"]
    ratio = (
        portfolio_result["seconds"] / fastest_seconds if fastest_seconds else 0.0
    )
    return {
        "spec": spec,
        "kernels": list(names),
        "timeout_seconds": timeout,
        "members": member_results,
        "portfolio": portfolio_result,
        "fastest_member": fastest,
        "fastest_member_seconds": fastest_seconds,
        "wallclock_ratio": round(ratio, 3),
        "gate_ratio": PORTFOLIO_GATE_RATIO,
    }


def measure_multicore(
    kernels: Optional[Sequence[str]] = None,
    members: Sequence[str] = PORTFOLIO_MEMBERS,
    timeout: float = PORTFOLIO_TIMEOUT_SECONDS,
    member_results: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """The process-backed portfolio race versus the fastest member.

    The same portfolio spec as :func:`measure_portfolio`, resolved with
    ``ExecutionConfig(backend="processes")`` so members race on separate
    cores.  Pass ``member_results`` (from a :func:`measure_portfolio` run
    over the same kernels/timeout) to reuse the sequential member
    baselines instead of re-measuring them.

    The recorded ``gate_ratio`` is core-count conditional: on machines
    with >= :data:`MULTICORE_MIN_CORES` cores the acceptance bar is
    :data:`MULTICORE_GATE_RATIO` (the race must be no slower than its
    fastest member); below that the bar relaxes to
    :data:`MULTICORE_FALLBACK_GATE_RATIO`, since time-shared cores make
    beating the fastest member physically impossible.  ``cores`` records
    which case applied, so a record measured on a laptop is honest about
    what it gated.
    """
    from ..lifting import ExecutionConfig
    from ..portfolio import portfolio_label

    names = tuple(kernels) if kernels else PORTFOLIO_KERNELS
    if member_results is None:
        member_results = {
            member: _measure_one_method(member, names, timeout) for member in members
        }
    spec = portfolio_label(members)
    execution = ExecutionConfig(backend="processes", workers=len(members))
    portfolio_result = _measure_one_method(spec, names, timeout, execution=execution)
    fastest = min(member_results, key=lambda m: member_results[m]["seconds"])
    fastest_seconds = member_results[fastest]["seconds"]
    ratio = (
        portfolio_result["seconds"] / fastest_seconds if fastest_seconds else 0.0
    )
    cores = os.cpu_count() or 1
    gate_ratio = (
        MULTICORE_GATE_RATIO
        if cores >= MULTICORE_MIN_CORES
        else MULTICORE_FALLBACK_GATE_RATIO
    )
    return {
        "spec": spec,
        "kernels": list(names),
        "timeout_seconds": timeout,
        "cores": cores,
        "workers": len(members),
        "backend": "processes",
        "portfolio": portfolio_result,
        "fastest_member": fastest,
        "fastest_member_seconds": fastest_seconds,
        "wallclock_ratio": round(ratio, 3),
        "gate_ratio": gate_ratio,
    }


def _measure_probe_method(
    method: str,
    kernels: Sequence[str],
    timeout: float,
    cache_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Cold (``cache_dir=None``) or similarity-seeded run of *method*.

    Beyond :func:`_measure_one_method`'s totals this records the
    wall-clock until the first solve (the time-to-first-solution the
    warm-similar scope compares) and the seed stage's hit/attempt counts
    read back from each report.
    """
    from ..lifting import resolve_method
    from ..suite import get_benchmark as _get

    total = 0.0
    solved = 0
    per_kernel: Dict[str, float] = {}
    first_solve: Optional[float] = None
    seed_hits = 0
    seed_attempts = 0
    for name in kernels:
        task = _get(name).task()
        lifter = resolve_method(
            method, timeout_seconds=timeout, oracle_seed=PORTFOLIO_ORACLE_SEED
        )
        if cache_dir is not None:
            from ..retrieval.seeding import seeded_lifter

            lifter = seeded_lifter(lifter, cache_dir)
        started = time.perf_counter()
        report = lifter.lift(task)
        elapsed = time.perf_counter() - started
        total += elapsed
        per_kernel[name] = round(elapsed, 4)
        if report.success:
            solved += 1
            if first_solve is None:
                first_solve = round(total, 4)
        retrieval = report.details.get("retrieval")
        if isinstance(retrieval, dict) and retrieval.get("armed"):
            seed_attempts += 1
            if retrieval.get("hit"):
                seed_hits += 1
    return {
        "seconds": round(total, 4),
        "solved": solved,
        "per_kernel_seconds": per_kernel,
        "first_solve_seconds": first_solve,
        "seed_hits": seed_hits,
        "seed_attempts": seed_attempts,
    }


def measure_retrieval(
    kernels: Optional[Sequence[str]] = None,
    seed_method: str = RETRIEVAL_SEED_METHOD,
    probe_method: str = RETRIEVAL_PROBE_METHOD,
    timeout: float = RETRIEVAL_TIMEOUT_SECONDS,
) -> Dict[str, object]:
    """Similarity-seeded lifting versus the same method cold.

    A throwaway store is populated by lifting the kernel set with
    *seed_method* and indexing the results; *probe_method* then lifts
    the set cold and seeded.  The seeded run hits the store only through
    the retrieval index (different method ⇒ different digests), so
    ``speedup`` isolates the retrieval layer: tier-0 neighbor candidates
    passing validate-then-verify instead of a synthesis search.  Like
    every warm number, it measures the retrieval layer — never quote it
    as a synthesis speedup (see the README's warm-cache rule).
    """
    import shutil
    import tempfile

    from ..lifting import resolve_method
    from ..retrieval.index import RetrievalIndex
    from ..service.store import CachedLifter, ResultStore

    names = tuple(kernels) if kernels else RETRIEVAL_KERNELS
    cache_dir = tempfile.mkdtemp(prefix="repro-warm-similar-")
    try:
        for name in names:
            seeder = CachedLifter(
                resolve_method(
                    seed_method,
                    timeout_seconds=timeout,
                    oracle_seed=PORTFOLIO_ORACLE_SEED,
                ),
                cache_dir,
            )
            seeder.lift(get_benchmark(name).task())
        RetrievalIndex(cache_dir).rebuild(ResultStore(cache_dir))
        cold = _measure_probe_method(probe_method, names, timeout)
        warm = _measure_probe_method(
            probe_method, names, timeout, cache_dir=cache_dir
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    speedup = cold["seconds"] / warm["seconds"] if warm["seconds"] else 0.0
    return {
        "kernels": list(names),
        "seed_method": seed_method,
        "probe_method": probe_method,
        "timeout_seconds": timeout,
        "cold": cold,
        "warm": warm,
        "speedup": round(speedup, 3),
        "gate_speedup": RETRIEVAL_GATE_SPEEDUP,
    }


def run_perf_suite(
    scope: str = "quick",
    kernels: Optional[Sequence[str]] = None,
    portfolio_kernels: Optional[Sequence[str]] = None,
    include_portfolio: bool = True,
) -> Dict[str, object]:
    """Run the full microbenchmark suite and return the JSON-ready record.

    ``include_portfolio=False`` omits the portfolio race (the costliest
    section: cold synthesis with deliberate member timeouts) for callers
    that only gate on validator/search numbers — committed ``BENCH_<tag>``
    baselines should keep the full record.
    """
    if scope not in TEMPLATES_PER_KERNEL:
        raise ValueError(f"scope must be one of {tuple(TEMPLATES_PER_KERNEL)}, got {scope!r}")
    names = tuple(kernels) if kernels else PERF_KERNELS
    tasks = [_PerfTask(name) for name in names]
    validator = _measure_validator(tasks, TEMPLATES_PER_KERNEL[scope])
    search = _measure_search(tasks, SEARCH_EXPANSIONS[scope])
    record: Dict[str, object] = {
        "schema": "repro-perf-v1",
        "scope": scope,
        "kernels": list(names),
        "validator": validator,
        "search": search,
    }
    notes = (
        "validator.speedup compares the tiered+cached hot path against a "
        "seed-architecture reference loop (per-candidate conversion, "
        "exact-only evaluation, Python-loop comparison); the reference "
        "already uses this PR's vectorised exact division, so the "
        "recorded speedup is a conservative bound versus the seed."
    )
    if include_portfolio:
        portfolio = measure_portfolio(kernels=portfolio_kernels)
        record["portfolio"] = portfolio
        # The multicore race reuses the sequential member baselines the
        # portfolio section just measured (same kernels, same timeout).
        record["multicore"] = measure_multicore(
            kernels=portfolio_kernels, member_results=portfolio["members"]
        )
        notes += (
            "  portfolio.wallclock_ratio compares the racing portfolio "
            "against its best sequential member on a deliberately diverse "
            "kernel set (no member dominates); the portfolio-wallclock gate is ratio <= "
            f"{PORTFOLIO_GATE_RATIO}."
            "  multicore.* races the same portfolio over a process pool "
            "(ExecutionConfig(backend='processes')); the portfolio-multicore "
            f"gate bar is {MULTICORE_GATE_RATIO} on >= {MULTICORE_MIN_CORES} "
            f"cores and {MULTICORE_FALLBACK_GATE_RATIO} below (cores are "
            "recorded in the section)."
        )
    if scope == "warm-similar":
        record["retrieval"] = measure_retrieval()
        notes += (
            "  retrieval.speedup compares similarity-seeded lifting "
            "(store populated by a different method, so every probe is a "
            "digest miss answered through the retrieval index) against "
            "the same method cold; it measures the retrieval layer, not "
            "synthesis throughput, and must never be quoted as a search "
            f"speedup.  The retrieval-seeded-speedup gate is >= "
            f"{RETRIEVAL_GATE_SPEEDUP}."
        )
    record["notes"] = notes
    return record


def write_perf_record(
    path: Path,
    scope: str = "quick",
    kernels: Optional[Sequence[str]] = None,
    portfolio_kernels: Optional[Sequence[str]] = None,
    include_portfolio: bool = True,
) -> Dict[str, object]:
    """Run the suite and write the record to *path*; returns the record."""
    record = run_perf_suite(
        scope=scope,
        kernels=kernels,
        portfolio_kernels=portfolio_kernels,
        include_portfolio=include_portfolio,
    )
    path = Path(path)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
