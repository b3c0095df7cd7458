"""The evaluation runner: execute lifting methods over the benchmark corpus.

The runner treats every method — STAGG configurations and baselines alike —
through the same ``lift(task) -> SynthesisReport`` interface, runs each over
a list of benchmarks with a per-query time budget, and collects the records
the tables and figures of Section 8 are built from.

Full-corpus sweeps are embarrassingly parallel — every (method, benchmark)
cell is an independent lifting run — so the runner optionally fans the cells
out over the pool an :class:`~repro.lifting.executor.ExecutionConfig`
selects (threads or processes).  Parallel runs
produce records in exactly the same deterministic (method, benchmark) order
as sequential runs, and because every built-in lifter is stateless across
queries (the synthetic oracle derives its RNG per query), the synthesis
outcomes match a sequential run for every query that finishes within its
time budget.  The per-query budget is *wall-clock*, so oversubscribing the
machine (more workers than cores) slows each concurrent search down and can
time out a query that a sequential run would solve right at the deadline —
so the runner clamps the pool to the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from ..lifting import (
    GRAMMAR_ABLATION_METHODS,
    PENALTY_ABLATION_METHODS,
    STANDARD_METHODS,
    resolve_methods,
)
from ..lifting import (  # noqa: F401  (re-exported via repro.evaluation)
    default_limits,
    default_verifier_config,
)
from ..lifting.executor import ExecutionConfig
from ..llm import LLMOracle
from ..suite import Benchmark

#: A lifting method: anything with a ``lift(task) -> SynthesisReport`` method.
Lifter = object


@dataclass
class RunRecord:
    """One (method, benchmark) execution."""

    method: str
    benchmark: str
    category: str
    report: SynthesisReport

    @property
    def solved(self) -> bool:
        return self.report.success

    @property
    def time(self) -> float:
        return self.report.elapsed_seconds

    @property
    def attempts(self) -> int:
        return self.report.attempts

    @property
    def is_real_world(self) -> bool:
        return self.category != "artificial"


@dataclass
class EvaluationResult:
    """All records of one evaluation run, with slicing helpers."""

    records: List[RunRecord] = field(default_factory=list)

    def methods(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.method, None)
        return list(seen)

    def benchmarks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.benchmark, None)
        return list(seen)

    def for_method(self, method: str) -> List[RunRecord]:
        return [r for r in self.records if r.method == method]

    def record(self, method: str, benchmark: str) -> RunRecord:
        for r in self.records:
            if r.method == method and r.benchmark == benchmark:
                return r
        raise KeyError((method, benchmark))

    def solved_benchmarks(self, method: str) -> List[str]:
        return [r.benchmark for r in self.for_method(method) if r.solved]

    def filter(
        self,
        real_world_only: bool = False,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> "EvaluationResult":
        wanted = set(benchmarks) if benchmarks is not None else None
        selected = [
            r
            for r in self.records
            if (not real_world_only or r.is_real_world)
            and (wanted is None or r.benchmark in wanted)
        ]
        return EvaluationResult(records=selected)

    def merge(self, other: "EvaluationResult") -> "EvaluationResult":
        return EvaluationResult(records=self.records + other.records)


def _run_cell(
    label: str, lifter: Lifter, task: LiftingTask, benchmark_name: str, category: str
) -> RunRecord:
    """Execute one (method, benchmark) cell.

    Module-level so worker processes can unpickle it; receives the
    :class:`LiftingTask` (pure data) rather than the benchmark object, whose
    reference-implementation callable is not needed for lifting.
    """
    report = lifter.lift(task)
    return RunRecord(
        method=label, benchmark=benchmark_name, category=category, report=report
    )


class EvaluationRunner:
    """Runs a set of methods over a set of benchmarks.

    ``execution`` is an :class:`~repro.lifting.executor.ExecutionConfig`
    selecting the pool backend (threads or processes) and worker count,
    clamped to the core count.  Without one, or with a single worker, every
    cell runs sequentially in-process; otherwise the cells fan out over the
    pool with one (method, benchmark) cell per task.  Records are
    collected in submission order, so the record order is deterministic and
    outcomes match a sequential run whenever queries finish within their
    wall-clock budgets (see the module docstring about oversubscription).

    ``cache_dir`` plugs the harness into the lifting service's
    content-addressed result store: every method is wrapped in a
    :class:`repro.service.store.CachedLifter`, so cells whose (task,
    method) digest is already stored replay the recorded report —
    original timings, attempts and errors included — without running
    synthesis, and cold cells persist their reports for the next sweep.
    Records from a warm sweep are byte-identical to the cold sweep that
    populated the store.  Never quote ``BENCH_*`` or table numbers from a
    warm-cache run without saying so.
    """

    def __init__(
        self,
        methods: Mapping[str, Lifter],
        benchmarks: Sequence[Benchmark],
        progress: Optional[Callable[[str, str, SynthesisReport], None]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        seed_from_store: bool = False,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        self._methods = dict(methods)
        self._benchmarks = list(benchmarks)
        self._progress = progress
        self._execution = execution
        self._workers = (
            execution.resolved_workers(ceiling=os.cpu_count())
            if execution is not None
            else 0
        )
        if seed_from_store and cache_dir is None:
            raise ValueError("seed_from_store requires cache_dir")
        if seed_from_store:
            # Similarity seeding for cold cells: neighbors from the store's
            # retrieval index become tier-0 candidates.  The knob is
            # digest-excluded, so warm replays are unaffected.
            from ..retrieval.seeding import seeded_lifter

            self._methods = {
                label: seeded_lifter(lifter, cache_dir)
                for label, lifter in self._methods.items()
            }
        if cache_dir is not None:
            # Imported lazily so plain sweeps never pay the service import.
            from ..service.store import CachedLifter

            self._methods = {
                label: CachedLifter(lifter, cache_dir)
                for label, lifter in self._methods.items()
            }

    def run(self) -> EvaluationResult:
        if self._workers > 1:
            return self._run_parallel()
        result = EvaluationResult()
        for label, lifter in self._methods.items():
            for benchmark in self._benchmarks:
                report = lifter.lift(benchmark.task())
                record = RunRecord(
                    method=label,
                    benchmark=benchmark.name,
                    category=benchmark.category,
                    report=report,
                )
                result.records.append(record)
                if self._progress is not None:
                    self._progress(label, benchmark.name, report)
        return result

    def _run_parallel(self) -> EvaluationResult:
        result = EvaluationResult()
        pool_type = (
            ProcessPoolExecutor
            if self._execution.uses_processes
            else ThreadPoolExecutor
        )
        with pool_type(max_workers=self._workers) as pool:
            futures = [
                pool.submit(
                    _run_cell,
                    label,
                    lifter,
                    benchmark.task(),
                    benchmark.name,
                    benchmark.category,
                )
                for label, lifter in self._methods.items()
                for benchmark in self._benchmarks
            ]
            for future in futures:
                record = future.result()
                result.records.append(record)
                if self._progress is not None:
                    self._progress(record.method, record.benchmark, record.report)
        return result


# ---------------------------------------------------------------------- #
# Standard method factories (thin wrappers over the method registry)
# ---------------------------------------------------------------------- #
def methods_by_name(
    names: Sequence[str],
    oracle: Optional[LLMOracle] = None,
    timeout_seconds: Optional[float] = 60.0,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, Lifter]:
    """Resolve registry *names* into the runner's ``{label: lifter}`` shape.

    Every method the evaluation runs is constructed through
    :func:`repro.lifting.resolve_methods` — the same path the CLI and the
    HTTP service use — so a sweep's lifters carry the exact store digests a
    service populated for the same names.  ``execution`` selects the
    backend for method-internal parallelism; it never enters digests.
    """
    return resolve_methods(
        names, oracle=oracle, timeout_seconds=timeout_seconds, execution=execution
    )


def standard_methods(
    oracle: Optional[LLMOracle] = None,
    timeout_seconds: Optional[float] = 60.0,
    include: Optional[Sequence[str]] = None,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, Lifter]:
    """The six methods of Figures 9-10 / Table 1.

    ``include`` restricts the returned dictionary to a subset of labels
    (useful for quick runs and tests).
    """
    names = STANDARD_METHODS if include is None else tuple(include)
    return methods_by_name(
        names, oracle=oracle, timeout_seconds=timeout_seconds, execution=execution
    )


def penalty_ablation_methods(
    oracle: Optional[LLMOracle] = None,
    timeout_seconds: Optional[float] = 60.0,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, Lifter]:
    """The Table-2 configurations: full STAGG plus penalty-dropping variants."""
    return methods_by_name(
        PENALTY_ABLATION_METHODS,
        oracle=oracle,
        timeout_seconds=timeout_seconds,
        execution=execution,
    )


def grammar_ablation_methods(
    oracle: Optional[LLMOracle] = None,
    timeout_seconds: Optional[float] = 60.0,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, Lifter]:
    """The Table-3 / Figure-11 / Figure-12 grammar configurations."""
    return methods_by_name(
        GRAMMAR_ABLATION_METHODS,
        oracle=oracle,
        timeout_seconds=timeout_seconds,
        execution=execution,
    )
