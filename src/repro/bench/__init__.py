"""Benchmark & regression engine — the single owner of performance records.

This package turns the perf trajectory (``BENCH_<tag>.json`` at the repo
root) into a first-class subsystem:

* :mod:`repro.bench.schema` — the typed :class:`BenchRecord` model that
  loads and validates every committed record (strict about field names, so
  schema drift fails the moment a field is renamed);
* :mod:`repro.bench.gates` — the declarative :class:`Gate` model and the
  canonical gate registry (the perf bars PRs must hold, versioned in code
  rather than in CI YAML);
* :mod:`repro.bench.trajectory` — discovery of committed records and
  noise-aware regression detection across like-scope records;
* :mod:`repro.bench.runner` — the measurement entry point behind
  ``python -m repro bench`` (fail-fast overwrite protection,
  tag + git-SHA stamping, summary rendering).

``repro gate`` evaluates the registry against any record and renders the
verdict as a human table, JSON, or Markdown (for CI step summaries); its
exit code *is* the verdict.  A future PR adds a perf bar by calling
:func:`repro.bench.gates.register_gate` — never by editing ci.yml.
"""

from __future__ import annotations

from .gates import (
    PORTFOLIO_GATE_RATIO,
    VALIDATOR_SPEEDUP_MIN,
    Gate,
    GateReport,
    GateResult,
    evaluate_gates,
    register_gate,
    registered_gates,
    render_json,
    render_markdown,
    render_table,
)
from .schema import (
    BenchRecord,
    BenchSchemaError,
    MethodMeasurement,
    PortfolioSection,
    SearchMeasurement,
    SearchSection,
    ValidatorMeasurement,
    ValidatorSection,
)
from .trajectory import (
    DEFAULT_TOLERANCE_PCT,
    REGRESSION_METRICS,
    RegressionFinding,
    detect_regressions,
    discover_records,
    find_record,
    trajectory_rows,
)
from .runner import (
    BenchColdPathError,
    BenchOverwriteError,
    current_git_sha,
    run_bench,
    summarize,
)

__all__ = [
    "BenchColdPathError",
    "BenchOverwriteError",
    "BenchRecord",
    "BenchSchemaError",
    "DEFAULT_TOLERANCE_PCT",
    "Gate",
    "GateReport",
    "GateResult",
    "MethodMeasurement",
    "PORTFOLIO_GATE_RATIO",
    "PortfolioSection",
    "REGRESSION_METRICS",
    "RegressionFinding",
    "SearchMeasurement",
    "SearchSection",
    "VALIDATOR_SPEEDUP_MIN",
    "ValidatorMeasurement",
    "ValidatorSection",
    "current_git_sha",
    "detect_regressions",
    "discover_records",
    "evaluate_gates",
    "find_record",
    "register_gate",
    "registered_gates",
    "render_json",
    "render_markdown",
    "render_table",
    "run_bench",
    "summarize",
    "trajectory_rows",
]
