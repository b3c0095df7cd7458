"""Evaluation harness: runner, metrics, and regeneration of every table/figure."""

from .figures import (
    cactus_series,
    cumulative_cactus,
    figure9,
    figure10,
    figure11,
    figure12,
    solved_counts,
    success_rates,
)
from .metrics import (
    MethodMetrics,
    all_method_metrics,
    common_subset_metrics,
    coverage_comparison,
    headline_metrics,
    method_metrics,
)
from .report import records_as_rows, save_csv, save_json, text_report
from .runner import (
    EvaluationResult,
    EvaluationRunner,
    RunRecord,
    default_limits,
    default_verifier_config,
    grammar_ablation_methods,
    methods_by_name,
    penalty_ablation_methods,
    standard_methods,
)
from .tables import TABLE1_METHODS, format_table, table1, table2, table3

__all__ = [
    "EvaluationRunner",
    "EvaluationResult",
    "RunRecord",
    "standard_methods",
    "penalty_ablation_methods",
    "grammar_ablation_methods",
    "methods_by_name",
    "default_limits",
    "default_verifier_config",
    "MethodMetrics",
    "method_metrics",
    "all_method_metrics",
    "common_subset_metrics",
    "coverage_comparison",
    "headline_metrics",
    "table1",
    "table2",
    "table3",
    "format_table",
    "TABLE1_METHODS",
    "cactus_series",
    "cumulative_cactus",
    "success_rates",
    "solved_counts",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "records_as_rows",
    "save_csv",
    "save_json",
    "text_report",
]
