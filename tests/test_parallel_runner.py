"""Tests for the process-pool evaluation runner."""

from __future__ import annotations

from repro.evaluation import EvaluationRunner, standard_methods
from repro.llm import OracleConfig, SyntheticOracle
from repro.suite import all_benchmarks


def _methods():
    # darknet.axpy_cpu, the slowest kernel of the slice, solves under
    # STAGG_TD in ~3s on a 2-core x86 host.  The 20s budget leaves room for
    # load, so every slice kernel's outcome stays deterministic.
    return standard_methods(
        oracle=SyntheticOracle(OracleConfig()),
        timeout_seconds=20.0,
        include=["STAGG_TD", "C2TACO"],
    )


def _comparable(record):
    """Everything except wall-clock timing, which legitimately differs."""
    report = record.report
    return (
        record.method,
        record.benchmark,
        record.category,
        report.success,
        str(report.template),
        str(report.lifted_program),
        report.attempts,
        report.nodes_expanded,
        report.dimension_list,
        report.error,
    )


class TestParallelRunner:
    def test_parallel_records_match_sequential(self):
        benchmarks = all_benchmarks()[::15]
        sequential = EvaluationRunner(_methods(), benchmarks).run()
        parallel = EvaluationRunner(_methods(), benchmarks, workers=2).run()
        assert len(parallel.records) == len(sequential.records)
        assert [_comparable(r) for r in parallel.records] == [
            _comparable(r) for r in sequential.records
        ]

    def test_workers_one_is_sequential(self):
        benchmarks = all_benchmarks()[:1]
        runner = EvaluationRunner(_methods(), benchmarks, workers=1)
        assert runner._workers == 1
        result = runner.run()
        assert len(result.records) == len(_methods())

    def test_progress_callback_fires_in_order(self):
        benchmarks = all_benchmarks()[:2]
        calls = []
        EvaluationRunner(
            _methods(),
            benchmarks,
            progress=lambda method, name, report: calls.append((method, name)),
            workers=2,
        ).run()
        expected = [
            (label, bench.name) for label in _methods() for bench in benchmarks
        ]
        assert calls == expected
