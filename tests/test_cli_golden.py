"""Golden tests for CLI exit codes and stderr contracts.

The CLI is scriptable glue: its exit statuses and error messages are part
of the interface (CI jobs and the serving layer's clients branch on
them), so they are pinned here — ``corpus`` output shapes, ``lift``
argument errors, ``--executor`` validation, and the ``serve`` /
``submit`` failure modes that don't need a network.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.evaluation import EvaluationRunner
from repro.lifting import ExecutionConfig
from repro.suite import all_benchmarks, get_benchmark


# ---------------------------------------------------------------------- #
# corpus: golden output shapes
# ---------------------------------------------------------------------- #
class TestCorpusGolden:
    def test_list_golden_line_format(self, capsys):
        assert main(["corpus", "list", "--category", "mathfu"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("mathfu.")]
        assert lines, out
        # Every line: name, rank bound, operand count, ground truth.
        for line in lines:
            assert "rank<=" in line
            assert "operands=" in line
            assert "=" in line.split("operands=")[1]
        assert out.splitlines()[-1] == f"({len(lines)} benchmarks)"

    def test_show_golden_sections(self, capsys):
        assert main(["corpus", "show", "mathfu.dot"]) == 0
        out = capsys.readouterr().out
        benchmark = get_benchmark("mathfu.dot")
        assert out.splitlines()[0] == f"# {benchmark.name}  [{benchmark.category}]"
        assert f"# ground truth: {benchmark.ground_truth}" in out
        assert "# input spec:" in out
        assert benchmark.c_source.strip() in out

    def test_show_unknown_benchmark_exit_and_stderr(self, capsys):
        assert main(["corpus", "show", "not.a.benchmark"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no benchmark named 'not.a.benchmark'" in captured.err

    def test_stats_golden_fields(self, capsys):
        assert main(["corpus", "stats"]) == 0
        out = capsys.readouterr().out
        assert f"total benchmarks : {len(all_benchmarks())}" in out
        for field in ("real-world", "artificial", "max tensor rank", "by category:"):
            assert field in out


# ---------------------------------------------------------------------- #
# lift: argument errors
# ---------------------------------------------------------------------- #
class TestLiftErrors:
    def test_unknown_benchmark_exit_1_with_stderr(self, capsys):
        assert main(["lift", "missing.benchmark"]) == 1
        captured = capsys.readouterr()
        assert "no benchmark named 'missing.benchmark'" in captured.err

    def test_raw_c_file_without_reference_refused(self, tmp_path, capsys):
        path = tmp_path / "kernel.c"
        path.write_text(get_benchmark("darknet.copy_cpu").c_source)
        with pytest.raises(SystemExit) as excinfo:
            main(["lift", str(path)])
        assert "--reference" in str(excinfo.value)

    def test_bad_search_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lift", "mathfu.dot", "--search", "sideways"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unsolved_lift_exits_2(self, capsys):
        # A static oracle proposing only a scalar constant leaves the
        # refined grammar one rank-0 tensor (the kernel reads one array and
        # has no literal, so no Const either): it cannot express the sum of
        # squares, and the search ends at its expansion cap unsolved.
        status = main(
            [
                "lift", "llama.rmsnorm_sum_squares",
                "--candidate", "a = Const", "--timeout", "5",
            ]
        )
        assert status == 2


# ---------------------------------------------------------------------- #
# evaluate: --executor validation
# ---------------------------------------------------------------------- #
class TestEvaluateWorkersValidation:
    def test_zero_workers_rejected(self, capsys):
        assert main(["evaluate", "--limit", "1", "--executor", "processes:0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        assert main(["evaluate", "--limit", "1", "--executor", "processes:-3"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_oversubscription_clamped_to_cores(self):
        status = main(
            [
                "evaluate",
                "--limit", "1",
                "--category", "llama",
                "--timeout", "10",
                "--executor", "processes:100000",
            ]
        )
        assert status == 0
        runner = EvaluationRunner(
            {}, [], execution=ExecutionConfig("processes", workers=100000)
        )
        assert runner._workers == os.cpu_count()


# ---------------------------------------------------------------------- #
# serve / submit: offline failure modes
# ---------------------------------------------------------------------- #
class TestServiceCommands:
    def test_serve_rejects_nonpositive_workers(self, capsys):
        assert main(["serve", "--executor", "threads:0"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_submit_without_a_server_exits_1(self, capsys):
        # Port 9 (discard) is never running a lifting service.
        status = main(
            ["submit", "mathfu.dot", "--url", "http://127.0.0.1:9", "--timeout", "5"]
        )
        assert status == 1
        assert "cannot reach the lifting service" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# bench: the BENCH_<tag>.json overwrite guard
# ---------------------------------------------------------------------- #
def _fake_suite_record(include_portfolio=True):
    """A schema-valid record (run_bench validates before writing)."""
    measurement = {"candidates": 10, "seconds": 0.1, "candidates_per_sec": 100.0}
    search = {"nodes": 5, "duplicates_pruned": 1, "seconds": 0.1, "nodes_per_sec": 50.0}
    record = {
        "schema": "repro-perf-v1",
        "scope": "quick",
        "kernels": ["blend.add_pixels"],
        "validator": {
            "tiered_cached": dict(measurement),
            "seed_reference": dict(measurement),
            "speedup": 1.0,
        },
        "search": {"topdown": dict(search), "bottomup": dict(search)},
    }
    if include_portfolio:
        member = {"seconds": 1.0, "solved": 1, "per_kernel_seconds": {"k": 1.0}}
        record["portfolio"] = {
            "spec": "Portfolio(STAGG_TD,STAGG_BU)",
            "kernels": ["k"],
            "timeout_seconds": 5.0,
            "members": {"STAGG_TD": dict(member), "STAGG_BU": dict(member)},
            "portfolio": dict(member),
            "fastest_member": "STAGG_TD",
            "fastest_member_seconds": 1.0,
            "wallclock_ratio": 1.0,
            "gate_ratio": 1.25,
        }
    return record


class TestBenchOverwriteGuard:
    def test_refuses_to_overwrite_existing_record(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.evaluation.perf.run_perf_suite", lambda *a, **k: calls.append(a)
        )
        output = tmp_path / "BENCH_pr1.json"
        output.write_text(json.dumps({"prior": "baseline"}))
        status = main(["bench", "--output", str(output)])
        assert status == 2
        assert calls == []  # the measurement never ran
        assert "refusing to overwrite" in capsys.readouterr().err
        assert json.loads(output.read_text()) == {"prior": "baseline"}

    def test_force_overwrites(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.evaluation.perf.run_perf_suite",
            lambda **kwargs: _fake_suite_record(),
        )
        output = tmp_path / "BENCH_pr1.json"
        output.write_text(json.dumps({"prior": "baseline"}))
        assert main(["bench", "--output", str(output), "--force"]) == 0
        assert json.loads(output.read_text())["schema"] == "repro-perf-v1"

    def test_fresh_tag_writes_without_force(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.evaluation.perf.run_perf_suite",
            lambda **kwargs: _fake_suite_record(),
        )
        output = tmp_path / "BENCH_fresh.json"
        assert main(["bench", "--output", str(output)]) == 0
        assert output.exists()

    def test_no_portfolio_skips_the_race_and_prints_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        seen = {}

        def fake_suite(scope="quick", include_portfolio=True, **kwargs):
            seen["include_portfolio"] = include_portfolio
            # No "portfolio" key, matching run_perf_suite's omission.
            return _fake_suite_record(include_portfolio=False)

        monkeypatch.setattr("repro.evaluation.perf.run_perf_suite", fake_suite)
        output = tmp_path / "BENCH_fresh.json"
        assert main(["bench", "--output", str(output), "--no-portfolio"]) == 0
        assert seen["include_portfolio"] is False
        out = capsys.readouterr().out
        assert not any(line.startswith("portfolio") for line in out.splitlines())
