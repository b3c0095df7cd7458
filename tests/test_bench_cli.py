"""CLI tests for ``repro bench`` / ``repro gate`` and the bench runner."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import (
    BenchColdPathError,
    BenchOverwriteError,
    REPO_ROOT,
    check_cold_path,
    check_overwrite,
    current_git_sha,
    resolve_output,
    run_bench,
    summarize,
)
from repro.cli import main


# ---------------------------------------------------------------------- #
# repro gate
# ---------------------------------------------------------------------- #
def test_gate_cli_reproduces_committed_verdicts(capsys):
    assert main(["gate", "--record", "BENCH_pr3.json"]) == 0
    assert main(["gate", "--record", "BENCH_pr4.json"]) == 0
    # Older records predate later sections (pr5 has no retrieval, pr8 no
    # multicore), so only the newest record gates strictly.
    assert main(["gate", "--record", "BENCH_pr5.json"]) == 0
    assert main(["gate", "--record", "BENCH_pr8.json"]) == 0
    assert main(["gate", "--record", "BENCH_pr10.json", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "validator-speedup" in out
    assert "retrieval-seeded-speedup" in out
    assert "portfolio-multicore" in out
    assert "PASS" in out


def test_gate_cli_accepts_bare_tag(capsys):
    assert main(["gate", "--record", "pr4"]) == 0
    assert "record pr4" in capsys.readouterr().out


def test_gate_cli_baseline_and_json(capsys):
    assert main(["gate", "--record", "BENCH_pr5.json", "--baseline", "pr4",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"] == "pr4"
    assert payload["passed"] is True
    assert payload["regressions"]


def test_gate_cli_markdown(capsys):
    assert main(["gate", "--record", "BENCH_pr5.json", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### Perf gates")
    assert "| `validator-speedup` |" in out


def test_gate_cli_failing_record_exits_nonzero(tmp_path, capsys):
    record = json.loads((REPO_ROOT / "BENCH_pr3.json").read_text())
    record["validator"]["speedup"] = 1.2
    path = tmp_path / "BENCH_slow.json"
    path.write_text(json.dumps(record))
    assert main(["gate", "--record", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gate_cli_strict_fails_incomplete_record():
    # pr3 predates the portfolio section: fine normally, fails strictly.
    assert main(["gate", "--record", "BENCH_pr3.json"]) == 0
    assert main(["gate", "--record", "BENCH_pr3.json", "--strict"]) == 1


def test_gate_cli_missing_record_is_usage_error(capsys):
    assert main(["gate", "--record", "no-such-tag"]) == 2
    assert "no BENCH_no-such-tag.json" in capsys.readouterr().err


def test_gate_cli_malformed_record_is_usage_error(tmp_path, capsys):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": "repro-perf-v1"}))
    assert main(["gate", "--record", str(path)]) == 2
    assert "missing required" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# repro bench: fail-fast overwrite refusal
# ---------------------------------------------------------------------- #
def test_bench_refuses_existing_tag_before_measuring(monkeypatch, capsys):
    # The committed BENCH_pr1.json exists, so `--tag pr1` must refuse
    # before any measurement runs: a measurement attempt is a test failure.
    def explode(*args, **kwargs):  # pragma: no cover - the bug being guarded
        raise AssertionError("measurements ran before the overwrite check")

    monkeypatch.setattr("repro.evaluation.perf.run_perf_suite", explode)
    assert main(["bench", "--tag", "pr1"]) == 2
    err = capsys.readouterr().err
    assert "refusing to overwrite" in err
    assert "BENCH_pr1.json" in err


def test_bench_requires_tag_or_output(capsys):
    assert main(["bench"]) == 2
    assert "--tag" in capsys.readouterr().err


def test_bench_runs_and_stamps_provenance(tmp_path, monkeypatch, capsys):
    def fake_suite(scope="quick", include_portfolio=True, **kwargs):
        record = json.loads((REPO_ROOT / "BENCH_pr3.json").read_text())
        record.pop("tag", None)
        record.pop("git_sha", None)
        return record

    monkeypatch.setattr("repro.evaluation.perf.run_perf_suite", fake_suite)
    record = run_bench(tag="fresh", root=tmp_path)
    assert record["tag"] == "fresh"
    # Outside a git checkout no sha is stamped at all.
    assert record.get("git_sha") == current_git_sha()
    on_disk = json.loads((tmp_path / "BENCH_fresh.json").read_text())
    assert on_disk == record
    # Second run without --force fails fast; --force replaces.
    with pytest.raises(BenchOverwriteError):
        run_bench(tag="fresh", root=tmp_path)
    run_bench(tag="fresh", root=tmp_path, force=True)


def test_bench_validates_fresh_record_before_writing(tmp_path, monkeypatch):
    def broken_suite(**kwargs):
        return {"schema": "repro-perf-v1", "scope": "quick"}

    monkeypatch.setattr("repro.evaluation.perf.run_perf_suite", broken_suite)
    from repro.bench import BenchSchemaError

    with pytest.raises(BenchSchemaError):
        run_bench(tag="broken", root=tmp_path)
    assert not (tmp_path / "BENCH_broken.json").exists()


def test_bench_trajectory_lists_committed_records(capsys):
    assert main(["bench", "--trajectory"]) == 0
    out = capsys.readouterr().out
    for tag in ("pr1", "pr3", "pr4", "pr5"):
        assert tag in out


def test_resolve_output_and_summarize():
    assert resolve_output("x", None).name == "BENCH_x.json"
    assert resolve_output(None, "custom.json").name == "custom.json"
    with pytest.raises(ValueError):
        resolve_output(None, None)
    summary = summarize(json.loads((REPO_ROOT / "BENCH_pr4.json").read_text()))
    assert "validator  speedup" in summary
    assert "racing   portfolio" in summary


def test_check_overwrite(tmp_path):
    path = tmp_path / "BENCH_t.json"
    check_overwrite(path, force=False)  # absent: fine
    path.write_text("{}")
    with pytest.raises(BenchOverwriteError):
        check_overwrite(path, force=False)
    check_overwrite(path, force=True)  # forced: fine


class TestColdPathGuard:
    """Bench records and serving-tier state must never share a directory."""

    def test_plain_directory_is_fine(self, tmp_path):
        check_cold_path(tmp_path / "BENCH_t.json")

    def test_refuses_store_directory(self, tmp_path):
        (tmp_path / "v1" / "objects").mkdir(parents=True)
        with pytest.raises(BenchColdPathError):
            check_cold_path(tmp_path / "BENCH_t.json")

    def test_refuses_current_schema_store_directory(self, tmp_path):
        from repro.service import STORE_SCHEMA_VERSION

        (tmp_path / f"v{STORE_SCHEMA_VERSION}" / "objects").mkdir(parents=True)
        with pytest.raises(BenchColdPathError):
            check_cold_path(tmp_path / "BENCH_t.json")

    def test_refuses_inside_store_tree(self, tmp_path):
        (tmp_path / "v1" / "objects").mkdir(parents=True)
        with pytest.raises(BenchColdPathError):
            check_cold_path(tmp_path / "v1" / "objects" / "BENCH_t.json")

    def test_refuses_journal_directory(self, tmp_path):
        (tmp_path / "jobs.journal.sqlite3").write_bytes(b"")
        with pytest.raises(BenchColdPathError):
            check_cold_path(tmp_path / "BENCH_t.json")

    def test_run_bench_refuses_before_measuring(self, tmp_path, monkeypatch):
        def exploding_suite(**kwargs):  # pragma: no cover - must not run
            raise AssertionError("measurement ran despite the cold-path guard")

        monkeypatch.setattr("repro.evaluation.perf.run_perf_suite", exploding_suite)
        (tmp_path / "jobs.journal.sqlite3").write_bytes(b"")
        with pytest.raises(BenchColdPathError):
            run_bench(tag="warm", root=tmp_path)

    def test_serve_refuses_bench_record_directory(self, tmp_path, capsys):
        (tmp_path / "BENCH_pr9.json").write_text("{}")
        assert main([
            "serve", "--port", "0", "--cache-dir", str(tmp_path),
        ]) == 2
        assert "BENCH_*.json" in capsys.readouterr().err
        assert main([
            "serve", "--port", "0",
            "--journal", str(tmp_path / "jobs.journal.sqlite3"),
        ]) == 2
