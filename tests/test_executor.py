"""Tests for the unified execution-selection surface (`repro.lifting.executor`).

Covers the API contract: `ExecutionConfig` parsing and validation, the
cross-process `TokenBudget`, picklable pipeline state with loud per-field
errors, the `EvaluationRunner`'s execution mapping — and the
digest-exclusion regression test: the executor backend must never enter a
store digest.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from dataclasses import fields

import pytest

from repro.evaluation import EvaluationRunner
from repro.lifting import (
    ExecutionConfig,
    StatePicklingError,
    TokenBudget,
    ensure_picklable,
    method_spec,
    parse_executor_spec,
    resolve_method,
)
from repro.llm import OracleConfig, SyntheticOracle
from repro.service.digest import lift_digest
from repro.suite import get_benchmark, select


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


# ---------------------------------------------------------------------- #
# ExecutionConfig + spec parsing
# ---------------------------------------------------------------------- #
class TestExecutionConfig:
    def test_defaults_are_thread_backed(self):
        config = ExecutionConfig()
        assert config.backend == "threads"
        assert not config.uses_processes
        assert config.workers is None

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionConfig(backend="fibers")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ExecutionConfig(workers=0)

    def test_resolved_workers_explicit_and_ceiling(self):
        assert ExecutionConfig(workers=8).resolved_workers() == 8
        assert ExecutionConfig(workers=8).resolved_workers(ceiling=3) == 3
        # Machine-sized never collapses below one worker.
        assert ExecutionConfig().resolved_workers(ceiling=1) == 1

    def test_spec_round_trips_the_parser(self):
        for text in ("threads", "processes", "threads:3", "processes:4"):
            assert parse_executor_spec(text).spec() == text

    def test_config_is_picklable(self):
        config = ExecutionConfig(backend="processes", workers=4)
        assert pickle.loads(pickle.dumps(config)) == config


class TestParseExecutorSpec:
    def test_parses_bare_backends(self):
        assert parse_executor_spec("threads") == ExecutionConfig("threads")
        assert parse_executor_spec("processes") == ExecutionConfig("processes")

    def test_parses_worker_counts(self):
        assert parse_executor_spec("processes:4") == ExecutionConfig(
            "processes", workers=4
        )

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown executor backend 'gpu'"):
            parse_executor_spec("gpu")

    def test_rejects_non_integer_count(self):
        with pytest.raises(ValueError, match="invalid worker count 'many'"):
            parse_executor_spec("threads:many")

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            parse_executor_spec("processes:0")


# ---------------------------------------------------------------------- #
# TokenBudget: cancellation across the existing poll points
# ---------------------------------------------------------------------- #
class TestTokenBudget:
    def test_unset_token_behaves_like_plain_budget(self):
        token = multiprocessing.get_context().Event()
        budget = TokenBudget(60.0, token)
        assert not budget.expired()
        assert not budget.cancelled
        assert budget.remaining() > 0

    def test_set_token_expires_every_poll_primitive(self):
        token = multiprocessing.get_context().Event()
        budget = TokenBudget(60.0, token)
        token.set()
        assert budget.expired()
        assert budget.cancelled
        assert budget.remaining() == 0.0

    def test_timeout_still_applies_without_token(self):
        token = multiprocessing.get_context().Event()
        budget = TokenBudget(0.0, token)
        time.sleep(0.01)
        assert budget.expired()


# ---------------------------------------------------------------------- #
# Picklable pipeline state (PipelineState.fork products cross processes)
# ---------------------------------------------------------------------- #
class TestStatePickling:
    def _prepared_state(self):
        synthesizer = resolve_method("STAGG_TD", timeout_seconds=30.0)
        return synthesizer.prepare_state(_task())

    def test_prepared_state_round_trips(self):
        state = self._prepared_state()
        clone = pickle.loads(ensure_picklable(state))
        assert clone.task.name == state.task.name
        assert len(clone.templates) == len(state.templates)
        assert clone.dimension_list == state.dimension_list

    def test_every_field_of_a_fork_pickles(self):
        # The tentpole contract: every field a fork() product carries must
        # cross a process boundary.  Checked field by field so a future
        # unpicklable artifact fails with the field's name, not a generic
        # pickle backtrace.
        fork = self._prepared_state().fork()
        for spec in fields(fork):
            value = getattr(fork, spec.name)
            pickle.dumps(value)  # must not raise for any field

    def test_unpicklable_field_is_named_loudly(self):
        state = self._prepared_state()
        state.outcome = threading.Lock()  # classically unpicklable
        with pytest.raises(StatePicklingError) as excinfo:
            ensure_picklable(state)
        assert excinfo.value.field_name == "outcome"
        assert "outcome" in str(excinfo.value)
        assert "lock" in str(excinfo.value).lower()


# ---------------------------------------------------------------------- #
# EvaluationRunner: the execution surface
# ---------------------------------------------------------------------- #
class TestRunnerExecutionMapping:
    def _methods(self):
        oracle = SyntheticOracle(OracleConfig(seed=2025))
        return {"STAGG_TD": resolve_method("STAGG_TD", oracle=oracle, timeout_seconds=30.0)}

    def _benchmarks(self):
        return [b for b in select() if b.name == "darknet.copy_cpu"]

    def test_thread_backend_matches_sequential_outcomes(self):
        sequential = EvaluationRunner(self._methods(), self._benchmarks()).run()
        threaded = EvaluationRunner(
            self._methods(),
            self._benchmarks(),
            execution=ExecutionConfig("threads", workers=2),
        ).run()
        assert [(r.method, r.benchmark, r.solved) for r in sequential.records] == [
            (r.method, r.benchmark, r.solved) for r in threaded.records
        ]


# ---------------------------------------------------------------------- #
# Digest exclusion (satellite: the backend never enters a store digest)
# ---------------------------------------------------------------------- #
class TestDigestExclusion:
    @pytest.mark.parametrize(
        "method", ["LLM", "Portfolio(STAGG_TD,STAGG_BU)", "STAGG_TD"]
    )
    def test_backend_never_enters_store_digest(self, method):
        task = _task()
        digests = set()
        for execution in (
            None,
            ExecutionConfig("threads"),
            ExecutionConfig("processes", workers=2),
        ):
            lifter = resolve_method(method, timeout_seconds=30.0, execution=execution)
            digests.add(lift_digest(task, lifter.descriptor()))
        assert len(digests) == 1

    def test_portfolio_descriptor_has_no_execution_key(self):
        lifter = resolve_method(
            "Portfolio(STAGG_TD,STAGG_BU)",
            timeout_seconds=30.0,
            execution=ExecutionConfig("processes"),
        )
        rendered = repr(lifter.descriptor())
        assert "execution" not in rendered
        assert "processes" not in rendered


# ---------------------------------------------------------------------- #
# Registry surface: which methods support process backends
# ---------------------------------------------------------------------- #
class TestSupportsProcesses:
    def test_only_portfolios_support_processes(self):
        assert method_spec("Portfolio(STAGG_TD,STAGG_BU)").kind == "portfolio"
        assert method_spec("LLM").kind == "baseline"

    def test_plain_stagg_does_not(self):
        assert method_spec("STAGG_TD").kind == "stagg"

    def test_methods_json_reports_the_flag(self, capsys):
        import json as json_module

        from repro.cli import main

        assert main(["methods", "--json"]) == 0
        entries = json_module.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["LLM"]["supports_processes"] is False
        assert by_name["STAGG_TD"]["supports_processes"] is False
        assert by_name["Portfolio.Default"]["supports_processes"] is True

    def test_methods_json_flag_follows_kind_for_every_method(self, capsys):
        import json as json_module

        from repro.cli import main

        assert main(["methods", "--json"]) == 0
        entries = json_module.loads(capsys.readouterr().out)
        assert entries
        for entry in entries:
            expected = method_spec(entry["name"]).kind == "portfolio"
            assert entry["supports_processes"] is expected, entry["name"]
