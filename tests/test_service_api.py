"""Tests for the LiftingService API and warm-cache evaluation sweeps."""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import replace

import pytest
from test_digest_parity import EXTRA_METHODS as PARITY_EXTRA_METHODS
from test_digest_parity import KERNELS as PARITY_KERNELS

from repro.core.result import SynthesisReport
from repro.core.synthesizer import synthesis_invocations
from repro.evaluation import EvaluationRunner, save_json, standard_methods
from repro.lifting import Budget, ExecutionConfig, method_names, method_spec, register_method
from repro.lifting.registry import _REGISTRY  # white-box: registration table
from repro.lifting.observer import CompositeObserver, LiftObserver
from repro.llm import OracleConfig, SyntheticOracle
from repro.obs import load_trace
from repro.obs import trace as obs_trace
from repro.obs.report import build_forest
from repro.service import LiftRequest, LiftingService, ServiceError, resolve_task
from repro.service import api
from repro.service.digest import lift_digest
from repro.service.scheduler import JobState
from repro.taco import parser as taco_parser
from repro.suite import all_benchmarks


# ---------------------------------------------------------------------- #
# LiftRequest
# ---------------------------------------------------------------------- #
class TestLiftRequest:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ServiceError):
            LiftRequest()
        with pytest.raises(ServiceError):
            LiftRequest(benchmark="mathfu.dot", c_source="void f() {}")

    def test_payload_round_trip(self):
        request = LiftRequest(
            benchmark="mathfu.dot", timeout=30.0, priority=2, search="bottomup"
        )
        assert LiftRequest.from_payload(request.to_payload()) == request

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            LiftRequest.from_payload({"benchmark": "mathfu.dot", "bogus": 1})

    def test_unknown_benchmark_rejected_at_resolution(self):
        with pytest.raises(ServiceError, match="no benchmark named"):
            resolve_task(LiftRequest(benchmark="nope.nope"))

    def test_raw_kernel_task_resolution(self):
        benchmark = all_benchmarks()[0]
        request = LiftRequest(
            c_source=benchmark.c_source,
            name="adhoc",
            reference=benchmark.ground_truth,
            spec={
                "sizes": dict(benchmark.spec.sizes),
                "arrays": {k: list(v) for k, v in benchmark.spec.arrays.items()},
            },
        )
        task = resolve_task(request)
        assert task.name == "adhoc"
        assert task.reference_solution == benchmark.ground_truth


# ---------------------------------------------------------------------- #
# LiftingService
# ---------------------------------------------------------------------- #
class TestLiftingService:
    def test_submit_and_result(self, tmp_path):
        with LiftingService(cache_dir=tmp_path, workers=2) as service:
            request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
            job = service.submit(request)
            assert job.wait(60)
            result = service.result(job.id)
            assert result["state"] == "succeeded"
            assert result["report"]["success"] is True

    def test_second_submission_served_from_store(self, tmp_path):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        with LiftingService(cache_dir=tmp_path, workers=2) as service:
            first = service.submit(request)
            assert first.wait(60)
            invocations = synthesis_invocations()
            second = service.submit(request)
            assert second.wait(10)
            # Answered from the content-addressed store: no synthesis ran.
            assert synthesis_invocations() == invocations
            assert second.cached
            assert second.report.to_json_dict() == first.report.to_json_dict()
            stats = service.stats()
            assert stats["scheduler"]["store_answers"] == 1
            assert stats["store"]["hits"] >= 1

    def test_store_survives_service_restart(self, tmp_path):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        with LiftingService(cache_dir=tmp_path, workers=1) as service:
            job = service.submit(request)
            assert job.wait(60)
        invocations = synthesis_invocations()
        with LiftingService(cache_dir=tmp_path, workers=1) as service:
            job = service.submit(request)
            assert job.wait(10)
            assert job.cached
            assert synthesis_invocations() == invocations

    def test_batch_submission(self, tmp_path):
        requests = [
            LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0),
            LiftRequest(benchmark="mathfu.dot", timeout=30.0),
        ]
        with LiftingService(cache_dir=tmp_path, workers=2) as service:
            jobs = service.submit_batch(requests)
            assert len(jobs) == 2
            for job in jobs:
                assert job.wait(60)
                assert job.report.success

    def test_invalid_request_fails_fast(self, tmp_path):
        with LiftingService(cache_dir=tmp_path, workers=1) as service:
            with pytest.raises(ServiceError):
                service.submit(LiftRequest(benchmark="nope.nope"))

    def test_raw_kernel_without_reference_rejected_at_submit(self, tmp_path):
        benchmark = all_benchmarks()[0]
        request = LiftRequest(c_source=benchmark.c_source, timeout=10.0)
        with LiftingService(cache_dir=tmp_path, workers=1) as service:
            with pytest.raises(ServiceError, match="reference"):
                service.submit(request)

    def test_default_timeout_applied_and_digested(self, tmp_path):
        # A request without a timeout inherits the service default, which
        # becomes part of its content address (different defaults -> no
        # cross-talk between entries produced under different budgets).
        request = LiftRequest(benchmark="darknet.copy_cpu")
        with LiftingService(
            cache_dir=tmp_path, workers=1, default_timeout=30.0
        ) as service:
            job = service.submit(request)
            assert job.timeout == 30.0
            assert job.wait(60)
            assert job.report.success

    def test_status_for_unknown_job(self, tmp_path):
        with LiftingService(cache_dir=tmp_path, workers=1) as service:
            assert service.status("job-999999-deadbeef") is None
            assert service.result("job-999999-deadbeef") is None


# ---------------------------------------------------------------------- #
# Store replays: one digest per payload, programs decoded once
# ---------------------------------------------------------------------- #
def _unlifted(request, **_kwargs):
    """An executor that answers without lifting (digests are all we test)."""
    return SynthesisReport(
        task_name=request.benchmark or "kernel", method="stub", success=False
    )


@pytest.fixture
def digest_only_service(monkeypatch):
    # The service binds ``api.execute_request`` when it is constructed.
    monkeypatch.setattr(api, "execute_request", _unlifted)
    with LiftingService(workers=1) as service:
        yield service


def _uncached_digest(request):
    return lift_digest(resolve_task(request), api.build_lifter(request).descriptor())


def _counting(monkeypatch, target, name):
    calls = []
    original = getattr(target, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    return calls


class TestReplayMemo:
    def test_memoized_digests_equal_uncached_digests(self, digest_only_service):
        for method in (*method_names(), *PARITY_EXTRA_METHODS):
            for kernel in PARITY_KERNELS:
                request = LiftRequest(benchmark=kernel, method=method, timeout=30.0)
                first = digest_only_service.submit(request)
                second = digest_only_service.submit(request)  # from the memo
                expected = _uncached_digest(request)
                assert first.digest == second.digest == expected, (kernel, method)

    def test_memo_hit_resolves_no_method(self, digest_only_service, monkeypatch):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        digest_only_service.submit(request).wait(10)
        resolved = _counting(monkeypatch, api, "resolve_method")
        digest_only_service.submit(request).wait(10)
        assert resolved == []

    def test_rebinding_a_method_changes_the_next_digest(self, digest_only_service):
        name = "Test.Rebound"
        register_method(name, method_spec("STAGG_TD").factory)
        try:
            request = LiftRequest(benchmark="darknet.copy_cpu", method=name, timeout=30.0)
            before = digest_only_service.submit(request).digest
            register_method(name, method_spec("STAGG_BU").factory, replace=True)
            after = digest_only_service.submit(request).digest
        finally:
            _REGISTRY.pop(name, None)
        assert before != after
        assert after == lift_digest(
            resolve_task(request),
            api.build_lifter(replace(request, method="STAGG_BU")).descriptor(),
        )

    def test_a_refused_request_is_never_memoized(self, digest_only_service, monkeypatch):
        digested = _counting(monkeypatch, api, "request_digest")
        refused = LiftRequest(benchmark="nope.nope", timeout=30.0)
        for _ in range(2):
            with pytest.raises(ServiceError):
                digest_only_service.submit(refused)
        assert len(digested) == 2
        good = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        for _ in range(2):
            digest_only_service.submit(good).wait(10)
        assert len(digested) == 3

    def test_second_replay_resolves_and_lexes_nothing(self, tmp_path, monkeypatch):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        with LiftingService(
            cache_dir=tmp_path / "store", journal=tmp_path / "journal.sqlite",
            workers=1,
        ) as service:
            cold = service.submit(request)
            assert cold.wait(60) and cold.report.success
            first = service.submit(request)
            assert first.cached
            resolved = _counting(monkeypatch, api, "resolve_method")
            lexed = _counting(monkeypatch, taco_parser, "tokenize")
            second = service.submit(request)
            assert second.cached
            assert resolved == [] and lexed == []
            # The store is still read, and counted, on every replay.
            assert service.stats()["store"]["hits"] == 2
        assert second.report == first.report
        assert second.report.to_json_dict() == cold.report.to_json_dict()


# ---------------------------------------------------------------------- #
# --executor on the service: scheduler threads + the method's backend
# ---------------------------------------------------------------------- #
PORTFOLIO = "Portfolio(STAGG_TD,STAGG_BU)"
PROCESSES = ExecutionConfig("processes", workers=2)


class _RaceProbe(LiftObserver):
    """Snapshot the job's live stage each time a portfolio member starts."""

    def __init__(self, job, racing: threading.Event) -> None:
        self._job = job
        self._racing = racing
        self.stages = []

    def emit(self, event) -> None:
        if event.name == "member_started":
            self.stages.append(self._job.status_dict().get("stage", ""))
            self._racing.set()


class _RaceSpy:
    """Records what the service's executor was handed, per run."""

    def __init__(self) -> None:
        self.calls = []
        self.probes = []
        self.racing = threading.Event()
        self.jobs = []
        self.handed = threading.Event()

    def submitted(self, job) -> None:
        self.jobs.append(job)
        self.handed.set()


@pytest.fixture
def race_spy(monkeypatch):
    """Wrap ``execute_request`` (before a service is built) to watch jobs.

    The wrapped executor holds each run until the test hands it the job
    (``spy.submitted(job)``), so the probe can read the job's live stage
    without any timing assumption.
    """
    real = api.execute_request
    spy = _RaceSpy()

    def spying(request, budget=None, observer=None, **bound):
        assert spy.handed.wait(30)
        probe = _RaceProbe(spy.jobs[-1], spy.racing)
        spy.calls.append({"budget": budget, **bound})
        spy.probes.append(probe)
        return real(
            request, budget=budget, observer=CompositeObserver(observer, probe),
            **bound,
        )

    monkeypatch.setattr(api, "execute_request", spying)
    return spy


class TestServiceExecution:
    def test_digest_ignores_the_execution_backend(self, tmp_path):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        jobs = []
        for execution in (None, ExecutionConfig("threads", 2), PROCESSES):
            with LiftingService(cache_dir=tmp_path, execution=execution) as service:
                job = service.submit(request)
                assert job.wait(60)
                jobs.append(job)
        assert {job.digest for job in jobs} == {api.request_digest(request)}
        # The processes service answers from the threads service's store.
        assert [job.cached for job in jobs] == [False, True, True]

    def test_process_portfolio_job_is_budgeted_and_staged(self, tmp_path, race_spy):
        request = LiftRequest(benchmark="darknet.copy_cpu", method=PORTFOLIO, timeout=60.0)
        with LiftingService(cache_dir=tmp_path, execution=PROCESSES) as service:
            job = service.submit(request)
            race_spy.submitted(job)
            assert job.wait(120)
            assert service.scheduler.worker_count == 2
        assert job.state is JobState.SUCCEEDED and job.report.success
        (call,) = race_spy.calls
        assert isinstance(call["budget"], Budget)
        assert call["execution"] == PROCESSES
        stages = race_spy.probes[0].stages
        assert stages and all(stage.startswith("portfolio:") for stage in stages)

    def test_cancel_running_process_portfolio(self, tmp_path, race_spy):
        # Neither member lifts rmsnorm_sum_squares from this candidate, and
        # STAGG_TD needs over a second to exhaust its search, so the race is
        # still running when cancelled.
        request = LiftRequest(
            benchmark="llama.rmsnorm_sum_squares",
            candidates=("a = Const",),
            method=PORTFOLIO,
            timeout=120.0,
        )
        with LiftingService(cache_dir=tmp_path, execution=PROCESSES) as service:
            job = service.submit(request)
            race_spy.submitted(job)
            assert race_spy.racing.wait(60)
            assert service.scheduler.cancel(job.id)
            assert job.wait(60)
            assert job.state is JobState.CANCELLED
            assert job.digest not in service.store
            assert len(service.store) == 0
        assert multiprocessing.active_children() == []

    def test_job_span_parents_process_member_spans(self, tmp_path):
        obs_trace.reset()
        path = tmp_path / "svc.jsonl"
        obs_trace.configure(path)
        try:
            request = LiftRequest(benchmark="darknet.copy_cpu", method=PORTFOLIO, timeout=60.0)
            with LiftingService(execution=PROCESSES) as service:
                job = service.submit(request)
                assert job.wait(120)
        finally:
            obs_trace.reset()
        (trace,) = [t for t in build_forest(load_trace(path)) if t.trace_id == job.id]
        (root,) = trace.roots
        assert root.name == "job"
        (lift,) = [c for c in root.children if c.name == "lift"]
        # Forwarded member events: both members hang directly under the
        # job's lift span, each with its (resumed) stages.
        members = [c for c in lift.children if c.name.startswith("member:")]
        assert {m.name for m in members} == {"member:STAGG_TD", "member:STAGG_BU"}
        assert all(
            any(c.name.startswith("stage:") for c in m.children) for m in members
        )


# ---------------------------------------------------------------------- #
# Warm-cache evaluation sweeps (the acceptance-criteria contract)
# ---------------------------------------------------------------------- #
class TestWarmCacheEvaluation:
    def _methods(self):
        return standard_methods(
            oracle=SyntheticOracle(OracleConfig()),
            timeout_seconds=10.0,
            include=["STAGG_TD", "C2TACO"],
        )

    def test_warm_sweep_is_byte_identical_and_skips_synthesis(self, tmp_path):
        benchmarks = all_benchmarks()[::25]
        cache = tmp_path / "store"
        cold = EvaluationRunner(self._methods(), benchmarks, cache_dir=cache).run()
        save_json(cold, tmp_path / "cold.json")
        invocations = synthesis_invocations()
        warm = EvaluationRunner(self._methods(), benchmarks, cache_dir=cache).run()
        save_json(warm, tmp_path / "warm.json")
        # The warmed store answers every STAGG cell without synthesis runs.
        assert synthesis_invocations() == invocations
        # Byte-identical records: recorded timings and outcomes replay.
        assert (tmp_path / "warm.json").read_bytes() == (
            tmp_path / "cold.json"
        ).read_bytes()

    def test_cache_off_matches_cache_on_outcomes(self, tmp_path):
        benchmarks = all_benchmarks()[::40]
        plain = EvaluationRunner(self._methods(), benchmarks).run()
        cached = EvaluationRunner(
            self._methods(), benchmarks, cache_dir=tmp_path / "store"
        ).run()
        assert [
            (r.method, r.benchmark, r.solved, r.report.lifted_source)
            for r in plain.records
        ] == [
            (r.method, r.benchmark, r.solved, r.report.lifted_source)
            for r in cached.records
        ]
