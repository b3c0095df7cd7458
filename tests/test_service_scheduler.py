"""Tests for the service job scheduler: priorities, dedup, timeouts."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.result import SynthesisReport
from repro.lifting import LiftEvent
from repro.service import JobScheduler, JobState, ResultStore
from repro.service.scheduler import _JobObserver


def _report(name: str = "t", success: bool = True) -> SynthesisReport:
    return SynthesisReport(task_name=name, method="test", success=success)


class _Gate:
    """An executor whose first call blocks until released (single worker)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, payload, budget=None, observer=None):
        with self.lock:
            first = not self.calls
            self.calls.append(payload)
        if first:
            self.started.set()
            assert self.release.wait(10)
        return _report(str(payload))


class TestScheduling:
    def test_runs_a_job_to_completion(self):
        scheduler = JobScheduler(lambda payload, **_: _report(str(payload)), workers=1)
        try:
            job = scheduler.submit("x", digest="d1")
            assert job.wait(10)
            assert job.state is JobState.SUCCEEDED
            assert job.report.task_name == "x"
            assert not job.cached
        finally:
            scheduler.shutdown()

    def test_priority_orders_queued_jobs(self):
        gate = _Gate()
        scheduler = JobScheduler(gate, workers=1)
        try:
            blocker = scheduler.submit("blocker", digest="d0")
            assert gate.started.wait(10)
            # While the single worker is busy, queue in "wrong" order.
            low = scheduler.submit("low", digest="d-low", priority=5)
            high = scheduler.submit("high", digest="d-high", priority=1)
            gate.release.set()
            assert blocker.wait(10) and low.wait(10) and high.wait(10)
            assert gate.calls == ["blocker", "high", "low"]
        finally:
            scheduler.shutdown()

    def test_equal_priority_is_fifo(self):
        gate = _Gate()
        scheduler = JobScheduler(gate, workers=1)
        try:
            blocker = scheduler.submit("blocker", digest="d0")
            assert gate.started.wait(10)
            first = scheduler.submit("first", digest="d1")
            second = scheduler.submit("second", digest="d2")
            gate.release.set()
            assert blocker.wait(10) and first.wait(10) and second.wait(10)
            assert gate.calls == ["blocker", "first", "second"]
        finally:
            scheduler.shutdown()

    def test_inflight_duplicates_coalesce(self):
        gate = _Gate()
        scheduler = JobScheduler(gate, workers=1)
        try:
            job1 = scheduler.submit("same", digest="dup")
            assert gate.started.wait(10)
            job2 = scheduler.submit("same", digest="dup")
            assert job2 is job1
            assert job1.submissions == 2
            gate.release.set()
            assert job1.wait(10)
            assert gate.calls == ["same"]
            assert scheduler.stats()["deduplicated"] == 1
        finally:
            scheduler.shutdown()

    def test_store_answers_skip_the_queue(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("seen" * 16, _report("cached-task"))
        calls = []

        def executor(payload, budget=None, observer=None):
            calls.append(payload)
            return _report(str(payload))

        scheduler = JobScheduler(executor, store=store, workers=1)
        try:
            job = scheduler.submit("anything", digest="seen" * 16)
            assert job.state is JobState.SUCCEEDED
            assert job.cached
            assert job.report.task_name == "cached-task"
            assert calls == []
            assert scheduler.stats()["store_answers"] == 1
        finally:
            scheduler.shutdown()

    def test_completed_jobs_persist_to_store(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), store=store, workers=1
        )
        try:
            job = scheduler.submit("x", digest="ab" * 32)
            assert job.wait(10)
            assert ("ab" * 32) in store
        finally:
            scheduler.shutdown()

    def test_executor_exception_fails_the_job(self):
        def executor(payload, budget=None, observer=None):
            raise RuntimeError("kaboom")

        scheduler = JobScheduler(executor, workers=1)
        try:
            job = scheduler.submit("x", digest="dx")
            assert job.wait(10)
            assert job.state is JobState.FAILED
            assert "kaboom" in job.error
        finally:
            scheduler.shutdown()

    def test_executor_timeout_error_fails_cleanly_in_thread_mode(self):
        # concurrent.futures.TimeoutError is builtin TimeoutError on 3.11+;
        # an executor raising it must fail the job, not kill the worker and
        # wedge the digest in the in-flight set.
        def executor(payload, budget=None, observer=None):
            raise TimeoutError("oracle socket timed out")

        scheduler = JobScheduler(executor, workers=1)
        try:
            job = scheduler.submit("x", digest="dt")
            assert job.wait(10)
            assert job.state is JobState.FAILED
            assert "oracle socket timed out" in job.error
            # The worker survived and the digest was released: a fresh
            # submission with the same digest schedules a new job.
            follow_up = scheduler.submit("x", digest="dt")
            assert follow_up is not job
            assert follow_up.wait(10)
        finally:
            scheduler.shutdown()

    def test_transient_failures_retry_in_memory(self):
        calls = []

        def flaky(payload, budget=None, observer=None):
            calls.append(payload)
            if len(calls) < 2:
                raise OSError("socket flake")
            return _report(str(payload))

        scheduler = JobScheduler(flaky, workers=1)
        try:
            job = scheduler.submit("x", digest="dflake")
            assert job.wait(30)
            assert job.state is JobState.SUCCEEDED
            assert len(calls) == 2
            assert scheduler.stats()["retried"] == 1
        finally:
            scheduler.shutdown()

    def test_store_writes_ride_out_transient_failures(self, tmp_path):
        store = ResultStore(tmp_path)
        original_put = store.put
        failures = iter([OSError("disk hiccup")])

        def flaky_put(*args, **kwargs):
            for error in failures:
                raise error
            return original_put(*args, **kwargs)

        store.put = flaky_put
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), store=store, workers=1
        )
        try:
            job = scheduler.submit("x", digest="ab" * 32)
            assert job.wait(10)
            assert job.state is JobState.SUCCEEDED
            assert ("ab" * 32) in store
            assert scheduler.stats()["store_write_retries"] == 1
        finally:
            scheduler.shutdown()

    def test_jobs_are_evicted_beyond_retention(self):
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), workers=1, job_retention=3
        )
        try:
            jobs = [scheduler.submit(i, digest=f"d{i}") for i in range(6)]
            for job in jobs:
                assert job.wait(10)
            remembered = [j for j in jobs if scheduler.job(j.id) is not None]
            assert len(remembered) == 3
            assert remembered == jobs[-3:]  # newest terminal jobs survive
            stats = scheduler.stats()
            assert stats["succeeded"] == 6  # lifetime counters survive eviction
        finally:
            scheduler.shutdown()

    def test_cancel_queued_job(self):
        gate = _Gate()
        scheduler = JobScheduler(gate, workers=1)
        try:
            blocker = scheduler.submit("blocker", digest="d0")
            assert gate.started.wait(10)
            queued = scheduler.submit("queued", digest="dq")
            assert scheduler.cancel(queued.id)
            assert queued.state is JobState.CANCELLED
            gate.release.set()
            assert blocker.wait(10)
            time.sleep(0.1)
            assert "queued" not in gate.calls
            # Cancelled jobs cannot be cancelled twice, nor can finished ones.
            assert not scheduler.cancel(queued.id)
            assert not scheduler.cancel(blocker.id)
        finally:
            scheduler.shutdown()

    def test_evicted_jobs_leave_digest_crumbs(self):
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), workers=1, job_retention=1
        )
        try:
            jobs = [scheduler.submit(i, digest=f"dcrumb{i}") for i in range(3)]
            for job in jobs:
                assert job.wait(10)
            evicted = [j for j in jobs if scheduler.job(j.id) is None]
            assert evicted  # retention=1 must have evicted something
            for job in evicted:
                assert scheduler.evicted_digest(job.id) == job.digest
            assert scheduler.evicted_digest("job-never-existed") is None
        finally:
            scheduler.shutdown()

    def test_cancel_running_cooperative_job_beats_the_commit(self):
        release = threading.Event()
        started = threading.Event()

        def cooperative(payload, budget=None, observer=None):
            started.set()
            assert release.wait(10)
            # The pipeline's poll point: a cancelled budget stops the run.
            return _report(str(payload), success=False)

        scheduler = JobScheduler(cooperative, workers=1)
        try:
            job = scheduler.submit("x", digest="dcancel")
            assert started.wait(10)
            # Cancellation races _finish: here it lands while the job is
            # mid-run, so the commit point must observe the cancelled
            # budget and finish CANCELLED, never SUCCEEDED.
            assert scheduler.cancel(job.id)
            release.set()
            assert job.wait(10)
            assert job.state is JobState.CANCELLED
            assert scheduler.stats()["cancelled"] == 1
        finally:
            scheduler.shutdown()

    def test_cancel_refuses_once_the_report_is_committed(self, tmp_path):
        store = ResultStore(tmp_path)
        original_put = store.put
        writing = threading.Event()
        release = threading.Event()

        def slow_put(*args, **kwargs):
            writing.set()
            assert release.wait(10)
            return original_put(*args, **kwargs)

        store.put = slow_put

        def cooperative(payload, budget=None, observer=None):
            return _report(str(payload))

        scheduler = JobScheduler(cooperative, store=store, workers=1)
        try:
            job = scheduler.submit("x", digest="cd" * 32)
            assert writing.wait(10)
            # The job is still RUNNING (its store write is in flight) but
            # the report is committed: cancel() must refuse rather than
            # report a cancellation that cannot take effect.
            assert job.state is JobState.RUNNING
            assert not scheduler.cancel(job.id)
            release.set()
            assert job.wait(10)
            assert job.state is JobState.SUCCEEDED
            assert ("cd" * 32) in store
        finally:
            scheduler.shutdown()

    def test_lookup_and_status_dict(self):
        scheduler = JobScheduler(lambda payload, **_: _report(), workers=1)
        try:
            job = scheduler.submit("x", digest="dd" * 32)
            assert scheduler.job(job.id) is job
            assert scheduler.job("nope") is None
            assert job.wait(10)
            status = job.status_dict()
            assert status["id"] == job.id
            assert status["state"] == "succeeded"
            assert status["digest"] == "dd" * 32
        finally:
            scheduler.shutdown()

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            JobScheduler(lambda payload, **_: _report(), workers=0)

    def test_submit_after_shutdown_raises(self):
        scheduler = JobScheduler(lambda payload, **_: _report(), workers=1)
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.submit("x", digest="dz")


class TestJobStageField:
    """The live ``GET /status`` stage strings the job observer writes."""

    def _stages(self, *events):
        job = SimpleNamespace(stage="")
        observer = _JobObserver(job)
        seen = []
        for event in events:
            observer.emit(event)
            seen.append(job.stage)
        return seen

    def test_plain_lift_stages(self):
        assert self._stages(
            LiftEvent("stage_skipped", "k", attrs={"stage": "oracle"}),
            LiftEvent("stage_started", "k", attrs={"stage": "grammar"}),
            LiftEvent("stage_finished", "k", attrs={"stage": "grammar", "seconds": 0.1}),
            LiftEvent("search_progress", "k", attrs={"nodes_expanded": 512}),
        ) == ["oracle (cached)", "grammar", "grammar", "search:512"]

    def test_bracketed_task_name_is_not_a_member(self):
        assert self._stages(
            LiftEvent("stage_started", "k[STAGG_TD]", attrs={"stage": "search"}),
        ) == ["search"]

    def test_portfolio_race_stages(self):
        assert self._stages(
            LiftEvent("member_started", "k", "TD"),
            LiftEvent("stage_skipped", "k", "TD", attrs={"stage": "oracle"}),
            LiftEvent("stage_started", "k", "TD", attrs={"stage": "search"}),
            LiftEvent("search_progress", "k", "TD", attrs={"nodes_expanded": 1024}),
            LiftEvent("portfolio_winner", "k", "BU"),
            LiftEvent("member_cancelled", "k", "TD"),
        ) == [
            "portfolio:TD",
            "portfolio[TD]:oracle (shared)",
            "portfolio[TD]:search",
            "portfolio search:1024",
            "portfolio winner:BU",
            "portfolio:TD cancelled",
        ]
