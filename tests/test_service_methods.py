"""Service-level tests for registry-resolved methods and cooperative budgets.

PR 3's acceptance criteria live here: the HTTP ``/submit`` endpoint accepts
*any* registered method name (baselines included — the service could
previously only serve STAGG), and a deadline-budgeted job that times out
stops the synthesis **cooperatively** — no orphaned full-length run keeps
burning a worker thread, asserted via ``synthesis_invocations()`` plus an
elapsed-time bound.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.result import SynthesisReport
from repro.core.synthesizer import synthesis_invocations
from repro.lifting import Budget, method_names
from repro.service import LiftRequest, LiftingService, make_server, serve_in_background
from repro.service.api import ServiceError, method_name
from repro.service.scheduler import JobScheduler, JobState


# ---------------------------------------------------------------------- #
# LiftingService: method-name requests
# ---------------------------------------------------------------------- #
class TestServiceMethods:
    def test_request_method_name_resolution(self):
        assert method_name(LiftRequest(benchmark="mathfu.dot")) == "STAGG_TD"
        assert (
            method_name(LiftRequest(benchmark="mathfu.dot", search="bottomup"))
            == "STAGG_BU"
        )
        assert (
            method_name(LiftRequest(benchmark="mathfu.dot", method="C2TACO"))
            == "C2TACO"
        )

    def test_method_field_round_trips_through_payload(self):
        request = LiftRequest(benchmark="mathfu.dot", method="Tenspiler")
        assert LiftRequest.from_payload(request.to_payload()).method == "Tenspiler"

    @pytest.mark.parametrize("name", ["C2TACO", "Tenspiler", "LLM", "STAGG_BU"])
    def test_service_serves_baselines_and_stagg_by_name(self, name):
        with LiftingService(workers=1) as service:
            job = service.submit(
                LiftRequest(benchmark="darknet.copy_cpu", method=name, timeout=30.0)
            )
            assert job.wait(60.0)
            assert job.state is JobState.SUCCEEDED, job.error
            assert job.report.method == name
            assert job.report.success

    def test_unknown_method_rejected_at_submit(self):
        with LiftingService(workers=1) as service:
            with pytest.raises(ServiceError, match="unknown lifting method"):
                service.submit(
                    LiftRequest(benchmark="mathfu.dot", method="NoSuchMethod")
                )

    def test_different_methods_get_different_digests(self, tmp_path):
        with LiftingService(cache_dir=tmp_path / "store", workers=1) as service:
            stagg = service.submit(
                LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
            )
            baseline = service.submit(
                LiftRequest(
                    benchmark="darknet.copy_cpu", method="C2TACO", timeout=30.0
                )
            )
            assert stagg.digest != baseline.digest
            assert stagg.wait(60.0) and baseline.wait(60.0)

    def test_stage_timings_served_for_stagg_jobs(self):
        with LiftingService(workers=1) as service:
            job = service.submit(
                LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
            )
            assert job.wait(60.0)
            timings = job.report.details["stage_timings"]
            assert sorted(timings) == sorted(
                ["oracle", "templatize", "dimension", "grammar", "search"]
            )


# ---------------------------------------------------------------------- #
# Cooperative budgets in the scheduler
# ---------------------------------------------------------------------- #
#: A lift whose unbudgeted run is effectively unbounded: the FullGrammar
#: search space over these misleading rank-2 candidates has no solution
#: the search can reach quickly (see tests/test_lifting_budget.py).
HARD_REQUEST_FIELDS = dict(
    benchmark="dsp.mat_mult",
    method="STAGG_TD.FullGrammar",
    candidates=(
        "a(i,j) = b(i,k) * c(k,j) + d(i,j)",
        "a(i,j) = b(i,j) + c(i,j) + d(i,j)",
    ),
)


class TestCooperativeTimeout:
    def test_deadline_budgeted_job_stops_cooperatively(self):
        """The acceptance check: a timed-out job leaves no orphaned run."""
        with LiftingService(workers=1, default_timeout=60.0) as service:
            before = synthesis_invocations()
            started = time.monotonic()
            job = service.submit(LiftRequest(timeout=0.5, **HARD_REQUEST_FIELDS))
            assert job.wait(30.0), "job never reached a terminal state"
            elapsed = time.monotonic() - started
            # The job terminated near its 0.5s budget — far below the
            # unbudgeted runtime — and the worker thread is free again.
            assert elapsed < 10.0
            assert job.state is JobState.SUCCEEDED
            assert job.report.timed_out and not job.report.success
            # Exactly one synthesis run started, and none is still running:
            # the counter is stable after the job finished.
            assert synthesis_invocations() == before + 1
            time.sleep(0.2)
            assert synthesis_invocations() == before + 1

    def test_thread_mode_jobs_carry_budgets(self):
        with LiftingService(workers=1) as service:
            job = service.submit(
                LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
            )
            assert job.wait(60.0)
            assert job.budget is not None
            assert job.budget.timeout_seconds == 30.0

    def test_running_job_cancelled_cooperatively(self, tmp_path):
        store_dir = tmp_path / "store"
        with LiftingService(cache_dir=store_dir, workers=1) as service:
            job = service.submit(LiftRequest(timeout=120.0, **HARD_REQUEST_FIELDS))
            deadline = time.monotonic() + 10.0
            while job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            assert service.scheduler.cancel(job.id)
            assert job.wait(30.0)
            assert job.state is JobState.CANCELLED
            # A cancelled run's truncated report must never poison the
            # content-addressed store.
            assert len(service.store) == 0

    def test_stage_is_live_while_running_and_cleared_when_terminal(self):
        with LiftingService(workers=1) as service:
            job = service.submit(LiftRequest(timeout=30.0, **HARD_REQUEST_FIELDS))
            deadline = time.monotonic() + 10.0
            live_stage = ""
            while time.monotonic() < deadline:
                live_stage = job.status_dict().get("stage", "")
                if live_stage:
                    break
                time.sleep(0.005)
            assert live_stage, "no live stage observed while the job ran"
            assert service.scheduler.cancel(job.id)
            assert job.wait(30.0)
            assert "stage" not in job.status_dict()

    def test_queued_job_cancel_still_works(self):
        scheduler = JobScheduler(lambda payload, **_: SynthesisReport("t", "m", False))
        try:
            # Stall the single worker...
            blocker = Budget()

            def slow(payload, budget=None, observer=None):
                while not blocker.expired():
                    time.sleep(0.01)
                return SynthesisReport("t", "m", False)

            scheduler._executor = slow  # noqa: SLF001 - direct worker control
            first = scheduler.submit({"n": 1}, "digest-1")
            queued = scheduler.submit({"n": 2}, "digest-2")
            assert scheduler.cancel(queued.id)
            assert queued.state is JobState.CANCELLED
            blocker.cancel()
            assert first.wait(10.0)
        finally:
            scheduler.shutdown()


class TestBudgetStoreInteraction:
    """Budget-truncated reports must never become a digest's stored answer.

    Budgets are per-invocation and deliberately excluded from the store
    digest, so a report cut short by a budget would poison the cache for
    budget-free callers if it were written.
    """

    def test_cached_lifter_does_not_store_budget_expired_reports(self, tmp_path):
        from repro.lifting import resolve_method
        from repro.service.store import CachedLifter
        from repro.suite import get_benchmark

        task = get_benchmark("mathfu.dot").task()
        cached = CachedLifter(
            resolve_method("STAGG_TD", timeout_seconds=30.0), tmp_path / "store"
        )
        truncated = cached.lift(task, budget=Budget(timeout_seconds=0.0))
        assert truncated.timed_out and not truncated.success
        assert len(cached.store) == 0
        # A budget-free caller re-runs synthesis and gets the real answer...
        full = cached.lift(task)
        assert full.success
        # ...which IS the digest's answer and is stored for replay.
        assert len(cached.store) == 1
        assert cached.lift(task).success

    def test_service_stores_and_replays_budget_timed_out_jobs(self, tmp_path):
        # The service path is different: the job's budget equals the request
        # timeout, which IS part of the digest, so a budget-driven timeout
        # is that digest's deterministic answer and must replay from the
        # store (the warm-replay contract from PR 2).
        with LiftingService(cache_dir=tmp_path / "store", workers=1) as service:
            job = service.submit(LiftRequest(timeout=0.3, **HARD_REQUEST_FIELDS))
            assert job.wait(30.0)
            assert job.state is JobState.SUCCEEDED
            assert job.report.timed_out
            assert len(service.store) == 1
            replay = service.submit(LiftRequest(timeout=0.3, **HARD_REQUEST_FIELDS))
            assert replay.wait(30.0)
            assert replay.cached
            assert replay.report.timed_out


# ---------------------------------------------------------------------- #
# HTTP: method names end to end
# ---------------------------------------------------------------------- #
@pytest.fixture()
def server(tmp_path):
    server = make_server(port=0, cache_dir=tmp_path / "store", workers=2)
    thread = serve_in_background(server)
    yield server
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(5)


def _base(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(server, path: str):
    with urllib.request.urlopen(_base(server) + path) as response:
        return response.status, json.load(response)


def _post(server, path: str, payload):
    request = urllib.request.Request(
        _base(server) + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.load(response)


class TestHTTPMethodNames:
    @pytest.mark.parametrize("name", ["C2TACO", "Tenspiler", "STAGG_BU"])
    def test_submit_accepts_any_registered_method(self, server, name):
        status, body = _post(
            server,
            "/submit",
            {"benchmark": "darknet.copy_cpu", "method": name, "timeout": 30.0},
        )
        assert status == 202
        status, result = _get(server, f"/result/{body['job_id']}?wait=60")
        assert status == 200
        report = SynthesisReport.from_json_dict(result["report"])
        assert report.method == name
        assert report.success

    def test_every_registered_name_is_accepted_at_submit(self, server):
        # Submission-time validation resolves the method for the digest, so
        # every registry name must be accepted (runs are not awaited here).
        for name in method_names():
            status, body = _post(
                server,
                "/submit",
                {"benchmark": "darknet.copy_cpu", "method": name, "timeout": 5.0},
            )
            assert status == 202, name

    def test_unknown_method_is_http_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                server,
                "/submit",
                {"benchmark": "mathfu.dot", "method": "NoSuchMethod"},
            )
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert "unknown lifting method" in body["error"]

    def test_terminal_status_drops_the_live_stage_field(self, server):
        status, body = _post(
            server,
            "/submit",
            {"benchmark": "darknet.copy_cpu", "timeout": 30.0},
        )
        assert status == 202
        status, result = _get(server, f"/result/{body['job_id']}?wait=60")
        assert status == 200
        status, job_status = _get(server, f"/status/{body['job_id']}")
        # The stage field reports *live* progress only; once the job is
        # terminal, the state is the authority and the stage is dropped.
        assert job_status["state"] == "succeeded"
        assert "stage" not in job_status
