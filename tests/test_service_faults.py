"""Fault-injection and crash-recovery tests for the serving tier.

Everything here is marked ``faults`` and excluded from the default pytest
run (see pytest.ini): the suite injects failures, sleeps for pacing, and
the e2e actually ``SIGKILL``\\ s a live ``repro serve`` process — slow and
deliberately violent.  CI runs it as the dedicated ``service-recovery``
step: ``pytest -m faults tests/test_service_faults.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service import (
    JobState,
    LiftRequest,
    LiftingService,
    ServiceOverloadedError,
    make_server,
    serve_in_background,
)
from repro.service import faults
from repro.service.faults import (
    FaultError,
    TransientFault,
    read_event_log,
)

pytestmark = pytest.mark.faults

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.reset()
    yield
    faults.reset()


def _request(seed: int = 7, timeout: float = 30.0) -> LiftRequest:
    return LiftRequest(benchmark="darknet.copy_cpu", seed=seed, timeout=timeout)


# ---------------------------------------------------------------------- #
# The harness itself
# ---------------------------------------------------------------------- #
class TestHarness:
    def test_unarmed_fail_points_are_no_ops(self):
        assert not faults.active()
        faults.fail_point("oracle")  # must not raise
        assert faults.clock_skew() == 0.0

    def test_fail_spec_counts_down(self):
        faults.configure({"oracle": "fail2"})
        with pytest.raises(TransientFault):
            faults.fail_point("oracle")
        with pytest.raises(TransientFault):
            faults.fail_point("oracle")
        faults.fail_point("oracle")  # budget spent: no-op

    def test_fatal_spec_is_deterministic_kind(self):
        faults.configure({"oracle": "fatal1"})
        with pytest.raises(FaultError) as excinfo:
            faults.fail_point("oracle")
        assert not isinstance(excinfo.value, OSError)
        assert isinstance(TransientFault("x"), OSError)

    def test_unparseable_spec_is_rejected(self):
        with pytest.raises(ValueError):
            faults.configure({"oracle": "explodeZ"})

    def test_event_log_appends_jsonl(self, tmp_path):
        log = tmp_path / "events.jsonl"
        faults.configure({}, log_path=str(log))
        faults.log_event("unit.test", answer=42)
        events = read_event_log(str(log))
        assert len(events) == 1
        assert events[0]["event"] == "unit.test"
        assert events[0]["answer"] == 42
        assert events[0]["pid"] == os.getpid()

    def test_clock_skew_spec(self):
        faults.configure({"clock": "skew120"})
        assert faults.clock_skew() == 120.0


# ---------------------------------------------------------------------- #
# Injected failures through the real service
# ---------------------------------------------------------------------- #
class TestInjectedFailures:
    def test_transient_oracle_flake_is_retried_to_success(self, tmp_path):
        faults.configure({"oracle": "fail1"})
        service = LiftingService(cache_dir=tmp_path / "store", workers=1)
        try:
            job = service.submit(_request())
            assert job.wait(60)
            assert job.state is JobState.SUCCEEDED
            assert job.attempts == 2  # one flaked run + one clean run
            assert service.stats()["scheduler"]["retried"] == 1
            assert job.digest in service.store
        finally:
            service.close()

    def test_deterministic_fault_fails_without_retry(self, tmp_path):
        faults.configure({"oracle": "fatal1"})
        service = LiftingService(cache_dir=tmp_path / "store", workers=1)
        try:
            job = service.submit(_request())
            assert job.wait(60)
            assert job.state is JobState.FAILED
            assert job.attempts == 1
            assert "injected deterministic fault" in job.error
            assert service.stats()["scheduler"]["retried"] == 0
        finally:
            service.close()

    def test_store_write_flake_is_retried_in_place(self, tmp_path):
        faults.configure({"store.put": "fail1"})
        service = LiftingService(cache_dir=tmp_path / "store", workers=1)
        try:
            job = service.submit(_request())
            assert job.wait(60)
            assert job.state is JobState.SUCCEEDED
            assert service.stats()["scheduler"]["store_write_retries"] == 1
            assert job.digest in service.store  # the retry landed the write
        finally:
            service.close()


# ---------------------------------------------------------------------- #
# Admission control under synthetic overload
# ---------------------------------------------------------------------- #
class TestAdmissionControl:
    def _fill(self, service: LiftingService):
        """One running job + one queued job (workers=1, pacing fault)."""
        running = service.submit(_request(seed=1))
        deadline = time.time() + 10
        while time.time() < deadline and running.state is not JobState.RUNNING:
            time.sleep(0.01)
        assert running.state is JobState.RUNNING
        queued = service.submit(_request(seed=2))
        assert queued.state is JobState.QUEUED
        return running, queued

    def test_submissions_past_the_threshold_are_rejected(self, tmp_path):
        faults.configure({"execute": "sleep0.5"})
        service = LiftingService(
            cache_dir=tmp_path / "store", workers=1, max_queue_depth=1
        )
        try:
            running, queued = self._fill(service)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(_request(seed=3))
            assert excinfo.value.depth == 1
            assert excinfo.value.retry_after >= 1
            # Dedup attaches add no queue load: always admitted.
            attached = service.submit(_request(seed=2))
            assert attached.id == queued.id
            stats = service.stats()
            assert stats["rejected"] == 1
            assert stats["queue_depth"] == 1
            assert running.wait(30) and queued.wait(30)
        finally:
            service.close()

    def test_http_overload_is_429_with_retry_after(self, tmp_path):
        faults.configure({"execute": "sleep0.5"})
        server = make_server(
            port=0,
            cache_dir=tmp_path / "store",
            workers=1,
            max_queue_depth=1,
        )
        thread = serve_in_background(server)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        def post(payload):
            request = urllib.request.Request(
                f"{base}/submit",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return response.status, json.load(response)

        try:
            self._fill(server.service)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post({"benchmark": "darknet.copy_cpu", "seed": 3, "timeout": 30.0})
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["queue_depth"] == 1
            assert body["retry_after"] >= 1
            with urllib.request.urlopen(f"{base}/stats") as response:
                stats = json.load(response)
            assert stats["rejected"] == 1
        finally:
            server.shutdown()
            server.server_close()
            server.service.close()
            thread.join(5)


# ---------------------------------------------------------------------- #
# The crash e2e: kill -9 a live server, restart it, lose nothing
# ---------------------------------------------------------------------- #
class TestKillAndRestart:
    SEEDS = (1, 2, 3, 4)

    def _spawn(self, data_dir: Path, log_path: Path) -> tuple:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        # Pace every execution so the kill reliably lands mid-queue.
        env["REPRO_FAULTS"] = "execute=sleep0.4"
        env["REPRO_FAULT_LOG"] = str(log_path)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(data_dir / "store"),
                "--journal", str(data_dir / "data"),
                "--executor", "threads:1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        port = None
        deadline = time.time() + 30
        while time.time() < deadline:
            line = process.stdout.readline()
            if "listening on http://" in line:
                port = int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
                break
            if process.poll() is not None:
                raise AssertionError(f"serve died during startup: {line}")
        assert port is not None, "serve never reported its port"
        return process, f"http://127.0.0.1:{port}"

    def _post_json(self, url: str, payload: dict) -> dict:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.load(response)

    def _get_json(self, url: str) -> dict:
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.load(response)

    def test_sigkill_and_restart_loses_no_submissions(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        process, base = self._spawn(tmp_path, log_path)
        job_ids = {}
        try:
            for seed in self.SEEDS:
                body = self._post_json(
                    f"{base}/submit",
                    {"benchmark": "darknet.copy_cpu", "seed": seed,
                     "timeout": 30.0},
                )
                job_ids[seed] = body["job_id"]
            # Let at least one job finish, then SIGKILL mid-backlog.
            deadline = time.time() + 30
            while time.time() < deadline:
                stats = self._get_json(f"{base}/stats")
                if stats["scheduler"]["succeeded"] >= 1:
                    break
                time.sleep(0.1)
            assert stats["scheduler"]["succeeded"] >= 1
            assert stats["queue_depth"] >= 1  # backlog left to strand
        finally:
            process.kill()  # SIGKILL: no drain, no journal flush, no goodbye
            process.wait(10)

        process, base = self._spawn(tmp_path, log_path)
        try:
            # Every pre-crash submission reaches a terminal state.
            deadline = time.time() + 60
            pending = dict(job_ids)
            while pending and time.time() < deadline:
                for seed, job_id in list(pending.items()):
                    status = self._get_json(f"{base}/status/{job_id}")
                    if status["state"] in ("succeeded", "failed", "cancelled"):
                        assert status["state"] == "succeeded", status
                        del pending[seed]
                time.sleep(0.2)
            assert not pending, f"jobs stranded after restart: {pending}"
            stats = self._get_json(f"{base}/stats")
            assert stats["recovered"] >= 1
            # No digest was synthesized twice across the crash: at most one
            # non-cached successful completion per digest in the event log.
            completions = {}
            for event in read_event_log(str(log_path)):
                if (
                    event.get("event") == "job.finished"
                    and event.get("state") == "succeeded"
                    and not event.get("cached")
                ):
                    digest = event["digest"]
                    completions[digest] = completions.get(digest, 0) + 1
            assert completions, "no completions logged"
            assert all(count == 1 for count in completions.values()), completions
            # A resubmission after the dust settles is answered from the
            # store — the service remembers across the crash.
            body = self._post_json(
                f"{base}/submit",
                {"benchmark": "darknet.copy_cpu", "seed": self.SEEDS[0],
                 "timeout": 30.0},
            )
            assert body["cached"] is True
            # And the survivor shuts down gracefully on SIGTERM: exit 0.
            process.send_signal(signal.SIGTERM)
            assert process.wait(30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(10)
