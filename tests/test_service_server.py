"""End-to-end tests for the HTTP serving layer.

These start a real ``ThreadingHTTPServer`` on an ephemeral port and drive
it with ``urllib`` — the same path ``repro submit`` uses — so they cover
request parsing, job scheduling, store round-trips and error statuses.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.result import SynthesisReport
from repro.core.synthesizer import synthesis_invocations
from repro.service import make_server, serve_in_background


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


def _submit_and_wait(server, payload, wait: float = 60.0):
    status, body = _post(server, "/submit", payload)
    assert status == 202
    status, result = _get(server, f"/result/{body['job_id']}?wait={wait:g}")
    assert status == 200
    return body, result


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200 and body["ok"] is True
        # The liveness probe doubles as the backlog gauge.
        assert body["queue_depth"] == 0
        assert "oldest_queued_age" in body

    def test_healthz_carries_provenance(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["uptime_seconds"] >= 0
        assert body["version"]
        assert "git_sha" in body  # None outside a git checkout, hex inside

    def test_metrics_endpoint(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0}
        _submit_and_wait(server, payload)
        with urllib.request.urlopen(_base(server) + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_jobs_finished_total counter" in text
        assert 'repro_jobs_finished_total{state="succeeded"} 1' in text
        # Job latency is a histogram with the full bucket ladder.
        assert "# TYPE repro_job_duration_seconds histogram" in text
        assert 'repro_job_duration_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_job_duration_seconds_count 1" in text
        assert "repro_job_queue_wait_seconds_count 1" in text
        assert "repro_queue_depth 0" in text
        assert "repro_service_uptime_seconds" in text

    def test_metrics_and_stats_cannot_drift(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0}
        _submit_and_wait(server, payload)
        _submit_and_wait(server, payload, wait=10.0)  # store answer
        _, stats = _get(server, "/stats")
        with urllib.request.urlopen(_base(server) + "/metrics") as response:
            text = response.read().decode("utf-8")
        metrics = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            key, _, value = line.rpartition(" ")
            metrics[key] = float(value)
        # /stats is re-backed by the same registry cells /metrics renders.
        assert metrics["repro_requests_submitted_total"] == stats["submitted"]
        assert metrics["repro_requests_rejected_total"] == stats["rejected"]
        scheduler = stats["scheduler"]
        assert metrics['repro_jobs_finished_total{state="succeeded"}'] == (
            scheduler["succeeded"]
        )
        assert metrics["repro_jobs_store_answers_total"] == (
            scheduler["store_answers"]
        )
        assert metrics["repro_store_hits"] == stats["store"]["hits"]

    def test_submit_result_round_trip(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0}
        submission, result = _submit_and_wait(server, payload)
        assert result["state"] == "succeeded"
        report = SynthesisReport.from_json_dict(result["report"])
        assert report.success
        assert report.lifted_source  # a verified lifted program came back
        # The verified result landed in the content-addressed store.
        store = server.service.store
        assert len(store) == 1
        entry = store.get(result["digest"])
        assert entry.report.to_json_dict() == report.to_json_dict()

    def test_second_submission_answered_from_store(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0}
        _, first = _submit_and_wait(server, payload)
        invocations = synthesis_invocations()
        submission, second = _submit_and_wait(server, payload, wait=10.0)
        assert submission["cached"] is True
        assert synthesis_invocations() == invocations  # store hit, no synthesis
        assert second["report"] == first["report"]
        status, stats = _get(server, "/stats")
        assert stats["scheduler"]["store_answers"] >= 1
        assert stats["store"]["hits"] >= 1

    def test_status_endpoint(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0}
        submission, _ = _submit_and_wait(server, payload)
        status, body = _get(server, f"/status/{submission['job_id']}")
        assert status == 200
        assert body["state"] == "succeeded"
        assert body["success"] is True

    def test_batch_endpoint(self, server):
        payloads = [
            {"benchmark": "darknet.copy_cpu", "timeout": 30.0},
            {"benchmark": "mathfu.dot", "timeout": 30.0},
        ]
        status, body = _post(server, "/batch", {"requests": payloads})
        assert status == 202
        assert len(body["jobs"]) == 2
        for job in body["jobs"]:
            status, result = _get(server, f"/result/{job['job_id']}?wait=60")
            assert status == 200
            assert result["report"]["success"] is True


class TestLegacyTripleDeprecation:
    """Golden coverage for the deprecated search/grammar/probabilities triple."""

    def test_legacy_triple_golden_advisory(self, server):
        payload = {
            "benchmark": "darknet.copy_cpu",
            "timeout": 30.0,
            "search": "bottomup",
            "grammar": "full",
            "probabilities": "equal",
        }
        status, body = _post(server, "/submit", payload)
        assert status == 202
        # Golden: the advisory names exactly the fields sent and the
        # registry method string that replaces them.
        assert body["deprecated"] == {
            "fields": ["search", "grammar", "probabilities"],
            "method": "STAGG_BU.FullGrammar",
            "note": (
                "the search/grammar/probabilities triple is deprecated; "
                'pass the registry "method" string instead'
            ),
        }
        # The job itself still runs to the same result as a modern request.
        status, result = _get(server, f"/result/{body['job_id']}?wait=60")
        assert status == 200

    def test_partial_triple_names_only_sent_fields(self, server):
        payload = {"benchmark": "darknet.copy_cpu", "timeout": 30.0, "search": "topdown"}
        status, body = _post(server, "/submit", payload)
        assert status == 202
        assert body["deprecated"]["fields"] == ["search"]
        assert body["deprecated"]["method"] == "STAGG_TD"

    def test_modern_method_payload_has_no_advisory(self, server):
        payload = {
            "benchmark": "darknet.copy_cpu",
            "timeout": 30.0,
            "method": "STAGG_BU.FullGrammar",
        }
        status, body = _post(server, "/submit", payload)
        assert status == 202
        assert "deprecated" not in body

    def test_method_wins_over_stray_triple_fields(self, server):
        payload = {
            "benchmark": "darknet.copy_cpu",
            "timeout": 30.0,
            "method": "STAGG_TD",
            "search": "bottomup",
        }
        status, body = _post(server, "/submit", payload)
        assert status == 202
        assert "deprecated" not in body


class TestErrorStatuses:
    def _expect_http_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return json.loads(excinfo.value.read().decode("utf-8"))

    def test_unknown_endpoint_404(self, server):
        self._expect_http_error(lambda: _get(server, "/nope"), 404)

    def test_unknown_job_404(self, server):
        body = self._expect_http_error(
            lambda: _get(server, "/status/job-404404-deadbeef"), 404
        )
        assert "unknown job" in body["error"]
        self._expect_http_error(
            lambda: _get(server, "/result/job-404404-deadbeef"), 404
        )

    def test_bad_request_payload_400(self, server):
        body = self._expect_http_error(
            lambda: _post(server, "/submit", {"bogus": 1}), 400
        )
        assert "error" in body

    def test_unknown_benchmark_400(self, server):
        body = self._expect_http_error(
            lambda: _post(server, "/submit", {"benchmark": "nope.nope"}), 400
        )
        assert "no benchmark named 'nope.nope'" in body["error"]

    def test_empty_batch_400(self, server):
        self._expect_http_error(
            lambda: _post(server, "/batch", {"requests": []}), 400
        )

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            _base(server) + "/submit",
            data=b"not json at all",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
