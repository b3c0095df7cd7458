"""Integration tests for span tracing (`repro.obs.trace` / `repro.obs.report`).

The PR-7 acceptance criteria live here: a traced
``Portfolio(STAGG_TD,STAGG_BU)`` lift reconstructs its full span tree
(stages nested under the member that ran them, winner attribution on the
root), trace files round-trip byte-identically through the strict
schema, search heartbeats carry rate telemetry without perturbing store
digests, and a broken observer can no longer suppress sibling delivery.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cli import main as cli_main
from repro.core.config import StaggConfig
from repro.core.search import SearchLimits
from repro.lifting import (
    CompositeObserver,
    ExecutionConfig,
    LiftEvent,
    LiftObserver,
    RecordingObserver,
    resolve_method,
    safe_notify,
)
from repro.obs import TraceWriter, TracingObserver, dump_record, load_trace
from repro.obs import trace as obs_trace
from repro.obs.report import build_forest, find_span, render_summary, render_tree
from repro.suite import get_benchmark
from race_stubs import StubLifter


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


def _traced_lift(tmp_path, method: str = "STAGG_TD",
                 benchmark: str = "darknet.copy_cpu", execution=None):
    path = tmp_path / "trace.jsonl"
    tracer = TracingObserver(TraceWriter(path), task=benchmark)
    lifter = resolve_method(method, timeout_seconds=30.0, execution=execution)
    report = lifter.lift(_task(benchmark), observer=tracer)
    tracer.close(success=report.success, method=method)
    return path, report


# ---------------------------------------------------------------------- #
# Traced single-method lift
# ---------------------------------------------------------------------- #
class TestTracedLift:
    def test_trace_validates_and_round_trips_byte_identically(self, tmp_path):
        path, report = _traced_lift(tmp_path)
        assert report.success
        raw_lines = [line for line in path.read_text().splitlines() if line]
        records = load_trace(path)
        assert [dump_record(r) for r in records] == raw_lines

    def test_span_tree_structure(self, tmp_path):
        path, _ = _traced_lift(tmp_path)
        traces = build_forest(load_trace(path))
        assert len(traces) == 1
        (root,) = traces[0].roots
        assert root.name == "lift"
        assert root.span.attrs["success"] is True
        assert root.span.attrs["task"] == "darknet.copy_cpu"
        child_names = {child.name for child in root.children}
        assert {"stage:oracle", "stage:search"} <= child_names
        # Every stage span nests under the root and fits inside it.
        for child in root.children:
            assert child.span.parent_id == root.span.span_id
            assert child.duration <= root.duration + 1e-6

    def test_search_span_carries_validator_tiers_event(self, tmp_path):
        path, _ = _traced_lift(tmp_path)
        trace = build_forest(load_trace(path))[0]
        search = find_span(trace, "stage:search")
        assert search is not None
        tiers = [e for e in search.events if e.name == "validator_tiers"]
        assert len(tiers) == 1
        attrs = tiers[0].attrs
        assert attrs["candidates"] >= 1
        assert attrs["candidates_per_sec"] >= 0
        assert attrs["exact_checks"] >= 1

    def test_search_span_carries_the_verification_kind(self, tmp_path):
        path, report = _traced_lift(tmp_path)
        trace = build_forest(load_trace(path))[0]
        search = find_span(trace, "stage:search")
        accepted = [e for e in search.events if e.name == "candidate_accepted"]
        assert accepted
        attrs = accepted[-1].attrs
        assert attrs["program"] == str(report.lifted_program)
        assert attrs["proved"] is True
        assert attrs["sizes"] == "[1, 2, 3]"  # a list attr is recorded as its text

    def test_close_is_idempotent(self, tmp_path):
        path, _ = _traced_lift(tmp_path)
        before = path.read_text()
        # _traced_lift already closed the tracer; a second close from an
        # error path must not duplicate the root span.
        records = load_trace(path)
        roots = [r for r in records if getattr(r, "name", "") == "lift"]
        assert len(roots) == 1
        assert path.read_text() == before


# ---------------------------------------------------------------------- #
# Traced portfolio lift (the acceptance criterion)
# ---------------------------------------------------------------------- #
#: Both racing backends must produce the same member-level trace shape.
BACKENDS = [
    pytest.param(None, id="default"),
    pytest.param(ExecutionConfig("threads", 2), id="threads"),
    pytest.param(ExecutionConfig("processes", 2), id="processes"),
]


class TestTracedPortfolio:
    @pytest.mark.parametrize("execution", BACKENDS)
    def test_full_span_tree_reconstructs(self, tmp_path, execution):
        benchmark = "darknet.copy_cpu" if execution is None else "llama.rmsnorm_sum_squares"
        path, report = _traced_lift(
            tmp_path, method="Portfolio(STAGG_TD,STAGG_BU)",
            benchmark=benchmark, execution=execution,
        )
        assert report.success
        traces = build_forest(load_trace(path))
        assert len(traces) == 1
        (root,) = traces[0].roots
        assert root.name == "lift"
        members = [c for c in root.children if c.name.startswith("member:")]
        assert {m.name for m in members} == {"member:STAGG_TD", "member:STAGG_BU"}
        race = report.details["portfolio"]
        records = {m["name"]: m for m in race["members"]}
        # Each member's stages nest under that member's span, not under the
        # root or the other member — whichever thread or process ran it.
        # Members resume from the shared oracle state, so each one always
        # records skipped oracle-derived stages.  Every member has its
        # search span, except a loser the win cancelled at a stage
        # boundary before it expanded a node (which member finishes first
        # is not asserted).
        for member in members:
            assert member.span.parent_id == root.span.span_id
            stage_names = [c.name for c in member.children]
            assert "stage:oracle" in stage_names
            record = records[member.name.removeprefix("member:")]
            assert "stage:search" in stage_names or (
                record["name"] != race["winner"]
                and record["cancelled"]
                and record["nodes_expanded"] == 0
            )
            for child in member.children:
                assert child.span.parent_id == member.span.span_id
        winner_events = [e for e in root.events if e.name == "portfolio_winner"]
        assert len(winner_events) == 1
        assert winner_events[0].attrs["member"] == race["winner"]

    def test_process_portfolio_verbose_prints_member_stages(self, capsys):
        status = cli_main([
            "lift", "llama.rmsnorm_sum_squares",
            "--method", "Portfolio(STAGG_TD,STAGG_BU)",
            "--executor", "processes:2", "--timeout", "30", "-v",
        ])
        assert status == 0
        out = capsys.readouterr().out
        # Only STAGG_TD solves this kernel, so it always searches; STAGG_BU
        # may be cancelled before its search, but always resumes the
        # shared oracle state first.
        assert "[llama.rmsnorm_sum_squares[STAGG_TD]] stage search ..." in out
        assert "[llama.rmsnorm_sum_squares[STAGG_TD]] stage search done in" in out
        assert "[llama.rmsnorm_sum_squares[STAGG_BU]] stage oracle skipped" in out
        assert "winner: STAGG_TD" in out

    def test_renderers_cover_the_portfolio_tree(self, tmp_path):
        path, _ = _traced_lift(tmp_path, method="Portfolio(STAGG_TD,STAGG_BU)")
        traces = build_forest(load_trace(path))
        tree = render_tree(traces)
        assert "member:STAGG_TD" in tree and "member:STAGG_BU" in tree
        assert "portfolio_winner" in tree
        summary = render_summary(traces)
        assert "member:STAGG_TD" in summary
        assert "stage:search" in summary


# ---------------------------------------------------------------------- #
# Race event ordering
# ---------------------------------------------------------------------- #
class TestRaceEventOrdering:
    def test_winner_precedes_cancellations(self, race_scheduler):
        observer = RecordingObserver()
        runs, winner = race_scheduler.race(
            [("fast", StubLifter(True)), ("slow", StubLifter(False, until_cancelled=True))],
            task="t", task_name="t", observer=observer,
        )
        assert winner is not None and winner.name == "fast"
        kinds = [event.name for event in observer.events]
        started = [i for i, e in enumerate(observer.events)
                   if e.name == "member_started"]
        cancelled = [i for i, e in enumerate(observer.events)
                     if e.name == "member_cancelled"]
        winner_at = kinds.index("portfolio_winner")
        assert cancelled, "the slow member must report a cancellation"
        # member_started < portfolio_winner < member_cancelled: a trace
        # reader learns *why* the losers stopped.
        assert max(started) < winner_at < min(cancelled)

    def test_member_events_precede_its_finish(self, race_scheduler):
        observer = RecordingObserver()
        race_scheduler.race(
            [("a", StubLifter(True)), ("b", StubLifter(False, delay=0.05))],
            task="t", task_name="t", observer=observer,
        )
        for member in ("a", "b"):
            own = [e.name for e in observer.events if e.member == member]
            # Forwarded events arrive with the member bound, in FIFO order.
            assert own.index("member_started") < own.index("stage_started")
            assert own.index("stage_started") < own.index("member_finished")


# ---------------------------------------------------------------------- #
# CompositeObserver: broken children cannot suppress siblings
# ---------------------------------------------------------------------- #
class _BrokenOn(LiftObserver):
    """An observer that raises on the listed event names."""

    def __init__(self, *names: str) -> None:
        self._names = names

    def emit(self, event: LiftEvent) -> None:
        if event.name in self._names:
            raise RuntimeError("broken observer")


class TestCompositeObserver:
    def test_broken_sibling_does_not_suppress_winner_delivery(self):
        recording = RecordingObserver()
        composite = CompositeObserver(_BrokenOn("portfolio_winner"), recording)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            safe_notify(composite, LiftEvent("portfolio_winner", "t", "STAGG_TD"))
        assert ("portfolio_winner", "STAGG_TD", "t") in [
            (e.name, e.member, e.task) for e in recording.events
        ]
        messages = [str(w.message) for w in caught]
        assert any("portfolio_winner" in m for m in messages)

    def test_warning_names_each_failing_event_once(self):
        broken = _BrokenOn("stage_started", "portfolio_winner")
        composite = CompositeObserver(broken)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            safe_notify(composite, LiftEvent("stage_started", "t", attrs={"stage": "oracle"}))
            safe_notify(composite, LiftEvent("stage_started", "t", attrs={"stage": "search"}))
            safe_notify(composite, LiftEvent("portfolio_winner", "t", "STAGG_TD"))
        messages = [str(w.message) for w in caught]
        assert len([m for m in messages if "stage_started" in m]) == 1
        assert len([m for m in messages if "portfolio_winner" in m]) == 1

    def test_none_children_filtered(self):
        recording = RecordingObserver()
        composite = CompositeObserver(None, recording, None)
        assert composite.children == (recording,)
        event = LiftEvent("candidate_accepted", attrs={"program": "a(i) = b(i)"})
        safe_notify(composite, event)
        assert recording.events == [event]

    def test_broken_observer_in_real_race_keeps_tracer_informed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = TracingObserver(TraceWriter(path), task="darknet.copy_cpu")
        composite = CompositeObserver(_BrokenOn("portfolio_winner"), tracer)
        lifter = resolve_method(
            "Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = lifter.lift(_task(), observer=composite)
        tracer.close(success=report.success)
        assert report.success
        trace = build_forest(load_trace(path))[0]
        winner_events = [
            e for root in trace.roots for e in root.events
            if e.name == "portfolio_winner"
        ]
        assert len(winner_events) == 1


# ---------------------------------------------------------------------- #
# Search heartbeat cadence and digest stability
# ---------------------------------------------------------------------- #
class TestProgressHeartbeat:
    def _lift_with_interval(self, interval: int) -> RecordingObserver:
        observer = RecordingObserver()
        limits = SearchLimits(
            max_expansions=20_000, max_candidates=400,
            timeout_seconds=20, progress_interval=interval,
        )
        report = resolve_method(
            "STAGG_TD", timeout_seconds=20.0, limits=limits
        ).lift(_task(), observer=observer)
        assert report.success
        return observer

    def test_heartbeats_carry_rates_and_prune_counts(self):
        observer = self._lift_with_interval(1)
        beats = [e for e in observer.events if e.name == "search_progress"]
        assert beats
        assert all(set(e.attrs) == {
            "nodes_expanded", "candidates_tried", "nodes_per_sec", "duplicates_pruned",
        } for e in beats)
        nodes = [e.attrs["nodes_expanded"] for e in beats]
        assert nodes == sorted(nodes)
        assert all(e.attrs["nodes_per_sec"] >= 0.0 for e in beats)
        assert all(e.attrs["duplicates_pruned"] >= 0 for e in beats)

    def test_zero_interval_is_rejected_at_construction(self):
        # Heartbeats are disabled by lifting without an observer, not by a
        # zero interval — SearchLimits validates at construction now.
        with pytest.raises(ValueError, match="progress_interval"):
            SearchLimits(progress_interval=0)
        with pytest.raises(ValueError, match="progress_interval"):
            SearchLimits(progress_interval=-3)

    def test_no_observer_disables_heartbeats(self):
        report = resolve_method("STAGG_TD", timeout_seconds=20.0).lift(_task())
        assert report.success  # no observer: nothing to deliver beats to

    def test_progress_interval_never_changes_digests(self):
        default = StaggConfig()
        chatty = StaggConfig(limits=SearchLimits(progress_interval=1))
        assert default.digest_dict() == chatty.digest_dict()
        assert "progress_interval" not in default.digest_dict()["limits"]
        # The knob itself still reaches the search loops.
        assert chatty.limits.progress_interval == 1


# ---------------------------------------------------------------------- #
# Process-wide arming
# ---------------------------------------------------------------------- #
class TestArming:
    @pytest.fixture(autouse=True)
    def _clean_arming(self):
        obs_trace.reset()
        yield
        obs_trace.reset()

    def test_disarmed_by_default(self, monkeypatch):
        monkeypatch.delenv(obs_trace.TRACE_ENV, raising=False)
        assert obs_trace.writer() is None

    def test_environment_arms_once(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(obs_trace.TRACE_ENV, str(path))
        armed = obs_trace.writer()
        assert armed is not None and armed.path == path
        # The environment is read once; later mutation has no effect.
        monkeypatch.setenv(obs_trace.TRACE_ENV, str(tmp_path / "other.jsonl"))
        assert obs_trace.writer() is armed

    def test_configure_and_disarm(self, tmp_path):
        armed = obs_trace.configure(tmp_path / "t.jsonl")
        assert obs_trace.writer() is armed
        obs_trace.configure(None)
        assert obs_trace.writer() is None


# ---------------------------------------------------------------------- #
# Traced service jobs
# ---------------------------------------------------------------------- #
class TestServiceTracing:
    @pytest.fixture(autouse=True)
    def _clean_arming(self):
        obs_trace.reset()
        yield
        obs_trace.reset()

    def test_job_lifecycle_and_lift_spans(self, tmp_path):
        from repro.service import LiftRequest, LiftingService

        path = tmp_path / "svc.jsonl"
        obs_trace.configure(path)
        with LiftingService(workers=1) as service:
            request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
            job = service.submit(request)
            assert job.wait(60)
        traces = build_forest(load_trace(path))
        job_traces = [t for t in traces if t.trace_id == job.id]
        assert len(job_traces) == 1
        (root,) = job_traces[0].roots
        assert root.name == "job"
        assert root.span.attrs["state"] == "succeeded"
        event_names = [e.name for e in root.events]
        assert event_names.index("job.queued") < event_names.index("job.claimed")
        assert event_names.index("job.claimed") < event_names.index("job.done")
        lifts = [c for c in root.children if c.name == "lift"]
        assert len(lifts) == 1
        assert {c.name for c in lifts[0].children} >= {"stage:search"}


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestTraceCli:
    def test_lift_trace_flag_then_inspect(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        status = cli_main([
            "lift", "darknet.copy_cpu", "--trace", str(trace_path),
            "--timeout", "30",
        ])
        assert status == 0
        assert trace_path.exists()
        capsys.readouterr()

        assert cli_main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "lift" in out and "stage:search" in out

        assert cli_main(["trace", "tree", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "lift" in out and "stage:oracle" in out

        assert cli_main(["trace", "slowest", str(trace_path), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "duration" in out

    def test_trace_command_missing_file(self, tmp_path, capsys):
        assert cli_main(["trace", "tree", str(tmp_path / "nope.jsonl")]) == 1
        assert "no trace file" in capsys.readouterr().err

    def test_trace_command_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "nope"}\n', encoding="utf-8")
        assert cli_main(["trace", "summarize", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err
