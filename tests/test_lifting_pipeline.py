"""Tests for the staged pipeline (`repro.lifting.pipeline`).

Covers the typed `PipelineState`, per-stage wall-clock timings, observer
stage events, and the resume-from-state rules (oracle-derived artifacts are
reused, config-derived artifacts are rebuilt).
"""

from __future__ import annotations

import pytest

from repro.core import StaggSynthesizer
from repro.core.synthesizer import synthesis_invocations
from repro.lifting import (
    LiftEvent,
    PipelineState,
    PrintObserver,
    RecordingObserver,
    STAGE_NAMES,
    STAGES,
    resolve_method,
)
from repro.llm import OracleConfig, StaticOracle, SyntheticOracle
from repro.suite import get_benchmark


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


def _synthesizer(**overrides) -> StaggSynthesizer:
    return resolve_method("STAGG_TD", timeout_seconds=20.0, **overrides)


class TestStageTimings:
    def test_every_stage_recorded_on_success(self):
        report = _synthesizer().lift(_task())
        assert report.success
        timings = report.details["stage_timings"]
        assert sorted(timings) == sorted(STAGE_NAMES)
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_stage_timings_on_failed_lift(self):
        # A static oracle with one useless candidate: the pipeline runs to
        # completion but the search cannot solve the task.
        lifter = resolve_method(
            "STAGG_TD", oracle=StaticOracle(["a(i) = b(i) / b(i)"]), timeout_seconds=5.0
        )
        report = lifter.lift(_task("mathfu.dot"))
        assert not report.success
        assert sorted(report.details["stage_timings"]) == sorted(STAGE_NAMES)

    def test_stage_timings_for_every_registered_stagg_method(self):
        for name in ("STAGG_BU", "STAGG_TD.FullGrammar", "STAGG_TD.Drop(a1)"):
            report = resolve_method(name, timeout_seconds=20.0).lift(_task())
            assert sorted(report.details["stage_timings"]) == sorted(STAGE_NAMES)

    def test_stage_names_match_stage_objects(self):
        assert tuple(stage.name for stage in STAGES) == STAGE_NAMES


class TestObserverEvents:
    def test_stage_events_in_order(self):
        observer = RecordingObserver()
        _synthesizer().lift(_task(), observer=observer)
        assert observer.stages("stage_started") == list(STAGE_NAMES)
        assert observer.stages("stage_finished") == list(STAGE_NAMES)

    def test_candidate_accepted_event(self):
        observer = RecordingObserver()
        report = _synthesizer().lift(_task(), observer=observer)
        assert report.success
        accepted = [e for e in observer.events if e.name == "candidate_accepted"]
        assert accepted and accepted[-1].attrs["program"] == str(report.lifted_program)

    def test_broken_observer_never_breaks_the_lift(self):
        class Broken(RecordingObserver):
            def emit(self, event):
                if event.name in ("stage_started", "search_progress"):
                    raise RuntimeError("observer bug")

        report = _synthesizer().lift(_task(), observer=Broken())
        assert report.success
        assert not report.error

    def test_broken_observer_warns_exactly_once(self):
        import warnings

        class Broken(RecordingObserver):
            def emit(self, event):
                if event.name == "stage_started":
                    raise RuntimeError("observer bug")

        observer = Broken()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = _synthesizer().lift(_task(), observer=observer)
        assert report.success
        ours = [
            w
            for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "lift observer" in str(w.message)
        ]
        # Five stages raise five times, but the observer is warned about
        # exactly once — diagnosable without being noisy.
        assert len(ours) == 1
        assert "Broken.stage_started" in str(ours[0].message)
        assert "RuntimeError: observer bug" in str(ours[0].message)

    def test_broken_observer_survives_warnings_as_errors(self):
        # Under -W error (or pytest filterwarnings = error) the diagnostic
        # warning itself raises; it must not break the "observer exceptions
        # never abort a lift" contract.
        import warnings

        class Broken(RecordingObserver):
            def emit(self, event):
                if event.name == "stage_started":
                    raise RuntimeError("observer bug")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = _synthesizer().lift(_task(), observer=Broken())
        assert report.success
        assert not report.error

    def test_each_broken_observer_gets_its_own_warning(self):
        import warnings

        class Broken(RecordingObserver):
            def emit(self, event):
                if event.name == "stage_started":
                    raise RuntimeError("observer bug")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _synthesizer().lift(_task(), observer=Broken())
            _synthesizer().lift(_task(), observer=Broken())
        ours = [w for w in caught if "lift observer" in str(w.message)]
        assert len(ours) == 2


class TestPrintObserver:
    def test_verbose_lines_for_every_event(self):
        lines = []
        observer = PrintObserver(lines.append)
        for event in (
            LiftEvent("stage_started", "k", "TD", attrs={"stage": "search"}),
            LiftEvent("stage_finished", "k", attrs={"stage": "search", "seconds": 0.25}),
            LiftEvent("stage_skipped", "k", "TD", attrs={"stage": "oracle"}),
            LiftEvent("search_progress", attrs={
                "nodes_expanded": 1024, "candidates_tried": 3,
                "nodes_per_sec": 2048.4, "duplicates_pruned": 7,
            }),
            LiftEvent("search_progress", attrs={
                "nodes_expanded": 512, "candidates_tried": 0,
                "nodes_per_sec": 0.0, "duplicates_pruned": 0,
            }),
            LiftEvent("candidate_accepted", attrs={"program": "a(i) = b(i)"}),
            LiftEvent("retrieval_seeded", "k", attrs={"neighbors": 2, "hit": True}),
            LiftEvent("validator_stats", attrs={
                "candidates": 10, "screen_rejects": 4, "exact_checks": 6, "seconds": 0.5,
            }),
            LiftEvent("validator_stats", attrs={
                "candidates": 10, "screen_rejects": 4, "exact_checks": 6, "seconds": 0.0,
            }),
            LiftEvent("member_started", "k", "TD"),
            LiftEvent("member_finished", "k", "TD", attrs={"success": True, "seconds": 1.5}),
            LiftEvent("member_finished", "k", "BU", attrs={"success": False, "seconds": 1.5}),
            LiftEvent("member_cancelled", "k", "BU"),
            LiftEvent("portfolio_winner", "k", "TD"),
        ):
            observer.emit(event)
        assert lines == [
            "[k[TD]] stage search ...",
            "[k] stage search done in 0.250s",
            "[k[TD]] stage oracle skipped (resumed from state)",
            "  search: 1024 nodes expanded, 3 candidates tried, 2048 nodes/s",
            "  search: 512 nodes expanded, 0 candidates tried",
            "  accepted: a(i) = b(i)",
            "[k] seeded from 2 neighbor(s): tier-0 hit (search skipped)",
            "  validator: 10 candidates (20/s), 4 screened out, 6 exact checks",
            "  validator: 10 candidates, 4 screened out, 6 exact checks",
            "[k] member TD started",
            "[k] member TD: solved in 1.500s",
            "[k] member BU: no solution in 1.500s",
            "[k] member BU cancelled (another member won)",
            "[k] winner: TD",
        ]


class TestResumeFromState:
    def test_resume_skips_oracle_derived_stages(self):
        task = _task()
        state = PipelineState(task=task)
        cold = _synthesizer().lift_from_state(state)
        assert cold.success
        observer = RecordingObserver()
        warm = resolve_method("STAGG_BU", timeout_seconds=20.0).lift_from_state(
            state, observer=observer
        )
        assert warm.success
        assert observer.stages("stage_skipped") == ["oracle", "templatize", "dimension"]
        assert observer.stages("stage_finished") == ["grammar", "search"]

    def test_resume_reuses_the_oracle_response_object(self):
        state = PipelineState(task=_task())
        _synthesizer().lift_from_state(state)
        response = state.oracle_response
        resolve_method("STAGG_TD.FullGrammar", timeout_seconds=20.0).lift_from_state(
            state
        )
        assert state.oracle_response is response

    def test_resumed_report_carries_oracle_and_dimension_fields(self):
        state = PipelineState(task=_task())
        cold = _synthesizer().lift_from_state(state)
        warm = _synthesizer().lift_from_state(state)
        assert warm.oracle_valid_candidates == cold.oracle_valid_candidates
        assert warm.dimension_list == cold.dimension_list
        assert sorted(warm.details["stage_timings"]) == sorted(STAGE_NAMES)
        # Skipped stages cost nothing on the resumed run.
        assert warm.details["stage_timings"]["oracle"] == 0.0

    def test_resume_matches_cold_lift_outcome(self):
        task = _task("mathfu.dot")
        oracle = SyntheticOracle(OracleConfig(seed=2025))
        state = PipelineState(task=task)
        resolve_method("STAGG_TD", oracle=oracle, timeout_seconds=20.0).lift_from_state(
            state
        )
        warm = resolve_method(
            "STAGG_BU", oracle=oracle, timeout_seconds=20.0
        ).lift_from_state(state)
        cold = resolve_method("STAGG_BU", oracle=oracle, timeout_seconds=20.0).lift(task)
        assert warm.success == cold.success
        assert str(warm.lifted_program) == str(cold.lifted_program)
        assert warm.attempts == cold.attempts

    def test_reset_derived_clears_only_config_derived_artifacts(self):
        state = PipelineState(task=_task())
        _synthesizer().lift_from_state(state)
        assert state.outcome is not None and state.pcfg is not None
        templates = state.templates
        state.reset_derived()
        assert state.outcome is None
        assert state.pcfg is None
        assert state.grammar is None
        assert state.templates is templates
        assert state.oracle_response is not None
        assert state.dimension_list is not None


class TestLiftSemantics:
    def test_lift_counts_invocations(self):
        before = synthesis_invocations()
        _synthesizer().lift(_task())
        assert synthesis_invocations() == before + 1

    def test_parse_errors_reported_not_raised(self):
        task = _task().__class__(
            name="broken",
            c_source="this is not C",
            spec=_task().spec,
            reference_solution="a(i) = b(i)",
        )
        report = _synthesizer().lift(task)
        assert not report.success
        assert report.error

    def test_config_default_is_not_shared_between_instances(self):
        first = StaggSynthesizer(StaticOracle(["a(i) = b(i)"]))
        second = StaggSynthesizer(StaticOracle(["a(i) = b(i)"]))
        assert first.config is not second.config

    def test_lift_report_method_label(self):
        report = resolve_method("STAGG_BU", timeout_seconds=10.0).lift(_task())
        assert report.method == "STAGG_BU"


class TestGrammarAblationsStillDiffer:
    """The decomposition must preserve ablation semantics end to end."""

    @pytest.mark.parametrize(
        "name", ["STAGG_TD.FullGrammar", "STAGG_TD.LLMGrammar"]
    )
    def test_full_grammar_modes_run(self, name):
        report = resolve_method(name, timeout_seconds=20.0).lift(_task())
        assert report.details["stage_timings"]["grammar"] >= 0.0
        assert report.details.get("grammar_size", 0) > 0
