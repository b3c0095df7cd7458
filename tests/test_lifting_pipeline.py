"""Tests for the staged pipeline (`repro.lifting.pipeline`).

Covers the typed `PipelineState`, per-stage wall-clock timings, observer
stage events, and the resume-from-state rules (oracle-derived artifacts are
reused, config-derived artifacts are rebuilt).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core import StaggSynthesizer
from repro.core.pcfg_learn import learn_pcfg, operator_weights
from repro.core.synthesizer import synthesis_invocations
from repro.core.templates import templatize
from repro.lifting import (
    GrammarStage,
    LiftEvent,
    PipelineState,
    PrintObserver,
    RecordingObserver,
    STAGE_NAMES,
    STAGES,
    resolve_method,
)
from repro.cfront.analysis import harvest_constants
from repro.lifting.pipeline import RETRIEVAL_SEED_BOOST
from repro.llm import OracleConfig, StaticOracle, SyntheticOracle
from repro.suite import all_benchmarks, get_benchmark
from repro.taco import parse_program


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
        # completion but the search cannot solve the task (its grammar holds
        # one rank-0 tensor and no Const; see test_unsolved_lift_exits_2).
        lifter = resolve_method(
            "STAGG_TD", oracle=StaticOracle(["a = Const"]), timeout_seconds=5.0
        )
        report = lifter.lift(_task("llama.rmsnorm_sum_squares"))
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
        assert accepted[-1].attrs["proved"] is True
        assert accepted[-1].attrs["sizes"] == [1, 2, 3]
        assert accepted[-1].attrs["checks"] == 0

    def test_accepted_event_reports_the_bounded_check_fallback(self, tmp_path, capsys):
        # A value-dependent branch cannot run symbolically, so the lift of
        # this raw C file is accepted by the bounded check, not a proof.
        kernel = tmp_path / "branchy.c"
        kernel.write_text(
            "void branchy(int n, float *x, float *out) {\n"
            "    for (int i = 0; i < n; i++) {\n"
            "        if (x[i] > 0) out[i] = x[i] * 2; else out[i] = x[i] + x[i];\n"
            "    }\n"
            "}\n"
        )
        assert main(["lift", str(kernel), "--reference", "a(i) = b(i) * 2", "-v"]) == 0
        out = capsys.readouterr().out
        assert "accepted: a(i) = 2 * x(i) (bounded check, 25 inputs)" in out
        assert "branchy: ok" in out

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
            LiftEvent("candidate_accepted", attrs={
                "program": "a(i) = b(i)", "proved": True, "sizes": [1, 2, 3], "checks": 0,
            }),
            LiftEvent("candidate_accepted", attrs={
                "program": "a(i) = b(i) / c", "proved": False, "sizes": [], "checks": 68,
            }),
            LiftEvent("candidate_accepted", attrs={
                "program": "a(i) = b(i)", "proved": True, "sizes": [2, 4], "checks": 0,
            }),
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
            "  accepted: a(i) = b(i) (proved, sizes 1–3)",
            "  accepted: a(i) = b(i) / c (bounded check, 68 inputs)",
            "  accepted: a(i) = b(i) (proved, sizes 2, 4)",
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
        assert state.operator_weights is None
        assert state.grammar is None
        assert state.templates is templates
        assert state.oracle_response is not None
        assert state.dimension_list is not None

    def test_seed_templates_weigh_into_the_pcfg_but_not_the_operators(self):
        state = PipelineState(task=_task("mathfu.dot"))
        lifter = _synthesizer()
        lifter.lift_from_state(state)
        seeds = [templatize(parse_program("a = b(i) * c(i) - d(i)"))]
        state.reset_derived()
        state.seed_templates = seeds
        GrammarStage().run(SimpleNamespace(config=lifter.config), state, None, None)
        grammar, style = state.grammar, state.grammar_style
        assert state.operator_weights == operator_weights(grammar, state.templates, style)
        # The seed's "-" counts into the pCFG, never into the operators.
        assert "-" in operator_weights(grammar, seeds, style)
        assert "-" not in state.operator_weights
        boosted = learn_pcfg(
            grammar, list(state.templates) + seeds * RETRIEVAL_SEED_BOOST, style
        )
        assert state.pcfg.probabilities() == boosted.probabilities()
        assert boosted.probabilities() != learn_pcfg(
            grammar, state.templates, style
        ).probabilities()


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


def _has_const(grammar) -> bool:
    return any("Const" in str(p.rhs) for p in grammar.productions)


class TestStaticGrammarEvidence:
    """The C front end's facts shape the refined grammar (both rules)."""

    @pytest.mark.parametrize("method", ["STAGG_TD", "STAGG_BU"])
    def test_const_only_with_a_harvested_literal(self, method):
        # axpy_cpu has a rank-0 scalar (ALPHA) but no literal; halve has 2.
        for name, harvested in (("darknet.axpy_cpu", False), ("mathfu.halve", True)):
            state = PipelineState(task=_task(name))
            report = resolve_method(method, timeout_seconds=20.0).lift_from_state(state)
            assert report.success
            assert bool(harvest_constants(state.function)) is harvested
            assert _has_const(state.grammar) is harvested

    def test_unrefined_grammar_keeps_const(self):
        state = PipelineState(task=_task("darknet.axpy_cpu"))
        resolve_method("STAGG_BU.FullGrammar", timeout_seconds=20.0).lift_from_state(state)
        assert _has_const(state.grammar)

    def test_dimension_rule_fills_the_slot_the_vote_missed(self):
        # screen_rows reads two rank-2 arrays; the vote names one.
        report = _synthesizer().lift(_task("blend.screen_rows"))
        assert report.success
        assert report.details["voted_dimension_list"] == (2, 2)
        assert report.dimension_list == (2, 2, 2)

    def test_dimension_rule_only_adds_slots_and_fires_only_on_screen_rows(self):
        synthesizer = _synthesizer()
        fired = []
        for bench in all_benchmarks():
            state = synthesizer.prepare_state(bench.task())
            voted, final = state.voted_dimension_list, state.dimension_list
            assert final[1 : len(voted)] == voted[1:]
            if len(final) != len(voted):
                fired.append(bench.name)
        assert fired == ["blend.screen_rows"]

    def test_a_tensor_read_twice_keeps_the_vote(self):
        # a = b(i) * b(i): one input tensor, one voted RHS slot.
        state = _synthesizer().prepare_state(_task("llama.rmsnorm_sum_squares"))
        assert state.dimension_list == state.voted_dimension_list == (0, 1)
