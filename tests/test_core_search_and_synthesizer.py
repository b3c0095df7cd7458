"""Integration tests: the A* searches and the end-to-end STAGG synthesizer."""

from __future__ import annotations


from repro.core import (
    InputSpec,
    LiftingTask,
    SearchLimits,
    StaggConfig,
    StaggSynthesizer,
    VerifierConfig,
)
from repro.core.grammar_gen import bottomup_template_grammar, topdown_template_grammar
from repro.core.pcfg_learn import learn_pcfg
from repro.core.penalties import PenaltyContext, PenaltyEvaluator
from repro.core.search_bottomup import BottomUpSearch
from repro.core.search_topdown import TopDownSearch
from repro.core.templates import templatize_all
from repro.llm import StaticOracle, SyntheticOracle
from repro.taco import parse_program

#: Fast limits / verifier bounds for test runs.
FAST_LIMITS = SearchLimits(max_expansions=20_000, max_candidates=400, timeout_seconds=20)
FAST_VERIFIER = VerifierConfig(size_bound=2, exhaustive_cap=200, sampled_checks=8)


def _search_components(candidates, dims, style):
    templates = templatize_all([parse_program(c) for c in candidates])
    if style == "topdown":
        grammar = topdown_template_grammar(dims, 2, templates, constants=())
    else:
        grammar = bottomup_template_grammar(dims, 2, templates, constants=())
    pcfg = learn_pcfg(grammar, templates, style=style)
    context = PenaltyContext(dims, False, frozenset({"*"}))
    evaluator = (
        PenaltyEvaluator.topdown(context)
        if style == "topdown"
        else PenaltyEvaluator.bottomup(context)
    )
    return pcfg, evaluator


class TestSearchesInIsolation:
    """Drive the searches with a stub checker that accepts a known target."""

    CANDIDATES = [
        "r(i) = m(i,j) * v(j)",
        "r(i) = m(j,i) * v(i)",
        "r(i) = m(i,j) * v(i)",
    ]
    TARGET = "a(i) = b(j,i) * c(j)"

    def _checker(self, target):
        attempts = []

        def check(template):
            attempts.append(str(template))
            if str(template) == target:
                return True, None, None
            return False, None, None

        return check, attempts

    def test_topdown_finds_target(self):
        pcfg, penalties = _search_components(self.CANDIDATES, (1, 2, 1), "topdown")
        check, attempts = self._checker(self.TARGET)
        outcome = TopDownSearch(pcfg, penalties, check, FAST_LIMITS).run()
        assert outcome.success
        assert str(outcome.template) == self.TARGET
        assert outcome.candidates_tried == len(attempts)
        assert outcome.candidates_tried <= 50

    def test_bottomup_finds_target(self):
        pcfg, penalties = _search_components(self.CANDIDATES, (1, 2, 1), "bottomup")
        check, attempts = self._checker(self.TARGET)
        outcome = BottomUpSearch(pcfg, (1, 2, 1), penalties, check, FAST_LIMITS).run()
        assert outcome.success
        assert str(outcome.template) == self.TARGET

    def test_search_reports_failure_when_nothing_accepts(self):
        pcfg, penalties = _search_components(self.CANDIDATES, (1, 2, 1), "topdown")
        check = lambda template: (False, None, None)  # noqa: E731
        limits = SearchLimits(max_expansions=2_000, max_candidates=50, timeout_seconds=5)
        outcome = TopDownSearch(pcfg, penalties, check, limits).run()
        assert not outcome.success
        assert outcome.candidates_tried > 0

    def test_candidates_are_not_validated_twice(self):
        pcfg, penalties = _search_components(self.CANDIDATES, (1, 2, 1), "topdown")
        check, attempts = self._checker("a(i) = <never>")
        limits = SearchLimits(max_expansions=3_000, max_candidates=100, timeout_seconds=5)
        TopDownSearch(pcfg, penalties, check, limits).run()
        assert len(attempts) == len(set(attempts))


class TestStaggEndToEnd:
    def _synthesizer(self, config):
        return StaggSynthesizer(SyntheticOracle(), config)

    def test_topdown_lifts_figure2(self, figure2_task):
        config = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        report = self._synthesizer(config).lift(figure2_task)
        assert report.success, report.error
        assert str(report.lifted_program) == "a(i) = Mat1(i,j) * Mat2(j)"
        assert report.dimension_list == (1, 2, 1)
        assert report.attempts >= 1

    def test_bottomup_lifts_figure2(self, figure2_task):
        config = StaggConfig.bottomup(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        report = self._synthesizer(config).lift(figure2_task)
        assert report.success, report.error
        assert str(report.lifted_program) == "a(i) = Mat1(i,j) * Mat2(j)"

    def test_static_oracle_reproduces_worked_example(self, figure2_task):
        """The Response-1 candidates from the paper drive the full pipeline."""
        oracle = StaticOracle(
            [
                "r(f) = m1(i,f) * m2(f)",
                "Result(i) = Mat1(i,f) * Mat2(f)",
                "Result(i) := Mat1(f,i) * Mat2(i)",
                "Result(f) = sum(f, mat1(f,i) * mat2(i))",
            ]
        )
        config = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        report = StaggSynthesizer(oracle, config).lift(figure2_task)
        assert report.success
        assert str(report.lifted_program) == "a(i) = Mat1(i,j) * Mat2(j)"
        # The syntactically invalid sum(...) candidate was discarded.
        assert report.oracle_rejected_candidates >= 1

    def test_failure_is_reported_not_raised(self):
        task = LiftingTask(
            name="test.unparseable",
            c_source="this is not C at all",
            spec=InputSpec(),
        )
        config = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        report = self._synthesizer(config).lift(task)
        assert not report.success
        assert report.error

    def test_ablation_configs_run(self, figure2_task):
        base = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        for config in (base.with_equal_probability(), base.with_dropped_penalties("a3")):
            report = self._synthesizer(config).lift(figure2_task)
            assert report.success, (config.label, report.error)

    def test_full_grammar_ablation_needs_more_attempts(self, figure2_task):
        refined = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        unrefined = refined.with_full_grammar().with_limits(
            SearchLimits(max_expansions=60_000, max_candidates=3_000, timeout_seconds=60)
        )
        fast = self._synthesizer(refined).lift(figure2_task)
        slow = self._synthesizer(unrefined).lift(figure2_task)
        assert fast.success
        if slow.success:
            assert slow.attempts > fast.attempts

    def test_report_summary_is_informative(self, figure2_task):
        config = StaggConfig.topdown(limits=FAST_LIMITS, verifier=FAST_VERIFIER)
        report = self._synthesizer(config).lift(figure2_task)
        summary = report.summary()
        assert "STAGG_TD" in summary and "paper.figure2" in summary
