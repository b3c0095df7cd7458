"""Tests for the portfolio lifting engine (`repro.portfolio`).

The PR-4 acceptance criteria live here: a portfolio over members that can
all solve a kernel queries the oracle exactly once, returns the first
validated+verified program with the losers cancelled cooperatively (no
orphaned threads), records per-member attribution in
``report.details["portfolio"]``, and composes identical descriptors (and
therefore store digests) no matter which consumer layer built it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.result import SynthesisReport
from repro.core.synthesizer import synthesis_invocations
from repro.lifting import (
    Budget,
    Lifter,
    PipelineState,
    PortfolioLifter,
    RecordingObserver,
    method_names,
    method_spec,
    register_portfolio,
    resolve_method,
)
from repro.lifting.registry import _REGISTRY  # white-box: registration table
from repro.llm import OracleConfig, SyntheticOracle
from repro.portfolio import parse_portfolio_name, portfolio_label
from repro.service.digest import lift_digest
from repro.suite import get_benchmark
from race_stubs import StubLifter


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


class CountingOracle(SyntheticOracle):
    """A synthetic oracle that counts how many raw generations it serves."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0

    def generate_raw(self, query):
        self.calls += 1
        return super().generate_raw(query)


# ---------------------------------------------------------------------- #
# Spec syntax and registry integration
# ---------------------------------------------------------------------- #
class TestPortfolioSpec:
    def test_parse_simple(self):
        assert parse_portfolio_name("Portfolio(STAGG_TD,STAGG_BU)") == (
            "STAGG_TD",
            "STAGG_BU",
        )

    def test_parse_whitespace_insensitive(self):
        assert parse_portfolio_name("Portfolio( STAGG_TD , STAGG_BU )") == (
            "STAGG_TD",
            "STAGG_BU",
        )

    def test_parse_members_with_parens(self):
        # Member names themselves contain parentheses (the Table-2 drops).
        assert parse_portfolio_name("Portfolio(STAGG_TD.Drop(a1),STAGG_BU)") == (
            "STAGG_TD.Drop(a1)",
            "STAGG_BU",
        )

    def test_empty_member_rejected(self):
        with pytest.raises(KeyError, match="empty member"):
            parse_portfolio_name("Portfolio(STAGG_TD,,STAGG_BU)")

    def test_label_is_canonical(self):
        assert portfolio_label(("A", "B")) == "Portfolio(A,B)"

    def test_unknown_member_rejected(self):
        with pytest.raises(KeyError, match="NoSuchMethod"):
            resolve_method("Portfolio(STAGG_TD,NoSuchMethod)")

    def test_duplicate_member_rejected(self):
        with pytest.raises(KeyError, match="twice"):
            resolve_method("Portfolio(STAGG_TD,STAGG_TD)")

    def test_nested_portfolio_rejected(self):
        with pytest.raises(KeyError, match="flat"):
            resolve_method("Portfolio(Portfolio.Default,STAGG_TD)")

    def test_unknown_plain_name_still_reports_registry(self):
        with pytest.raises(KeyError, match="registered"):
            resolve_method("NoSuchMethod")

    def test_malformed_spec_gets_the_syntax_error(self):
        # A truncated spec must surface the parser's message, not be
        # mistaken for an unknown plain method name.
        with pytest.raises(KeyError, match="not a portfolio spec"):
            resolve_method("Portfolio(STAGG_TD,STAGG_BU")

    def test_portfolio_package_imports_standalone(self):
        # repro.portfolio and repro.lifting import each other's submodules;
        # a fresh interpreter must be able to start from either side.
        import subprocess
        import sys

        for first in ("repro.portfolio", "repro.lifting"):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    f"import {first}; from repro.portfolio import PortfolioLifter; "
                    "from repro.lifting import PortfolioLifter",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr


class TestRegistryIntegration:
    def test_default_portfolio_registered(self):
        assert "Portfolio.Default" in method_names()
        spec = method_spec("Portfolio.Default")
        assert spec.kind == "portfolio"
        assert spec.description

    def test_default_portfolio_resolves(self):
        lifter = resolve_method("Portfolio.Default", timeout_seconds=10.0)
        assert isinstance(lifter, PortfolioLifter)
        assert lifter.member_names == ("STAGG_TD", "STAGG_BU")

    def test_ad_hoc_names_resolve_without_registration(self):
        before = set(method_names())
        lifter = resolve_method("Portfolio(STAGG_TD,C2TACO)", timeout_seconds=10.0)
        assert isinstance(lifter, PortfolioLifter)
        assert lifter.member_names == ("STAGG_TD", "C2TACO")
        # Ad-hoc resolution must not grow the registry.
        assert set(method_names()) == before

    def test_portfolio_satisfies_the_lifter_protocol(self):
        lifter = resolve_method("Portfolio.Default", timeout_seconds=10.0)
        assert isinstance(lifter, Lifter)

    def test_register_portfolio_roundtrip(self):
        try:
            spec = register_portfolio("Portfolio.Test", ("STAGG_BU", "Tenspiler"))
            assert spec.kind == "portfolio"
            lifter = resolve_method("Portfolio.Test", timeout_seconds=5.0)
            assert lifter.member_names == ("STAGG_BU", "Tenspiler")
            assert lifter.label == "Portfolio.Test"
        finally:
            _REGISTRY.pop("Portfolio.Test", None)

    def test_register_portfolio_validates_members_eagerly(self):
        # A typo'd member must fail at registration, not on first resolve
        # (a bogus name would otherwise sit in `repro methods` output).
        with pytest.raises(KeyError, match="NoSuchMethod"):
            register_portfolio("Portfolio.Typo", ("STAGG_TD", "NoSuchMethod"))
        assert "Portfolio.Typo" not in method_names()


# ---------------------------------------------------------------------- #
# Descriptor / digest identity
# ---------------------------------------------------------------------- #
class TestPortfolioDigest:
    def _digest(self, name: str, **overrides) -> str:
        lifter = resolve_method(
            name, timeout_seconds=60.0, seed=7, oracle_seed=2025, **overrides
        )
        return lift_digest(_task(), lifter.descriptor())

    def test_equal_spec_equal_digest(self):
        assert self._digest("Portfolio(STAGG_TD,STAGG_BU)") == self._digest(
            "Portfolio(STAGG_TD,STAGG_BU)"
        )

    def test_named_and_ad_hoc_spec_share_a_digest(self):
        # Portfolio.Default IS Portfolio(STAGG_TD,STAGG_BU): same members,
        # same order, same parameters — resubmitting under the other name
        # must replay from the store, not recompute.
        assert self._digest("Portfolio.Default") == self._digest(
            "Portfolio(STAGG_TD,STAGG_BU)"
        )

    def test_whitespace_variants_share_a_digest(self):
        assert self._digest("Portfolio(STAGG_TD, STAGG_BU)") == self._digest(
            "Portfolio(STAGG_TD,STAGG_BU)"
        )

    def test_member_order_is_identity(self):
        # Order is the deterministic tie-break, so it is outcome-relevant.
        assert self._digest("Portfolio(STAGG_TD,STAGG_BU)") != self._digest(
            "Portfolio(STAGG_BU,STAGG_TD)"
        )

    def test_portfolio_digest_differs_from_members(self):
        assert self._digest("Portfolio(STAGG_TD,STAGG_BU)") != self._digest(
            "STAGG_TD"
        )

    def test_three_consumer_paths_agree(self):
        # CLI path: explicit oracle + registry resolution.
        from repro.evaluation import methods_by_name
        from repro.service.api import LiftRequest, build_lifter

        name = "Portfolio(STAGG_TD,STAGG_BU)"
        oracle = SyntheticOracle(OracleConfig(seed=2025))
        cli = lift_digest(
            _task(),
            resolve_method(
                name, oracle=oracle, timeout_seconds=60.0, seed=7
            ).descriptor(),
        )
        evaluation = lift_digest(
            _task(),
            methods_by_name([name], oracle=oracle, timeout_seconds=60.0)[
                name
            ].descriptor(),
        )
        request = LiftRequest(
            benchmark="darknet.copy_cpu", method=name, timeout=60.0, oracle_seed=2025
        )
        service = lift_digest(_task(), build_lifter(request).descriptor())
        assert cli == evaluation == service

    def test_descriptor_composes_member_descriptors(self):
        lifter = resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0)
        descriptor = lifter.descriptor()
        assert descriptor["class"] == "PortfolioLifter"
        assert [m["name"] for m in descriptor["members"]] == ["STAGG_TD", "STAGG_BU"]
        assert all(m["lifter"]["class"] for m in descriptor["members"])


# ---------------------------------------------------------------------- #
# The race itself
# ---------------------------------------------------------------------- #
class TestPortfolioLift:
    def test_wins_and_attributes_members(self):
        lifter = resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0)
        report = lifter.lift(_task())
        assert report.success
        assert report.method == "Portfolio(STAGG_TD,STAGG_BU)"
        portfolio = report.details["portfolio"]
        assert portfolio["winner"] in ("STAGG_TD", "STAGG_BU")
        assert [m["name"] for m in portfolio["members"]] == ["STAGG_TD", "STAGG_BU"]
        winner_row = next(
            m for m in portfolio["members"] if m["name"] == portfolio["winner"]
        )
        assert winner_row["success"]

    def test_oracle_queried_exactly_once(self):
        """The acceptance check: one LLM query feeds every STAGG member."""
        oracle = CountingOracle(OracleConfig(seed=2025))
        lifter = resolve_method(
            "Portfolio(STAGG_TD,STAGG_BU)", oracle=oracle, timeout_seconds=30.0
        )
        report = lifter.lift(_task())
        assert report.success
        assert oracle.calls == 1
        assert report.details["portfolio"]["shared_oracle_state"]

    def test_no_orphaned_threads(self):
        lifter = resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0)
        before = threading.active_count()
        lifter.lift(_task())
        # Losers are cancelled cooperatively and joined before lift returns.
        assert threading.active_count() == before
        assert not [
            t for t in threading.enumerate() if t.name.startswith("portfolio-")
        ]

    def test_portfolio_beats_a_member_that_would_time_out(self):
        # darknet.axpy_cpu: the unrefined top-down space holds no solution
        # STAGG_TD.FullGrammar reaches (it fails at its default caps after
        # ~1.7s on a 2-core x86 host), and with the caps lifted only the
        # deadline ends it, while STAGG_BU wins in milliseconds.  The
        # portfolio must return BU's answer and cancel the loser instead of
        # waiting for its deadline.
        from repro.core import SearchLimits

        lifter = resolve_method(
            "Portfolio(STAGG_TD.FullGrammar,STAGG_BU)",
            timeout_seconds=10.0,
            limits=SearchLimits(
                max_expansions=50_000_000, max_candidates=5_000_000, timeout_seconds=None
            ),
        )
        started = time.monotonic()
        report = lifter.lift(_task("darknet.axpy_cpu"))
        elapsed = time.monotonic() - started
        assert report.success
        assert report.details["portfolio"]["winner"] == "STAGG_BU"
        assert elapsed < 5.0  # far below the 10s member timeout
        loser = next(
            m for m in report.details["portfolio"]["members"]
            if m["name"] == "STAGG_TD.FullGrammar"
        )
        assert loser["cancelled"] and not loser["success"]

    def test_observer_sees_the_race(self):
        observer = RecordingObserver()
        lifter = resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0)
        report = lifter.lift(_task(), observer=observer)
        assert report.success
        kinds = [event.name for event in observer.events]
        started = [e.member for e in observer.events if e.name == "member_started"]
        assert sorted(started) == ["STAGG_BU", "STAGG_TD"]
        assert kinds.count("portfolio_winner") == 1
        winner_events = [e for e in observer.events if e.name == "portfolio_winner"]
        assert winner_events[0].member == report.details["portfolio"]["winner"]
        # Stage events from the race phase carry member attribution; the
        # shared preparation's events stay untagged.
        race_stages = [
            e
            for e in observer.events
            if e.name == "stage_started" and e.attrs["stage"] in ("grammar", "search")
        ]
        assert race_stages and all(e.member for e in race_stages)

    def test_window_bounds_the_shared_prep_phase(self):
        # The configured window must cut off a slow oracle prep, not just
        # the race — otherwise prep runs unbounded and members start with
        # zero-second sub-budgets.
        from repro.lifting import BudgetExceeded
        from repro.portfolio import PortfolioLifter

        class SlowPrep:
            def prepare_state(self, task, *, budget=None, observer=None, report=None):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if budget is not None and budget.expired():
                        raise BudgetExceeded("prep cut off")
                    time.sleep(0.005)
                raise AssertionError("prep was never bounded")

            def lift_from_state(self, state, *, budget=None, observer=None):
                raise AssertionError("race must not start after prep timeout")

            def lift(self, task, *, budget=None, observer=None):
                raise AssertionError("race must not start after prep timeout")

        lifter = PortfolioLifter([("Slow", SlowPrep())], timeout_seconds=0.05)
        started = time.monotonic()
        report = lifter.lift(_task())
        assert time.monotonic() - started < 5.0
        assert report.timed_out and not report.success

    def test_expired_budget_stops_before_the_oracle(self):
        oracle = CountingOracle(OracleConfig(seed=2025))
        lifter = resolve_method(
            "Portfolio(STAGG_TD,STAGG_BU)", oracle=oracle, timeout_seconds=30.0
        )
        report = lifter.lift(_task(), budget=Budget(timeout_seconds=0.0))
        assert report.timed_out and not report.success
        assert oracle.calls == 0
        assert report.details["portfolio"]["winner"] is None

    def test_cancel_from_another_thread_stops_the_race(self):
        budget = Budget()
        # The documented hard case (tests/test_lifting_budget.py): the
        # unrefined top-down space over misleading rank-2 candidates has no
        # reachable solution, and with effectively unlimited search limits
        # only cancellation can end this race.
        from repro.core import SearchLimits
        from repro.llm import StaticOracle

        hard_limits = SearchLimits(
            max_expansions=50_000_000, max_candidates=5_000_000, timeout_seconds=None
        )
        oracle = StaticOracle(
            ["a(i,j) = b(i,k) * c(k,j) + d(i,j)", "a(i,j) = b(i,j) + c(i,j) + d(i,j)"]
        )
        lifter = resolve_method(
            "Portfolio(STAGG_TD.FullGrammar,STAGG_TD.LLMGrammar)",
            oracle=oracle,
            timeout_seconds=None,
            limits=hard_limits,
        )
        timer = threading.Timer(0.4, budget.cancel)
        timer.start()
        started = time.monotonic()
        report = lifter.lift(_task("dsp.mat_mult"), budget=budget)
        timer.cancel()
        assert time.monotonic() - started < 15.0
        assert not report.success
        assert report.timed_out

    def test_no_winner_aggregates_and_attributes(self):
        from repro.llm import StaticOracle

        # Neither member can express the sum of squares from this candidate
        # (see tests/test_cli_golden.py::test_unsolved_lift_exits_2).
        oracle = StaticOracle(["a = Const"])
        lifter = resolve_method(
            "Portfolio(STAGG_TD,STAGG_BU)", oracle=oracle, timeout_seconds=5.0
        )
        report = lifter.lift(_task("llama.rmsnorm_sum_squares"))
        assert not report.success
        portfolio = report.details["portfolio"]
        assert portfolio["winner"] is None
        assert len(portfolio["members"]) == 2
        assert report.attempts == sum(m["attempts"] for m in portfolio["members"])

    def test_stage_timings_cover_shared_prep_and_winning_search(self):
        lifter = resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0)
        report = lifter.lift(_task())
        timings = report.details["stage_timings"]
        assert {"oracle", "templatize", "dimension", "grammar", "search"} <= set(
            timings
        )
        # The shared preparation's oracle cost is real, not a skipped 0.0.
        assert timings["oracle"] > 0.0

    def test_mixed_portfolio_with_baseline_member(self):
        lifter = resolve_method("Portfolio(C2TACO,STAGG_BU)", timeout_seconds=30.0)
        report = lifter.lift(_task())
        assert report.success
        assert report.details["portfolio"]["winner"] in ("C2TACO", "STAGG_BU")


class TestDeterministicTieBreak:
    """The race contract, asserted identically on threads and processes."""

    def test_lowest_index_wins_a_tie(self, race_scheduler):
        runs, winner = race_scheduler.race(
            [("first", StubLifter(True)), ("second", StubLifter(True))],
            task="t", task_name="t",
        )
        assert winner is not None and winner.name == "first"

    def test_order_matters_not_finish_time_for_simultaneous_successes(
        self, race_scheduler
    ):
        # Both members succeed (the second too quickly for the first's win
        # to cancel it deterministically); the tie-break is member order.
        runs, winner = race_scheduler.race(
            [("a", StubLifter(True, delay=0.05)), ("b", StubLifter(True))],
            task="t", task_name="t",
        )
        assert winner.name == "a"

    def test_failed_members_never_win(self, race_scheduler):
        runs, winner = race_scheduler.race(
            [("a", StubLifter(False)), ("b", StubLifter(True))],
            task="t", task_name="t",
        )
        assert winner.name == "b"

    def test_member_that_finished_before_the_win_is_not_cancelled(
        self, race_scheduler
    ):
        # "a" fails genuinely well before "b" wins; its cancelled flag is
        # its own snapshot at finish time, so "a" must report a plain
        # failure (not cancelled) and no member_cancelled event fires.
        observer = RecordingObserver()
        runs, winner = race_scheduler.race(
            [("a", StubLifter(False)), ("b", StubLifter(True, delay=0.2))],
            task="t", task_name="t",
            observer=observer,
        )
        assert winner.name == "b"
        failed = next(run for run in runs if run.name == "a")
        assert not failed.cancelled
        assert not any(e.name == "member_cancelled" for e in observer.events)

    def test_member_exception_is_contained(self, race_scheduler):
        runs, winner = race_scheduler.race(
            [
                ("a", StubLifter(raises=RuntimeError("member harness bug"))),
                ("b", StubLifter(True)),
            ],
            task="t", task_name="t",
        )
        assert winner.name == "b"
        assert "RuntimeError" in runs[0].error

    # A thread member dying of SystemExit trips pytest's unhandled-thread-
    # exception hook; that death is exactly what this test provokes.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_member_base_exception_is_declared_lost(self, race_scheduler):
        # The member's worker ends without a result; the race must still
        # return (not wait forever for it) and record the loss.
        started = time.monotonic()
        runs, winner = race_scheduler.race(
            [("a", StubLifter(raises=SystemExit())), ("b", StubLifter(True))],
            task="t", task_name="t",
            budget=Budget(1.0),
        )
        assert time.monotonic() - started < 5.0
        assert winner is not None and winner.name == "b"
        assert "portfolio-t-a exited without a result" in runs[0].error
        assert runs[0].report is None

    def test_empty_race_rejected(self, race_scheduler):
        with pytest.raises(ValueError):
            race_scheduler.race([], task="t", task_name="t")


# ---------------------------------------------------------------------- #
# Cross-config state reuse (the invariant the portfolio relies on)
# ---------------------------------------------------------------------- #
class TestCrossConfigStateReuse:
    def test_oracle_queried_once_across_configs(self):
        oracle = CountingOracle(OracleConfig(seed=2025))
        state = PipelineState(task=_task())
        first = resolve_method(
            "STAGG_TD", oracle=oracle, timeout_seconds=20.0
        ).lift_from_state(state)
        assert first.success
        assert oracle.calls == 1
        second = resolve_method(
            "STAGG_BU.LLMGrammar", oracle=oracle, timeout_seconds=20.0
        ).lift_from_state(state)
        assert oracle.calls == 1  # re-search, no re-query
        assert second.details["stage_timings"]["oracle"] == 0.0

    def test_forks_share_oracle_artifacts_and_isolate_outcomes(self):
        oracle = CountingOracle(OracleConfig(seed=2025))
        synthesizer = resolve_method("STAGG_TD", oracle=oracle, timeout_seconds=20.0)
        state = synthesizer.prepare_state(_task())
        assert oracle.calls == 1
        fork_a, fork_b = state.fork(), state.fork()
        assert fork_a.oracle_response is state.oracle_response
        assert fork_a.templates is state.templates
        report_a = synthesizer.lift_from_state(fork_a)
        report_b = resolve_method(
            "STAGG_BU", oracle=oracle, timeout_seconds=20.0
        ).lift_from_state(fork_b)
        assert report_a.success and report_b.success
        assert oracle.calls == 1
        # Config-derived artifacts stayed per-fork.
        assert fork_a.outcome is not fork_b.outcome
        assert state.outcome is None

    def test_prepare_state_collects_stage_timings(self):
        synthesizer = resolve_method("STAGG_TD", timeout_seconds=20.0)
        report = SynthesisReport(task_name="t", method="STAGG_TD", success=False)
        state = synthesizer.prepare_state(_task(), report=report)
        assert state.oracle_response is not None
        assert state.dimension_list is not None
        assert state.outcome is None
        timings = report.details["stage_timings"]
        assert set(timings) == {"oracle", "templatize", "dimension"}


# ---------------------------------------------------------------------- #
# Store / cache integration
# ---------------------------------------------------------------------- #
class TestPortfolioStore:
    def test_cached_lifter_replays_portfolio_reports(self, tmp_path):
        from repro.service.store import CachedLifter

        cached = CachedLifter(
            resolve_method("Portfolio(STAGG_TD,STAGG_BU)", timeout_seconds=30.0),
            tmp_path / "store",
        )
        cold = cached.lift(_task())
        assert cold.success
        assert len(cached.store) == 1
        before = synthesis_invocations()
        warm = cached.lift(_task())
        assert synthesis_invocations() == before  # O(1) replay, no synthesis
        assert warm.success
        assert (
            warm.details["portfolio"]["winner"]
            == cold.details["portfolio"]["winner"]
        )

    def test_evaluation_runner_attributes_portfolio_rows(self):
        from repro.evaluation import EvaluationRunner, methods_by_name, text_report

        name = "Portfolio(STAGG_TD,STAGG_BU)"
        methods = methods_by_name(
            [name],
            oracle=SyntheticOracle(OracleConfig(seed=2025)),
            timeout_seconds=20.0,
        )
        benchmarks = [get_benchmark("darknet.copy_cpu"), get_benchmark("mathfu.dot")]
        result = EvaluationRunner(methods, benchmarks).run()
        assert result.methods() == [name]
        for record in result.records:
            assert record.report.method == name
            assert record.report.details["portfolio"]["winner"] is not None
        assert name in text_report(result)
        # The flattened rows (records.json / CSV) carry the attribution too.
        from repro.evaluation import records_as_rows

        for row in records_as_rows(result):
            assert row["winner"] in ("STAGG_TD", "STAGG_BU")
