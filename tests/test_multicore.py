"""Determinism and lifecycle tests for the process-backed portfolio race.

The same task and seed produce identical `SynthesisReport` programs and
winner attribution whether members race on threads or processes, on a
kernel only one member solves; where both members solve, the winner's
report equals that member's standalone lift whichever member is faster.
The first win cancels the losers cooperatively across the process
boundary, and no child process ever outlives the race.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.lifting import ExecutionConfig, RecordingObserver, resolve_method
from repro.portfolio import ProcessMemberScheduler
from repro.portfolio.process_scheduler import _pickle_lifter
from repro.suite import get_benchmark

PORTFOLIO = "Portfolio(STAGG_TD,STAGG_BU)"


def _task(name: str = "darknet.copy_cpu"):
    return get_benchmark(name).task()


def _lift(method: str, backend: str, task_name: str = "darknet.copy_cpu"):
    lifter = resolve_method(
        method,
        timeout_seconds=30.0,
        oracle_seed=2025,
        execution=ExecutionConfig(backend=backend, workers=2),
    )
    return lifter.lift(_task(task_name))


def _no_orphans():
    for child in multiprocessing.active_children():
        child.join(5)
    return not multiprocessing.active_children()


# ---------------------------------------------------------------------- #
# The determinism suite: threads vs. processes, same outcome
# ---------------------------------------------------------------------- #
#: Only STAGG_TD solves this kernel (STAGG_BU fails after one attempt), so
#: the race's winner does not depend on which member is faster and the two
#: backends must agree exactly.
STRICT_KERNEL = "llama.rmsnorm_sum_squares"
#: Both members solve these kernels within milliseconds, so which one wins
#: depends on speed; only speed-independent properties are asserted.
BOTH_SOLVE = ["darknet.copy_cpu", "blend.add_pixels", "simpl_array.sum_three"]


class TestDeterminism:
    def test_portfolio_program_matches_threads(self):
        threaded = _lift(PORTFOLIO, "threads", STRICT_KERNEL)
        processed = _lift(PORTFOLIO, "processes", STRICT_KERNEL)
        assert threaded.success and processed.success
        assert str(processed.lifted_program) == str(threaded.lifted_program)
        assert processed.attempts == threaded.attempts

    def test_portfolio_winner_attribution_matches_threads(self):
        threaded = _lift(PORTFOLIO, "threads", STRICT_KERNEL)
        processed = _lift(PORTFOLIO, "processes", STRICT_KERNEL)
        thread_race = threaded.details["portfolio"]
        process_race = processed.details["portfolio"]
        assert process_race["winner"] == thread_race["winner"] == "STAGG_TD"
        assert [m["name"] for m in process_race["members"]] == [
            m["name"] for m in thread_race["members"]
        ]
        assert [m["success"] for m in process_race["members"]] == [
            m["success"] for m in thread_race["members"]
        ]

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("kernel", BOTH_SOLVE)
    def test_winner_matches_its_standalone_lift(self, kernel, backend):
        report = _lift(PORTFOLIO, backend, kernel)
        race = report.details["portfolio"]
        assert report.success and race["winner"] is not None
        alone = _lift(race["winner"], "threads", kernel)
        assert str(report.lifted_program) == str(alone.lifted_program)
        assert report.attempts == alone.attempts
        for member in race["members"]:
            if member["name"] != race["winner"]:
                # A loser that was not cancelled ran to its own solution.
                assert member["cancelled"] or member["success"]

    def test_llm_baseline_matches_threads(self):
        # The sharded-validation path: the LLM baseline partitions its
        # candidate stream over the pool and must accept the same
        # candidate with the same attempt count as the sequential scan.
        threaded = _lift("LLM", "threads")
        processed = _lift("LLM", "processes")
        assert processed.success == threaded.success
        assert str(processed.lifted_program) == str(threaded.lifted_program)
        assert str(processed.template) == str(threaded.template)
        assert processed.attempts == threaded.attempts

    def test_process_report_round_trips_json(self):
        report = _lift(PORTFOLIO, "processes")
        from repro.core.result import SynthesisReport

        clone = SynthesisReport.from_json_dict(report.to_json_dict())
        assert clone.success and str(clone.lifted_program) == str(
            report.lifted_program
        )


# ---------------------------------------------------------------------- #
# Cancellation and child lifecycle
# ---------------------------------------------------------------------- #
class TestRaceLifecycle:
    def test_no_child_outlives_the_race(self):
        report = _lift(PORTFOLIO, "processes")
        assert report.success
        assert _no_orphans()

    def test_loser_is_cancelled_or_finished(self):
        # Both members solve copy_cpu; the lowest-index success wins and
        # the other member either finished before the token flipped or was
        # cancelled at a poll point — it must never be left running.
        report = _lift(PORTFOLIO, "processes")
        race = report.details["portfolio"]
        assert race["winner"] is not None
        for member in race["members"]:
            assert member["success"] or member["cancelled"] or member["error"]
        assert _no_orphans()

    def test_observer_sees_the_full_race(self):
        observer = RecordingObserver()
        lifter = resolve_method(
            PORTFOLIO,
            timeout_seconds=30.0,
            oracle_seed=2025,
            execution=ExecutionConfig("processes", workers=2),
        )
        report = lifter.lift(_task(), observer=observer)
        assert report.success
        events = [event.name for event in observer.events]
        assert events.count("member_started") == 2
        assert "portfolio_winner" in events
        started = [
            events.index("member_started"),
            events.index("member_started", events.index("member_started") + 1),
        ]
        assert max(started) < events.index("portfolio_winner")

    def test_parent_budget_expiry_cancels_children(self):
        from repro.lifting import Budget

        lifter = resolve_method(
            PORTFOLIO,
            timeout_seconds=30.0,
            oracle_seed=2025,
            execution=ExecutionConfig("processes", workers=2),
        )
        report = lifter.lift(_task(), budget=Budget(0.0))
        assert not report.success
        assert report.timed_out
        assert _no_orphans()


# ---------------------------------------------------------------------- #
# Loud pickling errors for race members
# ---------------------------------------------------------------------- #
class _UnpicklableLifter:
    label = "Unpicklable"

    def __init__(self) -> None:
        self.hook = lambda: None  # lambdas never pickle

    def lift(self, task, budget=None, observer=None):  # pragma: no cover
        raise AssertionError("never raced")


class TestMemberPickling:
    def test_unpicklable_member_is_named(self):
        with pytest.raises(TypeError, match="Unpicklable"):
            _pickle_lifter("Unpicklable", _UnpicklableLifter())

    def test_registered_members_pickle(self):
        for name in ("STAGG_TD", "STAGG_BU"):
            lifter = resolve_method(name, timeout_seconds=30.0)
            assert pickle.loads(_pickle_lifter(name, lifter)).__class__ is (
                lifter.__class__
            )


class _ExitingLifter:
    """A member whose worker process dies without reporting a result."""

    label = "Exiting"

    def lift(self, task, budget=None, observer=None):
        os._exit(3)


# ---------------------------------------------------------------------- #
# The scheduler surface used by PortfolioLifter
# ---------------------------------------------------------------------- #
class TestProcessMemberScheduler:
    def test_race_returns_ordered_runs_and_winner(self):
        members = [
            (name, resolve_method(name, timeout_seconds=30.0, oracle_seed=2025))
            for name in ("STAGG_TD", "STAGG_BU")
        ]
        runs, winner = ProcessMemberScheduler().race(
            members, task=_task(), task_name="darknet.copy_cpu"
        )
        assert [run.name for run in runs] == ["STAGG_TD", "STAGG_BU"]
        assert winner is not None and winner.succeeded
        # Thread-scheduler parity: the winner is the lowest-index success.
        successes = [run for run in runs if run.succeeded]
        assert winner.name == successes[0].name
        assert _no_orphans()

    def test_dead_child_is_declared_lost_with_its_elapsed_time(self):
        observer = RecordingObserver()
        members = [
            ("crash", _ExitingLifter()),
            ("STAGG_TD", resolve_method("STAGG_TD", timeout_seconds=30.0, oracle_seed=2025)),
        ]
        runs, winner = ProcessMemberScheduler().race(
            members, task=_task(), task_name="darknet.copy_cpu", observer=observer
        )
        crashed = runs[0]
        assert "exitcode 3" in crashed.error
        assert crashed.report is None and not crashed.succeeded
        assert crashed.elapsed_seconds > 0
        assert winner is not None and winner.name == "STAGG_TD"
        finished = [e for e in observer.events if e.name == "member_finished"]
        assert sorted(e.member for e in finished) == ["STAGG_TD", "crash"]
        lost = next(e for e in finished if e.member == "crash")
        assert lost.attrs["seconds"] == crashed.elapsed_seconds > 0
        assert _no_orphans()


# ---------------------------------------------------------------------- #
# The benchmark's wrap point
# ---------------------------------------------------------------------- #
class TestProcessRaceWrapPoint:
    """liftbench's ``portfolio.race`` layer wraps ``ProcessMemberScheduler.race``.

    A process-backed lift must call through that class attribute, or the
    layer silently records nothing.
    """

    @pytest.mark.parametrize("backend, calls", [("processes", 1), ("threads", 0)])
    def test_lift_races_through_the_process_race_attribute(
        self, monkeypatch, backend, calls
    ):
        seen = []
        original = ProcessMemberScheduler.race

        def counted(self, *args, **kwargs):
            seen.append(kwargs["task_name"])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProcessMemberScheduler, "race", counted)
        report = _lift(PORTFOLIO, backend)
        assert report.success
        assert seen == ["darknet.copy_cpu"] * calls
