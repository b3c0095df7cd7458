"""Tests for the baseline lifters: C2TACO, Tenspiler and LLM-only."""

from __future__ import annotations


from repro.baselines import C2TacoLifter, LLMOnlyLifter, TenspilerLifter
from repro.core import VerifierConfig
from repro.llm import StaticOracle, SyntheticOracle
from repro.suite import get_benchmark

FAST_VERIFIER = VerifierConfig(size_bound=2, exhaustive_cap=200, sampled_checks=8)


def _task(name):
    return get_benchmark(name).task()


class TestC2Taco:
    def test_lifts_elementwise_kernel(self):
        lifter = C2TacoLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("darknet.mul_cpu"))
        assert report.success, report.error
        assert "*" in report.lifted_source

    def test_lifts_matvec(self):
        lifter = C2TacoLifter(verifier_config=FAST_VERIFIER, timeout_seconds=60)
        report = lifter.lift(_task("darknet.forward_connected"))
        assert report.success, report.error

    def test_lifts_constant_kernel(self):
        lifter = C2TacoLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("simpl_array.array_triple"))
        assert report.success, report.error
        assert "3" in report.lifted_source

    def test_no_heuristics_needs_more_attempts(self):
        with_heuristics = C2TacoLifter(
            use_heuristics=True, verifier_config=FAST_VERIFIER, timeout_seconds=60
        ).lift(_task("mathfu.hadamard"))
        without_heuristics = C2TacoLifter(
            use_heuristics=False, verifier_config=FAST_VERIFIER, timeout_seconds=60
        ).lift(_task("mathfu.hadamard"))
        assert with_heuristics.success and without_heuristics.success
        assert without_heuristics.attempts > with_heuristics.attempts

    def test_labels(self):
        assert C2TacoLifter(use_heuristics=True).label == "C2TACO"
        assert C2TacoLifter(use_heuristics=False).label == "C2TACO.NoHeuristics"

    def test_timeout_is_reported(self):
        lifter = C2TacoLifter(verifier_config=FAST_VERIFIER, timeout_seconds=0.01)
        report = lifter.lift(_task("dsp.scaled_residual"))
        assert not report.success
        assert report.timed_out


class TestTenspiler:
    def test_lifts_library_shaped_kernel(self):
        lifter = TenspilerLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("blend.add_pixels"))
        assert report.success, report.error

    def test_lifts_matvec(self):
        lifter = TenspilerLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("mathfu.mat_apply"))
        assert report.success, report.error

    def test_fails_outside_template_library(self):
        lifter = TenspilerLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("llama.rmsnorm_scale"))
        assert not report.success

    def test_attempt_counts_are_small(self):
        lifter = TenspilerLifter(verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("simpl_array.array_scale"))
        assert report.success
        assert report.attempts <= 40


class TestLLMOnly:
    def test_solves_when_oracle_is_right(self):
        oracle = StaticOracle(["res(i) = v1(i) * v2(i)"])
        lifter = LLMOnlyLifter(oracle, verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("mathfu.hadamard"))
        assert report.success

    def test_fails_when_oracle_is_wrong(self):
        oracle = StaticOracle(["res(i) = v1(i) + v2(i)", "res(i) = v1(i,j)"])
        lifter = LLMOnlyLifter(oracle, verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("mathfu.hadamard"))
        assert not report.success
        assert report.attempts >= 1

    def test_commits_to_first_accepted_candidate(self):
        # The raw candidates are validated in the oracle's order and the
        # scan stops at the first one that passes: a later correct
        # candidate is never tried.
        oracle = StaticOracle([
            "res(i) = v1(i) + v2(i)",
            "res(i) = v1(i) * v2(i)",
            "res(i) = v1(i) - v2(i)",
        ])
        lifter = LLMOnlyLifter(oracle, verifier_config=FAST_VERIFIER, timeout_seconds=30)
        report = lifter.lift(_task("mathfu.hadamard"))
        assert report.success
        assert report.attempts == 2
        assert "*" in str(report.lifted_program)

    def test_spent_timeout_stops_before_any_candidate(self):
        oracle = StaticOracle(["res(i) = v1(i) * v2(i)"])
        lifter = LLMOnlyLifter(oracle, verifier_config=FAST_VERIFIER, timeout_seconds=0.0)
        report = lifter.lift(_task("mathfu.hadamard"))
        assert report.timed_out
        assert not report.success
        assert report.attempts == 0
        assert report.error == ""

    def test_synthetic_oracle_end_to_end(self):
        lifter = LLMOnlyLifter(
            SyntheticOracle(), verifier_config=FAST_VERIFIER, timeout_seconds=30
        )
        report = lifter.lift(_task("darknet.copy_cpu"))
        # May or may not solve depending on the noise draw, but must not error.
        assert report.error == ""
