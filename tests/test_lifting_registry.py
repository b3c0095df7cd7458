"""Tests for the method registry (`repro.lifting.registry`).

The registry is the *only* construction path for lifting methods: the CLI,
the evaluation runner and the HTTP service all resolve by name, so these
tests pin (a) the registered name set, (b) the resolved objects' labels and
classes, and (c) the digest-parity invariant — the same method name yields
an identical lifter descriptor (and therefore store digest) no matter which
consumer layer built it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import C2TacoLifter, LLMOnlyLifter, TenspilerLifter
from repro.core import StaggSynthesizer
from repro.lifting import (
    GRAMMAR_ABLATION_METHODS,
    Lifter,
    PENALTY_ABLATION_METHODS,
    RecordingObserver,
    STANDARD_METHODS,
    method_name_for,
    method_names,
    method_spec,
    register_method,
    resolve_method,
    resolve_methods,
)
from repro.lifting.registry import _REGISTRY  # white-box: registration table
from repro.llm import OracleConfig, SyntheticOracle
from repro.service.api import LiftRequest, build_lifter
from repro.service.digest import lift_digest
from repro.suite import get_benchmark


class TestRegistryContents:
    def test_standard_methods_registered(self):
        for name in STANDARD_METHODS:
            assert name in method_names()

    def test_ablations_registered(self):
        for name in PENALTY_ABLATION_METHODS + GRAMMAR_ABLATION_METHODS:
            assert name in method_names()

    def test_kinds_partition(self):
        stagg = set(method_names(kind="stagg"))
        baseline = set(method_names(kind="baseline"))
        portfolio = set(method_names(kind="portfolio"))
        assert stagg.isdisjoint(baseline)
        assert portfolio.isdisjoint(stagg | baseline)
        assert stagg | baseline | portfolio == set(method_names())
        assert {"LLM", "C2TACO", "C2TACO.NoHeuristics", "Tenspiler"} <= baseline
        assert "Portfolio.Default" in portfolio

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="STAGG_TD"):
            resolve_method("NoSuchMethod")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method("STAGG_TD", lambda context: None)

    def test_register_replace_roundtrip(self):
        original = _REGISTRY["Tenspiler"]
        try:
            register_method(
                "Tenspiler", lambda context: "sentinel", kind="baseline", replace=True
            )
            assert resolve_method("Tenspiler") == "sentinel"
        finally:
            _REGISTRY["Tenspiler"] = original
        assert isinstance(resolve_method("Tenspiler"), TenspilerLifter)


class TestResolvedMethods:
    def test_stagg_labels_match_registry_names(self):
        for name in method_names(kind="stagg"):
            lifter = resolve_method(name, timeout_seconds=5.0)
            assert isinstance(lifter, StaggSynthesizer)
            assert lifter.config.label == name

    def test_baseline_classes(self):
        assert isinstance(resolve_method("LLM"), LLMOnlyLifter)
        assert isinstance(resolve_method("C2TACO"), C2TacoLifter)
        assert isinstance(resolve_method("C2TACO.NoHeuristics"), C2TacoLifter)
        assert isinstance(resolve_method("Tenspiler"), TenspilerLifter)

    def test_baseline_labels_match_registry_names(self):
        for name in method_names(kind="baseline"):
            assert resolve_method(name).label == name

    def test_every_method_satisfies_the_lifter_protocol(self):
        for name in method_names():
            lifter = resolve_method(name)
            assert isinstance(lifter, Lifter)
            descriptor = lifter.descriptor()
            assert descriptor["class"] == type(lifter).__qualname__
            json.dumps(descriptor)  # JSON-safe

    def test_timeout_flows_into_search_limits(self):
        lifter = resolve_method("STAGG_TD", timeout_seconds=12.5)
        assert lifter.config.limits.timeout_seconds == 12.5

    def test_stagg_and_baselines_validate_tiered(self):
        # Every method checks candidates through the tiered validator: the
        # float screen rejects most wrong substitutions before the exact
        # tier runs.
        task = get_benchmark("darknet.axpy_cpu").task()
        observer = RecordingObserver()
        report = resolve_method("STAGG_TD", timeout_seconds=20.0).lift(
            task, observer=observer
        )
        assert report.success
        stats = [e.attrs for e in observer.events if e.name == "validator_stats"]
        assert stats and stats[0]["screen_rejects"] > 0
        assert stats[0]["exact_checks"] < stats[0]["candidates"]
        for name in method_names(kind="baseline"):
            context = resolve_method(name)._prepare(task)  # noqa: SLF001
            assert context.validator.tiered

    def test_descriptors_carry_no_retired_knobs(self):
        # A setting no caller changes must not enter the store digest.
        retired = ("tiered", "avoid_zero", "retrieval_k", "seed_boost", "execution")
        for name in method_names() + ["Portfolio(STAGG_TD,STAGG_BU)"]:
            rendered = json.dumps(resolve_method(name).descriptor(), default=str)
            for knob in retired:
                assert knob not in rendered, (name, knob)

    def test_resolve_methods_bulk(self):
        methods = resolve_methods(("STAGG_TD", "Tenspiler"), timeout_seconds=3.0)
        assert list(methods) == ["STAGG_TD", "Tenspiler"]

    def test_legacy_shape_mapping(self):
        assert method_name_for("topdown", "refined", "learned") == "STAGG_TD"
        assert method_name_for("bottomup", "full", "equal") == "STAGG_BU.FullGrammar"
        with pytest.raises(ValueError):
            method_name_for("sideways", "refined", "learned")

    def test_descriptions_present(self):
        for name in method_names():
            assert method_spec(name).description


class TestDigestParity:
    """Same name + same parameters ⇒ same descriptor ⇒ same store digest.

    This is the O(1) store-replay soundness invariant from ROADMAP
    "Serving": a digest computed by any consumer layer must address the
    same store entry.
    """

    def _task(self):
        return get_benchmark("darknet.copy_cpu").task()

    def _cli_path_digest(self, name: str) -> str:
        # What `repro lift --method` builds (cli._cmd_lift): an explicit
        # oracle plus the registry resolution.
        oracle = SyntheticOracle(OracleConfig(seed=2025))
        lifter = resolve_method(name, oracle=oracle, timeout_seconds=60.0, seed=7)
        return lift_digest(self._task(), lifter.descriptor())

    def _evaluation_path_digest(self, name: str) -> str:
        from repro.evaluation import methods_by_name

        oracle = SyntheticOracle(OracleConfig(seed=2025))
        lifter = methods_by_name([name], oracle=oracle, timeout_seconds=60.0)[name]
        return lift_digest(self._task(), lifter.descriptor())

    def _service_path_digest(self, name: str) -> str:
        request = LiftRequest(
            benchmark="darknet.copy_cpu", method=name, timeout=60.0, oracle_seed=2025
        )
        return lift_digest(self._task(), build_lifter(request).descriptor())

    @pytest.mark.parametrize(
        "name", ["STAGG_TD", "STAGG_BU", "STAGG_TD.FullGrammar", "C2TACO", "Tenspiler"]
    )
    def test_three_construction_paths_agree(self, name):
        cli = self._cli_path_digest(name)
        evaluation = self._evaluation_path_digest(name)
        service = self._service_path_digest(name)
        assert cli == evaluation == service

    def test_llm_baseline_parity(self):
        # The LLM baseline embeds the oracle in its descriptor, so oracle
        # seeds must flow identically through all three paths too.
        assert (
            self._cli_path_digest("LLM")
            == self._evaluation_path_digest("LLM")
            == self._service_path_digest("LLM")
        )

    def test_different_methods_have_different_digests(self):
        digests = {self._cli_path_digest(n) for n in STANDARD_METHODS}
        assert len(digests) == len(STANDARD_METHODS)


class TestSingleConstructionPath:
    """Guard the acceptance criterion: consumers never instantiate lifters
    directly — `resolve_method` is the only construction path."""

    SOURCES = (
        "src/repro/cli.py",
        "src/repro/evaluation/runner.py",
        "src/repro/service/api.py",
    )

    @pytest.mark.parametrize("relpath", SOURCES)
    def test_no_direct_lifter_instantiation(self, relpath):
        root = Path(__file__).resolve().parent.parent
        source = (root / relpath).read_text(encoding="utf-8")
        for symbol in (
            "StaggSynthesizer(",
            "C2TacoLifter(",
            "TenspilerLifter(",
            "LLMOnlyLifter(",
        ):
            assert symbol not in source, f"{relpath} instantiates {symbol}...) directly"
