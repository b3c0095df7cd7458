#!/usr/bin/env python
"""Lift the llama2.cpp-style inference kernels (the paper's Llama queries).

The paper's corpus includes six kernels taken from the C++ inference code of
Llama; this example lifts the reproduction's six ``llama.*`` benchmarks with
both STAGG searches and shows the resulting TACO expressions side by side.

Run with:  python examples/lift_llama_kernels.py
"""

from __future__ import annotations

from repro import SearchLimits, StaggConfig, StaggSynthesizer, VerifierConfig
from repro.llm import SyntheticOracle
from repro.suite import select

LIMITS = SearchLimits(max_expansions=60_000, max_candidates=2_000, timeout_seconds=60)
VERIFIER = VerifierConfig(size_bound=2, exhaustive_cap=729, sampled_checks=24)


def main() -> None:
    benchmarks = select(categories=["llama"])
    oracle = SyntheticOracle()
    topdown = StaggSynthesizer(oracle, StaggConfig.topdown(limits=LIMITS, verifier=VERIFIER))
    bottomup = StaggSynthesizer(oracle, StaggConfig.bottomup(limits=LIMITS, verifier=VERIFIER))

    print(f"Lifting {len(benchmarks)} llama kernels\n")
    header = (
        f"{'benchmark':32s} {'method':9s} {'ok':3s} {'time':>7s} {'attempts':>9s}"
        "  lifted expression"
    )
    print(header)
    print("-" * len(header))
    for benchmark in benchmarks:
        for label, synthesizer in (("STAGG_TD", topdown), ("STAGG_BU", bottomup)):
            report = synthesizer.lift(benchmark.task())
            print(
                f"{benchmark.name:32s} {label:9s} "
                f"{'yes' if report.success else 'no ':3s} "
                f"{report.elapsed_seconds:6.2f}s {report.attempts:9d}  "
                f"{report.lifted_source or report.error or '(not solved)'}"
            )
        print(f"{'':32s} {'ground truth:':23s} {benchmark.ground_truth}")
        print()


if __name__ == "__main__":
    main()
