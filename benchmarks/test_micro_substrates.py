"""Experiment E7 — micro-benchmarks of the substrates.

Not a paper table; these pytest-benchmark measurements track the throughput
of the building blocks the evaluation rests on (TACO parsing and evaluation,
mini-C interpretation, grammar construction, template search), so performance
regressions in the substrates are visible independently of the end-to-end
numbers.
"""

from __future__ import annotations

import numpy as np

from repro.cfront import parse_function, run_function
from repro.core import (
    IOExampleGenerator,
    StaggConfig,
    StaggSynthesizer,
    SearchLimits,
    VerifierConfig,
)
from repro.core.grammar_gen import topdown_template_grammar
from repro.core.pcfg_learn import learn_pcfg
from repro.core.templates import templatize_all
from repro.llm import SyntheticOracle
from repro.suite import get_benchmark
from repro.taco import TacoEvaluator, parse_program

MATMUL_SOURCE = """
void gemm(int N, int M, int K, float *A, float *B, float *C) {
    for (int i = 0; i < N; i++) {
        for (int j = 0; j < M; j++) {
            C[i * M + j] = 0;
            for (int p = 0; p < K; p++) {
                C[i * M + j] += A[i * K + p] * B[p * M + j];
            }
        }
    }
}
"""


def test_taco_parsing_throughput(benchmark):
    benchmark(parse_program, "a(i,j) = b(i,k) * c(k,j) + d(i,j) / 2")


def test_taco_evaluation_matmul(benchmark):
    evaluator = TacoEvaluator(mode="float")
    program = parse_program("a(i,j) = b(i,k) * c(k,j)")
    b = np.random.default_rng(0).integers(-5, 5, size=(16, 16)).astype(float)
    c = np.random.default_rng(1).integers(-5, 5, size=(16, 16)).astype(float)
    benchmark(evaluator.evaluate, program, {"b": b, "c": c})


def test_cfront_parse_and_interpret_matmul(benchmark):
    fn = parse_function(MATMUL_SOURCE)
    args = {
        "N": 8,
        "M": 8,
        "K": 8,
        "A": np.arange(64, dtype=float),
        "B": np.arange(64, dtype=float),
        "C": np.zeros(64),
    }
    benchmark(run_function, fn, args, "float")


def test_io_example_generation(benchmark):
    task = get_benchmark("darknet.forward_connected").task()
    generator = IOExampleGenerator(task, seed=3)
    benchmark(generator.generate_one)


def test_grammar_construction_and_learning(benchmark):
    candidates = [
        "r(i) = m(i,j) * v(j)",
        "r(i) = m(j,i) * v(i)",
        "out(i) = A(i,j) * x(j)",
        "y(i) = W(i,j) * v(j) + b(i)",
    ]
    templates = templatize_all([parse_program(c) for c in candidates])

    def build():
        grammar = topdown_template_grammar((1, 2, 1), 2, templates, constants=())
        return learn_pcfg(grammar, templates, style="topdown")

    benchmark(build)


def test_end_to_end_lift_matvec(benchmark):
    """Wall-clock of one full STAGG_TD lift of the Figure-2 style kernel."""
    synthesizer = StaggSynthesizer(
        SyntheticOracle(),
        StaggConfig.topdown(
            limits=SearchLimits(max_expansions=30_000, max_candidates=500, timeout_seconds=30),
            verifier=VerifierConfig(size_bound=2, exhaustive_cap=200, sampled_checks=8),
        ),
    )
    task = get_benchmark("darknet.forward_connected").task()
    result = benchmark.pedantic(synthesizer.lift, args=(task,), rounds=1, iterations=1)
    assert result.success
