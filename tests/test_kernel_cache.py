"""The process-wide kernel cache (`repro.core.kernel`).

Cached facts must equal freshly computed ones (examples, symbolic runs,
proofs and refutations), shared arrays must refuse writes, different specs
and functions must get their own entries, the bound must evict, and the
cache must serve concurrent service workers and forked race members without
changing an outcome.  Tests here clear the cache only where they need a cold
start; the rest of the suite runs with it live.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cfront.analysis import analyze_signature
from repro.cli import infer_input_spec
from repro.core import kernel as kernel_module
from repro.core.io_examples import IOExampleGenerator
from repro.core.kernel import MAX_KERNELS, clear_kernels, kernel_of
from repro.core.poly import NotPolynomial, is_zero
from repro.core.task import InputSpec, LiftingTask
from repro.core.verifier import BoundedEquivalenceChecker
from repro.lifting import ExecutionConfig, resolve_method
from repro.lifting.checking import build_harness
from repro.suite import get_benchmark
from repro.taco import parse_program

#: One kernel per family: elementwise, scalar broadcast, reduction, matmul,
#: division by an input.
KERNELS = (
    "darknet.copy_cpu",
    "blend.lift_black_level",
    "darknet.dot_cpu",
    "darknet.gemm_nn",
    "dsp.normalize",
)

#: A value-dependent branch: every symbolic run needs an input's value.
BRANCHY = LiftingTask(
    name="test.branchy",
    c_source=(
        "void f(int n, float *x, float *out) { for (int i = 0; i < n; i++)"
        " if (x[i] > 0) out[i] = x[i]; else out[i] = 0; }"
    ),
    spec=InputSpec(sizes={"n": 3}, arrays={"x": ("n",), "out": ("n",)}),
)
#: Copies ``x`` but divides by ``n - 1``: traps at size 1 on every input.
TRAPS_AT_ONE = LiftingTask(
    name="test.traps_at_one",
    c_source=(
        "void f(int n, float *x, float *out) {"
        " for (int i = 0; i < n; i++) out[i] = x[i] * (n - 1) / (n - 1); }"
    ),
    spec=InputSpec(sizes={"n": 3}, arrays={"x": ("n",), "out": ("n",)}),
)


def _fresh_examples(task, seed=7, count=3):
    function = task.parse()
    return IOExampleGenerator(
        task, function, analyze_signature(function), seed=seed
    ).generate(count)


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
        return a.shape == b.shape and all(
            is_zero(x - y) for x, y in zip(a.reshape(-1), b.reshape(-1))
        )
    return is_zero(a - b)


def _same_examples(cached, fresh) -> bool:
    return len(cached) == len(fresh) and all(
        c.inputs.keys() == f.inputs.keys()
        and all(_same_value(c.inputs[k], f.inputs[k]) for k in c.inputs)
        and _same_value(c.output, f.output)
        and c.sizes == f.sizes
        for c, f in zip(cached, fresh)
    )


def _verdict(result):
    example = result.counterexample
    return (
        result.equivalent,
        result.proved,
        result.proved_sizes,
        result.checks_run,
        result.exhaustive,
        None if example is None else repr((example.inputs, example.output)),
    )


def _mutant(source: str) -> str:
    for old, new in (("*", "+"), ("+", "-"), ("/", "*")):
        if old in source:
            return source.replace(old, new, 1)
    return source.replace("=", "= 2 *", 1)


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("name", KERNELS)
    def test_examples(self, name):
        task = get_benchmark(name).task()
        harness = build_harness(task)
        assert _same_examples(harness.examples, _fresh_examples(task))

    @pytest.mark.parametrize("name", KERNELS)
    def test_symbolic_runs(self, name):
        task = get_benchmark(name).task()
        function = task.parse()
        fresh = IOExampleGenerator(task, function, analyze_signature(function))
        for size in (1, 2, 3):
            sizes = {parameter: size for parameter in task.spec.sizes}
            cached, run = kernel_of(task).symbolic_run(task, sizes), fresh.run_symbolic(sizes)
            assert cached.variables == run.variables
            assert cached.divisors == run.divisors
            assert cached.inputs.keys() == run.inputs.keys()
            assert all(_same_value(cached.inputs[k], run.inputs[k]) for k in run.inputs)
            assert _same_value(cached.output, run.output)

    @pytest.mark.parametrize("name", KERNELS)
    def test_proofs_and_refutations(self, name):
        bench = get_benchmark(name)
        truth = str(bench.ground_truth_program())
        for source in (truth, _mutant(truth)):
            program = parse_program(source)
            clear_kernels()
            cold = BoundedEquivalenceChecker(bench.task()).verify(program)
            warm = BoundedEquivalenceChecker(bench.task()).verify(program)
            assert _verdict(warm) == _verdict(cold), source
        assert cold.counterexample is not None  # the mutant is refuted

    def test_value_dependent_kernel_falls_back_alike(self):
        kernel = kernel_of(BRANCHY)
        for _ in range(2):  # computed, then cached
            with pytest.raises(NotPolynomial):
                kernel.symbolic_run(BRANCHY, {"n": 2})
        program = parse_program("out(i) = x(i)")
        clear_kernels()
        cold = BoundedEquivalenceChecker(BRANCHY).verify(program)
        warm = BoundedEquivalenceChecker(BRANCHY).verify(program)
        assert _verdict(warm) == _verdict(cold)
        assert not cold.proved and cold.checks_run > 0

    def test_trapping_size_is_cached_as_a_trap(self):
        kernel = kernel_of(TRAPS_AT_ONE)
        assert kernel.symbolic_run(TRAPS_AT_ONE, {"n": 1}) is None
        assert kernel.symbolic_run(TRAPS_AT_ONE, {"n": 1}) is None
        assert kernel.symbolic_run(TRAPS_AT_ONE, {"n": 2}) is not None
        program = parse_program("out(i) = x(i)")
        clear_kernels()
        cold = BoundedEquivalenceChecker(TRAPS_AT_ONE).verify(program)
        warm = BoundedEquivalenceChecker(TRAPS_AT_ONE).verify(program)
        assert _verdict(warm) == _verdict(cold)
        assert cold.proved and cold.proved_sizes == (2, 3)

    def test_lift_reports_match_cold(self):
        task = get_benchmark("blend.weighted_sum").task()
        reports = []
        for _ in range(2):  # cold, then warm
            clear_kernels()
            lifter = resolve_method("STAGG_TD", timeout_seconds=30.0)
            reports.append([lifter.lift(task), lifter.lift(task)])
        fingerprints = {
            (r.success, str(r.lifted_program), r.attempts, r.nodes_expanded)
            for pair in reports
            for r in pair
        }
        assert len(fingerprints) == 1 and reports[0][0].success


class TestReadOnly:
    def test_writing_into_a_shared_example_raises(self):
        task = get_benchmark("darknet.dot_cpu").task()
        example = build_harness(task).examples[0]
        arrays = [v for v in example.inputs.values() if isinstance(v, np.ndarray)]
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        assert build_harness(task).examples[0] is example

    def test_writing_into_a_shared_run_raises(self):
        task = get_benchmark("darknet.gemm_nn").task()
        sizes = {parameter: 2 for parameter in task.spec.sizes}
        run = kernel_of(task).symbolic_run(task, sizes)
        with pytest.raises(ValueError):
            run.output[0, 0] = 0
        for array in run.inputs.values():
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 0


class TestKeys:
    def test_inferred_spec_gets_its_own_examples(self):
        corpus = get_benchmark("darknet.gemm_nn").task()
        inferred = LiftingTask(
            name="gemm_nn.c",
            c_source=corpus.c_source,
            spec=infer_input_spec(corpus.c_source),
            reference_solution=corpus.reference_solution,
        )
        assert inferred.spec != corpus.spec
        assert kernel_of(inferred) is kernel_of(corpus)  # one parse
        ours, theirs = build_harness(inferred).examples, build_harness(corpus).examples
        assert _same_examples(ours, _fresh_examples(inferred))
        assert _same_examples(theirs, _fresh_examples(corpus))
        assert ours[0].sizes != theirs[0].sizes

    def test_seed_and_count_are_part_of_the_key(self):
        task = get_benchmark("darknet.copy_cpu").task()
        kernel = kernel_of(task)
        three = kernel.examples(task, seed=7, count=3)
        assert kernel.examples(task, seed=7, count=3) is three
        assert _same_examples(kernel.examples(task, seed=8, count=3), _fresh_examples(task, 8))
        assert _same_examples(kernel.examples(task, seed=7, count=2), three[:2])

    def test_function_name_selects_its_own_kernel(self):
        source = (
            "void f(int n, float *x, float *out) { for (int i = 0; i < n; i++) out[i] = x[i]; }\n"
            "void g(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 2 * x[i]; }"
        )
        spec = InputSpec(sizes={"n": 3}, arrays={"x": ("n",), "out": ("n",)})
        tasks = [LiftingTask(name, source, spec, function_name=name) for name in "fg"]
        kernels = [kernel_of(task) for task in tasks]
        assert [k.function.name for k in kernels] == ["f", "g"]
        assert kernels[0].constants == () and kernels[1].constants == (2,)
        outputs = [k.examples(t, seed=1, count=1)[0].output for k, t in zip(kernels, tasks)]
        assert all(outputs[1] == 2 * outputs[0])


class TestBound:
    def test_lru_evicts_the_least_recently_used(self):
        lru = kernel_module._LRU(2)
        assert lru.get("a", lambda: 1) == 1
        assert lru.get("b", lambda: 2) == 2
        assert lru.get("a", lambda: -1) == 1  # a hit refreshes "a"
        assert lru.get("c", lambda: 3) == 3  # evicts "b"
        assert len(lru) == 2
        assert lru.get("b", lambda: 4) == 4
        assert lru.get("a", lambda: 5) == 5  # "a" went when "b" came back

    def test_kernel_cache_holds_at_most_max_kernels(self):
        tasks = [
            LiftingTask(
                f"test.scale{k}",
                "void f(int n, float *x, float *out) {"
                f" for (int i = 0; i < n; i++) out[i] = {k} * x[i]; }}",
                InputSpec(sizes={"n": 2}, arrays={"x": ("n",), "out": ("n",)}),
            )
            for k in range(MAX_KERNELS + 1)
        ]
        first = kernel_of(tasks[0])
        for task in tasks[1:]:
            kernel_of(task)
        assert len(kernel_module._KERNELS) == MAX_KERNELS
        assert kernel_of(tasks[-1]) is kernel_of(tasks[-1])
        assert kernel_of(tasks[0]) is not first


class TestConcurrency:
    def test_threads_missing_at_once_share_one_kernel(self):
        clear_kernels()
        task = get_benchmark("darknet.gemm_nn").task()
        barrier = threading.Barrier(4)
        found = []

        def lookup():
            barrier.wait()
            found.append(kernel_of(task))

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(found) == 4 and all(k is kernel_of(task) for k in found)

    def test_two_service_workers_lift_one_kernel_at_once(self):
        from repro.service.api import LiftingService, LiftRequest

        kernel = "blend.weighted_sum"
        methods = ("STAGG_TD", "STAGG_BU")
        clear_kernels()
        expected = {
            method: resolve_method(method, timeout_seconds=30.0).lift(
                get_benchmark(kernel).task()
            )
            for method in methods
        }
        clear_kernels()
        with LiftingService(workers=2) as service:
            jobs = {
                method: service.submit(
                    LiftRequest(benchmark=kernel, method=method, timeout=30.0)
                )
                for method in methods
            }
            for job in jobs.values():
                assert job.wait(60)
        for method, job in jobs.items():
            got, want = job.report, expected[method]
            assert got.success and want.success, method
            assert str(got.lifted_program) == str(want.lifted_program)
            assert (got.attempts, got.nodes_expanded) == (want.attempts, want.nodes_expanded)

    def test_forked_race_on_a_warm_cache_matches_threads(self):
        task = get_benchmark("llama.rmsnorm_sum_squares").task()
        spec = "Portfolio(STAGG_TD,STAGG_BU)"

        def lift(backend):
            return resolve_method(
                spec,
                timeout_seconds=30.0,
                oracle_seed=2025,
                execution=ExecutionConfig(backend=backend, workers=2),
            ).lift(task)

        threaded = lift("threads")  # warms the cache the children inherit
        processed = lift("processes")
        assert threaded.success and processed.success
        assert str(processed.lifted_program) == str(threaded.lifted_program)
        assert processed.attempts == threaded.attempts
        race = processed.details["portfolio"]
        assert race["winner"] == threaded.details["portfolio"]["winner"]
