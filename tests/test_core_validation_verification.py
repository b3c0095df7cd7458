"""Tests for I/O example generation, template validation and bounded verification."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.cfront.analysis import analyze_signature, harvest_constants
from repro.core import (
    BoundedEquivalenceChecker,
    IOExampleGenerator,
    InputSpec,
    LiftingTask,
    TemplateValidator,
    VerifierConfig,
)
from repro.core.validator import instantiate
from repro.taco import parse_program


@pytest.fixture
def matvec_task(figure2_task) -> LiftingTask:
    return figure2_task


@pytest.fixture
def scale_task() -> LiftingTask:
    return LiftingTask(
        name="test.scale",
        c_source=(
            "void scale(int n, float alpha, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = alpha * x[i] + 2; }"
        ),
        spec=InputSpec(
            sizes={"n": 4}, arrays={"x": ("n",), "out": ("n",)}, scalars={"alpha": (1, 5)}
        ),
        reference_solution="a(i) = c * b(i) + Const",
    )


class TestIOExamples:
    def test_examples_record_inputs_and_output(self, matvec_task):
        examples = IOExampleGenerator(matvec_task, seed=1).generate(2)
        assert len(examples) == 2
        example = examples[0]
        assert set(example.inputs) == {"N", "Mat1", "Mat2"}
        assert example.output_name == "Result"
        assert example.output_shape() == (3,)
        assert example.input_rank("Mat1") == 2

    def test_examples_are_exact(self, matvec_task):
        example = IOExampleGenerator(matvec_task, seed=1).generate_one()
        mat1 = example.inputs["Mat1"]
        assert isinstance(mat1.reshape(-1)[0], Fraction)

    def test_fixed_values(self, matvec_task):
        generator = IOExampleGenerator(matvec_task, seed=1)
        example = generator.generate_one(
            sizes={"N": 2},
            values={"Mat1": [1, 0, 0, 1], "Mat2": [7, 9]},
        )
        np.testing.assert_array_equal(
            np.array(example.output, dtype=float), np.array([7.0, 9.0])
        )

    def test_output_matches_reference_semantics(self, matvec_task):
        example = IOExampleGenerator(matvec_task, seed=5).generate_one()
        mat1 = np.array(example.inputs["Mat1"], dtype=float)
        mat2 = np.array(example.inputs["Mat2"], dtype=float)
        np.testing.assert_allclose(np.array(example.output, dtype=float), mat1 @ mat2)

    def test_scalar_range_respected(self, scale_task):
        generator = IOExampleGenerator(scale_task, seed=0)
        for example in generator.generate(5):
            assert 1 <= example.inputs["alpha"] <= 5


class TestValidator:
    def _validator(self, task, num_examples=3):
        function = task.parse()
        signature = analyze_signature(function)
        constants = harvest_constants(function)
        examples = IOExampleGenerator(task, function, signature, seed=11).generate(num_examples)
        return TemplateValidator(examples, constants)

    def test_finds_correct_substitution(self, matvec_task):
        validator = self._validator(matvec_task)
        result = validator.validate(parse_program("a(i) = b(i,j) * c(j)"))
        assert result.success
        assert result.substitution == {"b": "Mat1", "c": "Mat2"}
        assert str(result.concrete_program) == "a(i) = Mat1(i,j) * Mat2(j)"

    def test_rejects_wrong_template(self, matvec_task):
        validator = self._validator(matvec_task)
        assert not validator.validate(parse_program("a(i) = b(i,j) + c(j)")).success

    def test_rank_mismatched_symbols_are_not_tried(self, matvec_task):
        validator = self._validator(matvec_task)
        result = validator.validate(parse_program("a(i) = b(i,j,k) * c(j)"))
        assert not result.success
        assert result.substitutions_tried == 0

    def test_constant_instantiation(self, scale_task):
        validator = self._validator(scale_task)
        result = validator.validate(parse_program("a(i) = c * b(i) + Const"))
        assert result.success
        assert result.constant_values.get("Const") == 2

    def test_instantiate_renames_and_fills_constants(self):
        template = parse_program("a(i) = b(i) + Const")
        concrete = instantiate(template, {"a": "out", "b": "x"}, [5])
        assert str(concrete) == "out(i) = x(i) + 5"

    def test_requires_examples(self):
        with pytest.raises(ValueError):
            TemplateValidator([])


class TestVerifier:
    def _verifier(self, task, **config):
        return BoundedEquivalenceChecker(
            task,
            config=VerifierConfig(size_bound=2, exhaustive_cap=700, sampled_checks=8, **config),
        )

    def test_accepts_correct_program(self, matvec_task):
        verifier = self._verifier(matvec_task)
        result = verifier.verify(parse_program("Result(i) = Mat1(i,j) * Mat2(j)"))
        assert result.equivalent
        assert result.checks_run > 0

    def test_rejects_wrong_program_with_counterexample(self, matvec_task):
        verifier = self._verifier(matvec_task)
        result = verifier.verify(parse_program("Result(i) = Mat1(i,j) + Mat2(j)"))
        assert not result.equivalent
        assert result.counterexample is not None

    def test_rejects_subtly_wrong_transpose(self, matvec_task):
        verifier = self._verifier(matvec_task)
        result = verifier.verify(parse_program("Result(i) = Mat1(j,i) * Mat2(j)"))
        assert not result.equivalent

    def test_exhaustive_mode_for_small_spaces(self):
        task = LiftingTask(
            name="test.negate",
            c_source=(
                "void neg(int n, float *x, float *out) {"
                " for (int i = 0; i < n; i++) out[i] = 0 - x[i]; }"
            ),
            spec=InputSpec(sizes={"n": 4}, arrays={"x": ("n",), "out": ("n",)}),
        )
        verifier = BoundedEquivalenceChecker(
            task, config=VerifierConfig(size_bound=2, value_set=(-1, 0, 1), exhaustive_cap=100)
        )
        result = verifier.check_bounded(parse_program("out(i) = 0 - x(i)"))
        assert result.equivalent
        assert result.exhaustive
        assert result.checks_run == 9

    def test_avoid_zero_comes_from_the_task_spec(self):
        # The bounded check drops zero from its value set exactly when the
        # task's spec asks for it: 3 values over 2 slots without, 2 with.
        source = (
            "void neg(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 0 - x[i]; }"
        )
        config = VerifierConfig(size_bound=2, value_set=(-1, 0, 1), exhaustive_cap=100)
        runs = {}
        for avoid_zero in (False, True):
            task = LiftingTask(
                name="test.negate",
                c_source=source,
                spec=InputSpec(
                    sizes={"n": 4},
                    arrays={"x": ("n",), "out": ("n",)},
                    avoid_zero=avoid_zero,
                ),
            )
            verifier = BoundedEquivalenceChecker(task, config=config)
            result = verifier.check_bounded(parse_program("out(i) = 0 - x(i)"))
            assert result.equivalent and result.exhaustive
            runs[avoid_zero] = result.checks_run
        assert runs == {False: 9, True: 4}

    def test_division_by_zero_inputs_are_skipped(self):
        task = LiftingTask(
            name="test.div",
            c_source=(
                "void div(int n, float s, float *x, float *out) {"
                " for (int i = 0; i < n; i++) out[i] = x[i] / s; }"
            ),
            spec=InputSpec(
                sizes={"n": 3}, arrays={"x": ("n",), "out": ("n",)}, scalars={"s": (1, 5)}
            ),
        )
        verifier = BoundedEquivalenceChecker(
            task, config=VerifierConfig(size_bound=2, sampled_checks=6, exhaustive_cap=10)
        )
        result = verifier.check_bounded(parse_program("out(i) = x(i) / s"))
        assert result.equivalent
        assert result.checks_run > 0
