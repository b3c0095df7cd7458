"""Tests for the static analyses: loops, pointers, delinearization, dimensions."""

from __future__ import annotations


from repro.cfront import parse_function
from repro.cfront.analysis import (
    ArgumentKind,
    OutputKind,
    analyze_loops,
    analyze_pointers,
    analyze_signature,
    constants_with_negations,
    harvest_constants,
    predict_dimensions,
    predict_output_rank,
)
from repro.cfront.analysis.delinearize import delinearize_index, recovered_rank
from repro.cfront.analysis.locals import index_locals, inline_locals, scalar_definitions
from repro.cfront.parser import parse_function as parse


class TestLoopAnalysis:
    def test_for_loop_induction_variables(self):
        fn = parse_function(
            "void f(int n, int *a) { for (int i = 0; i < n; i++) "
            "for (int j = 0; j < n; j++) a[i] = j; }"
        )
        nest = analyze_loops(fn)
        assert nest.induction_variables() == ("i", "j")
        assert nest.max_depth() == 2

    def test_while_loop_induction_variable(self):
        fn = parse_function(
            "void f(int n, int *a) { int i = 0; while (i < n) { a[i] = i; i++; } }"
        )
        nest = analyze_loops(fn)
        assert "i" in nest.induction_variables()

    def test_assignment_style_for_loop(self):
        fn = parse_function(
            "void f(int n, int *a) { int k; for (k = 0; k < n; k++) a[k] = k; }"
        )
        assert analyze_loops(fn).induction_variables() == ("k",)


class TestPointerAnalysis:
    def test_alias_chain(self, figure2_source):
        fn = parse_function(figure2_source)
        pointers = analyze_pointers(fn)
        assert pointers.resolve("p_m1") == "Mat1"
        assert pointers.resolve("p_m2") == "Mat2"
        assert pointers.resolve("p_t") == "Result"

    def test_advancement_depths(self, figure2_source):
        fn = parse_function(figure2_source)
        pointers = analyze_pointers(fn)
        # p_t advances once per outer iteration; p_m1 once per inner iteration.
        assert pointers.advancement_depth("Result") == 1
        assert pointers.advancement_depth("Mat1") == 2

    def test_pointer_reassignment_from_self_counts_as_advance(self):
        fn = parse_function(
            "void f(int n, int *a, int *out) {"
            " int *p = a; for (int i = 0; i < n; i++) { out[i] = *p; p = p + 1; } }"
        )
        pointers = analyze_pointers(fn)
        assert pointers.advancement_depth("a") == 1

    def test_alias_reinitialised_inside_a_loop_restarts_its_walk(self):
        # dsp.mat_vec_mult: px restarts at vec[0] on every i iteration.
        fn = parse_function(
            "void f(int n, int m, float *vec, float *out) {"
            " for (int i = 0; i < n; i++) { float *px = &vec[0]; out[i] = 0;"
            "   for (int j = 0; j < m; j++) out[i] += *px++; } }"
        )
        assert analyze_pointers(fn).advancement_depth("vec") == 1

    def test_reinitialisation_from_the_loop_variable_keeps_the_loop(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " for (int i = 0; i < n; i++) { float *p = A + i * m; out[i] = 0;"
            "   for (int j = 0; j < m; j++) out[i] += *p++; } }"
        )
        assert analyze_pointers(fn).advancement_depth("A") == 2


class TestDelinearization:
    def _index_expr(self, source_index: str):
        fn = parse(
            f"void f(int N, int M, int K, int i, int j, int k, int *A, int *out) "
            f"{{ *out = A[{source_index}]; }}"
        )
        # Extract the index expression of the subscript access.
        from repro.cfront.ast import ArrayIndex, walk_expressions

        for expr in walk_expressions(fn):
            if isinstance(expr, ArrayIndex):
                return expr.index
        raise AssertionError("no subscript found")

    def test_flat_1d(self):
        assert recovered_rank(self._index_expr("i"), ["i", "j", "k"], ["N", "M", "K"]) == 1

    def test_row_major_2d(self):
        index = self._index_expr("i * M + j")
        assert recovered_rank(index, ["i", "j", "k"], ["N", "M", "K"]) == 2
        subscripts = delinearize_index(index, ["i", "j", "k"], ["N", "M", "K"])
        assert subscripts == (("i",), ("j",))

    def test_row_major_3d(self):
        index = self._index_expr("(i * M + j) * K + k")
        assert recovered_rank(index, ["i", "j", "k"], ["N", "M", "K"]) == 3

    def test_sum_of_indices_stays_rank_1(self):
        index = self._index_expr("i + k")
        assert recovered_rank(index, ["i", "j", "k"], ["N", "M", "K"]) == 1

    def test_constant_index_is_rank_0_like(self):
        index = self._index_expr("0")
        assert recovered_rank(index, ["i", "j", "k"], ["N", "M", "K"]) == 0


class TestSignature:
    def test_output_and_kinds(self):
        fn = parse_function(
            "void scale(int n, float alpha, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = alpha * x[i]; }"
        )
        signature = analyze_signature(fn)
        assert signature.output_argument == "out"
        assert signature.argument("x").kind is ArgumentKind.TENSOR
        assert signature.argument("alpha").kind is ArgumentKind.SCALAR
        assert signature.argument("n").kind is ArgumentKind.SIZE

    def test_return_value_output(self):
        fn = parse_function(
            "int total(int n, int *a) "
            "{ int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }"
        )
        signature = analyze_signature(fn)
        assert signature.output_kind is OutputKind.RETURN
        assert signature.output_argument is None

    def test_pointer_walk_output_detection(self, figure2_source):
        fn = parse_function(figure2_source)
        assert analyze_signature(fn).output_argument == "Result"

    def test_size_used_in_subscript_stays_size(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) out[i*m+j] = A[i*m+j]; }"
        )
        signature = analyze_signature(fn)
        assert signature.argument("m").kind is ArgumentKind.SIZE

    def test_size_used_through_index_temporary_stays_size(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) {"
            "   int idx = i * m + j; out[idx] = A[idx]; } }"
        )
        assert analyze_signature(fn).argument("m").kind is ArgumentKind.SIZE


class TestDimensionPrediction:
    def test_figure2_output_rank(self, figure2_source):
        fn = parse_function(figure2_source)
        assert predict_output_rank(fn) == 1

    def test_linearized_2d_output(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *B, float *C) {"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++)"
            "   C[i*m+j] = A[i*m+j] + B[i*m+j]; }"
        )
        prediction = predict_dimensions(fn)
        assert prediction.output_rank == 2
        assert prediction.rank("A") == 2

    def test_scalar_output_through_pointer(self):
        fn = parse_function(
            "void f(int n, float *x, float *out) {"
            " float acc = 0; for (int i = 0; i < n; i++) acc += x[i]; *out = acc; }"
        )
        assert predict_output_rank(fn) == 0

    def test_index_temporary_sees_through(self):
        fn = parse_function(
            "void f(int d0, int d1, int d2, float *T, float *out) {"
            " for (int i = 0; i < d0; i++) for (int j = 0; j < d1; j++) "
            "for (int k = 0; k < d2; k++) {"
            "   int idx = (i * d1 + j) * d2 + k; out[idx] = T[idx]; } }"
        )
        assert predict_output_rank(fn) == 3

    def test_corpus_ranks_match_the_specs(self):
        # Every tensor and output rank the static analysis predicts equals
        # the rank of that array in the kernel's input spec.
        from repro.suite import all_benchmarks

        misses = []
        for bench in all_benchmarks():
            fn = bench.task().parse()
            ranks = predict_dimensions(fn).argument_ranks
            for arg in analyze_signature(fn).arguments:
                if arg.kind in (ArgumentKind.TENSOR, ArgumentKind.OUTPUT):
                    expected = len(bench.spec.arrays[arg.name])
                    if ranks[arg.name] != expected:
                        misses.append((bench.name, arg.name, ranks[arg.name], expected))
        assert misses == []

    def test_pointer_walked_2d_output(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " float *p = out; float *q = A;"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) *p++ = *q++; }"
        )
        assert predict_output_rank(fn) == 2


class TestConstantsAndLocals:
    def test_harvests_data_constants_only(self):
        fn = parse_function(
            "void f(int n, float *x, float *out) {"
            " for (int i = 0; i < n; i++) out[i] = 2 * x[i] + 5; }"
        )
        assert harvest_constants(fn) == (2, 5)

    def test_zero_initialiser_excluded(self):
        fn = parse_function(
            "void f(int n, float *x, float *out) {"
            " *out = 0; for (int i = 0; i < n; i++) *out += x[i]; }"
        )
        assert harvest_constants(fn) == ()

    def test_loop_bound_literals_excluded(self):
        fn = parse_function(
            "void f(float *x, float *out) { for (int i = 0; i < 4; i++) out[i] = x[i] * 3; }"
        )
        assert harvest_constants(fn) == (3,)

    def test_negations_included_when_requested(self):
        fn = parse_function("void f(float *x, float *out) { out[0] = x[0] + 2; }")
        assert set(constants_with_negations(fn)) == {2, -2}

    def test_scalar_definitions_and_index_locals(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) {"
            "   int idx = i * m + j; out[idx] = A[idx]; } }"
        )
        definitions = scalar_definitions(fn)
        assert "idx" in definitions
        assert "i" not in definitions  # induction variables are excluded
        assert "idx" in index_locals(fn)

    def test_inline_locals_substitutes_definition(self):
        fn = parse_function(
            "void f(int n, int m, float *A, float *out) {"
            " for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) {"
            "   int idx = i * m + j; out[idx] = A[idx]; } }"
        )
        from repro.cfront.ast import ArrayIndex, Identifier, walk_expressions

        definitions = scalar_definitions(fn)
        for expr in walk_expressions(fn):
            if isinstance(expr, ArrayIndex):
                inlined = inline_locals(expr, definitions)
                assert not any(
                    isinstance(node, Identifier) and node.name == "idx"
                    for node in walk_expressions(inlined.index)
                )
                break
