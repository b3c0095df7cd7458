"""Tests for templatization (Section 4.2.1) and dimension-list prediction (4.2.3)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import parse_function
from repro.core.dimension_list import (
    num_unique_indices,
    predict_dimension_list,
    vote_dimension_list,
)
from repro.core.kernel import Kernel
from repro.core.templates import deduplicate, templatize, templatize_all
from repro.taco import parse_program


class TestTemplatization:
    def test_paper_example_standardisation(self):
        """t(f) = m1(i, f) * m2(f)  ->  a(i) = b(j,i) * c(i)   (Figure 4)."""
        template = templatize(parse_program("t(f) = m1(i, f) * m2(f)"))
        assert str(template.program) == "a(i) = b(j,i) * c(i)"

    def test_lhs_is_always_a(self):
        template = templatize(parse_program("Result(i) = Mat1(i,j) * Mat2(j)"))
        assert template.program.lhs.name == "a"
        assert template.tensor_symbols()[0] == "a"

    def test_tensor_names_assigned_by_first_appearance(self):
        template = templatize(parse_program("out(i) = y(i) + x(i)"))
        assert str(template.program) == "a(i) = b(i) + c(i)"
        mapping = dict(template.tensor_mapping)
        assert mapping["b"] == "y" and mapping["c"] == "x"

    def test_repeated_tensor_keeps_same_symbol(self):
        template = templatize(parse_program("s = x(i) * x(i)"))
        assert str(template.program) == "a = b(i) * b(i)"

    def test_constants_become_symbolic(self):
        template = templatize(parse_program("out(i) = img(i) * 2"))
        assert "Const" in str(template.program)
        assert template.has_constant()

    def test_index_standardisation_order(self):
        template = templatize(parse_program("r(f) = m(x,f) * v(x)"))
        assert template.program.index_variables() == ("i", "j")

    def test_dimension_list(self):
        template = templatize(parse_program("r(i) = m(i,j) * v(j) + 3"))
        assert template.dimension_list() == (1, 2, 1, 0)

    def test_equivalent_candidates_collapse_after_dedup(self):
        programs = [
            parse_program("t(f) = m1(i, f) * m2(f)"),
            parse_program("Target(i) := Mat1(f,i) * Mat2(i)"),
            parse_program("r(x) = a1(y,x) * a2(x)"),
        ]
        templates = deduplicate(templatize_all(programs))
        assert len(templates) == 1

    def test_templatize_all_skips_broken_candidates(self):
        programs = [parse_program("a(i) = b(i)")]
        assert len(templatize_all(programs)) == 1


class TestDimensionVote:
    def _templates(self, sources):
        return templatize_all([parse_program(s) for s in sources])

    def test_majority_vote(self):
        templates = self._templates(
            [
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(j,i) * v(i)",
                "r(i) = m(i) * v(i)",
            ]
        )
        assert vote_dimension_list(templates) == (1, 2, 1)

    def test_single_longer_list_does_not_dominate(self):
        templates = self._templates(
            [
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(i,j) * v(j)",
                "r(i) = m(i,j) * v(j) + w(i)",
            ]
        )
        assert vote_dimension_list(templates) == (1, 2, 1)

    def test_well_supported_longer_list_wins(self):
        templates = self._templates(
            [
                "r(i) = m(i,j) * v(j) + w(i)",
                "r(i) = m(i,j) * v(j) + w(i)",
                "r(i) = m(i,j) * v(j)",
            ]
        )
        assert vote_dimension_list(templates) == (1, 2, 1, 1)

    def test_empty_template_set(self):
        assert vote_dimension_list([]) == (0, 0)

    def test_static_lhs_override(self):
        templates = self._templates(["r = m(i,j) * v(j)", "r = m(i,j) * v(j)"])
        fn = parse_function(
            "void f(int n, int m, float *A, float *x, float *out) {"
            " for (int i = 0; i < n; i++) { out[i] = 0;"
            "   for (int j = 0; j < m; j++) out[i] += A[i*m+j] * x[j]; } }"
        )
        prediction = predict_dimension_list(templates, Kernel(fn))
        # The LLM candidates voted a scalar LHS but static analysis corrects it.
        assert prediction.voted_list[0] == 0
        assert prediction.dimension_list[0] == 1
        assert prediction.static_lhs_rank == 1

    _MATVEC = (
        "void f(int n, int m, float *A, float *x, float *out) {"
        " for (int i = 0; i < n; i++) { out[i] = 0;"
        "   for (int j = 0; j < m; j++) out[i] += A[i*m+j] * x[j]; } }"
    )

    def test_static_ranks_fill_missing_rhs_slots(self):
        # One voted RHS slot for two input tensors: the vote's rank-1 slot
        # covers x, so only A's static rank 2 is appended.
        templates = self._templates(["r(i) = v(j)", "r(i) = v(j)"])
        prediction = predict_dimension_list(templates, Kernel(parse_function(self._MATVEC)))
        assert prediction.voted_list == (1, 1)
        assert prediction.dimension_list == (1, 1, 2)

    def test_static_ranks_only_add_slots(self):
        # As many voted RHS slots as input tensors: the vote stands, even
        # where its ranks differ from the static ones.
        templates = self._templates(["r(i) = v(j) * w(j)", "r(i) = v(j) * w(j)"])
        prediction = predict_dimension_list(templates, Kernel(parse_function(self._MATVEC)))
        assert prediction.dimension_list == prediction.voted_list == (1, 1, 1)

    def test_without_the_kernel_the_vote_stands(self):
        templates = self._templates(["r(i) = v(j)", "r(i) = v(j)"])
        assert predict_dimension_list(templates).dimension_list == (1, 1)

    def test_num_unique_indices(self):
        templates = self._templates(["r(i) = m(i,j) * v(j)", "r(i) = t(i,j,k)"])
        assert num_unique_indices(templates) == 3


class TestTemplateProperties:
    @given(
        ranks=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        op=st.sampled_from("+-*/"),
    )
    @settings(max_examples=40, deadline=None)
    def test_templatization_is_idempotent(self, ranks, op):
        """Templatizing a template yields the same template."""
        indices = ["i", "j", "k"]
        terms = []
        for position, rank in enumerate(ranks):
            name = f"t{position}"
            if rank == 0:
                terms.append(name)
            else:
                terms.append(f"{name}({','.join(indices[:rank])})")
        source = f"out(i) = {f' {op} '.join(terms)}"
        program = parse_program(source)
        once = templatize(program)
        twice = templatize(once.program)
        assert str(once.program) == str(twice.program)

    @given(rank=st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_dimension_list_starts_with_lhs_rank(self, rank):
        indices = ",".join(["i", "j", "k"][:rank])
        lhs = f"out({indices})" if rank else "out"
        rhs = f"x({indices})" if rank else "x"
        template = templatize(parse_program(f"{lhs} = {rhs}"))
        assert template.dimension_list()[0] == rank
