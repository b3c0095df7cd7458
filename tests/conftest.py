"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import InputSpec, LiftingTask
from repro.portfolio import MemberScheduler, ProcessMemberScheduler

#: The worked example of Section 2.1 / Figure 2 of the paper: a dot product
#: between each row of Mat1 and the vector Mat2, written with pointer
#: arithmetic.  Used by many integration tests.
FIGURE2_SOURCE = """
void function(int N, int *Mat1, int *Mat2, int *Result) {
    int *p_m1;
    int *p_m2;
    int *p_t;
    int i, f;
    p_m1 = Mat1;
    p_t = Result;
    for (f = 0; f < N; f++) {
        *p_t = 0;
        p_m2 = &Mat2[0];
        for (i = 0; i < N; i++)
            *p_t += *p_m1++ * *p_m2++;
        p_t++;
    }
}
"""


@pytest.fixture
def figure2_source() -> str:
    return FIGURE2_SOURCE


@pytest.fixture
def figure2_task() -> LiftingTask:
    """The Figure-2 kernel as a lifting task (matvec, N x N matrix)."""
    return LiftingTask(
        name="paper.figure2",
        c_source=FIGURE2_SOURCE,
        spec=InputSpec(
            sizes={"N": 3},
            arrays={"Mat1": ("N", "N"), "Mat2": ("N",), "Result": ("N",)},
        ),
        reference_solution="a(i) = b(i,j) * c(j)",
    )


@pytest.fixture(params=[MemberScheduler, ProcessMemberScheduler], ids=["threads", "processes"])
def race_scheduler(request):
    """One scheduler per race backend: the race contract holds on both."""
    return request.param()
