"""Smoke test for the candidate-throughput microbenchmarks.

Runs a reduced kernel set so the tier-1 suite stays fast, and guards the
perf contract of this subsystem: the tiered+cached validator hot path must
beat a seed-architecture reference loop by a wide margin, and the JSON
record must carry every field the trajectory tooling expects.
"""

from __future__ import annotations

import json

from repro.evaluation.perf import (
    PERF_KERNELS,
    PORTFOLIO_KERNELS,
    PORTFOLIO_MEMBERS,
    run_perf_suite,
    write_perf_record,
)

#: Two kernels are enough for the smoke: one elementwise, one reduction.
SMOKE_KERNELS = ("blend.add_pixels", "darknet.forward_connected")

#: Reduced portfolio set, chosen as one kernel per "only this member wins"
#: side.  STAGG_TD now solves both in milliseconds, and STAGG_BU.FullGrammar
#: solves rmsnorm_scale only; the smoke still exercises a real race.
SMOKE_PORTFOLIO_KERNELS = ("llama.rmsnorm_scale", "blend.weighted_sum")


def test_perf_record_shape_and_speedup(tmp_path):
    path = tmp_path / "BENCH_smoke.json"
    record = write_perf_record(
        path,
        scope="quick",
        kernels=SMOKE_KERNELS,
        portfolio_kernels=SMOKE_PORTFOLIO_KERNELS,
    )

    on_disk = json.loads(path.read_text())
    assert on_disk == record
    assert record["schema"] == "repro-perf-v1"
    assert record["kernels"] == list(SMOKE_KERNELS)

    validator = record["validator"]
    for label in ("tiered_cached", "seed_reference"):
        assert validator[label]["candidates"] > 0
        assert validator[label]["candidates_per_sec"] > 0
    # Both configurations must burn through the identical substitution stream.
    assert validator["tiered_cached"]["candidates"] == validator["seed_reference"]["candidates"]
    # The perf contract: the hot path is at least 2x the reference even on
    # a loaded CI box (the committed full-set record shows >= 3x).
    assert validator["speedup"] >= 2.0

    search = record["search"]
    for style in ("topdown", "bottomup"):
        assert search[style]["nodes"] > 0
        assert search[style]["nodes_per_sec"] > 0
    # The top-down grammar is ambiguous, so the visited-form set must fire.
    assert search["topdown"]["duplicates_pruned"] > 0

    portfolio = record["portfolio"]
    assert portfolio["kernels"] == list(SMOKE_PORTFOLIO_KERNELS)
    assert set(portfolio["members"]) == set(PORTFOLIO_MEMBERS)
    assert portfolio["fastest_member"] in portfolio["members"]
    assert portfolio["wallclock_ratio"] > 0
    # The portfolio's whole point: it solves at least as much as its best
    # member.  (No exact-count assertion — each run races live 5s budgets,
    # and a loaded CI runner may time a member out without any regression.)
    best_solved = max(m["solved"] for m in portfolio["members"].values())
    assert portfolio["portfolio"]["solved"] >= best_solved


def test_default_kernel_set_is_fixed():
    # The trajectory only makes sense if the fixed kernel set stays fixed;
    # extend deliberately, with a new schema tag, rather than accidentally.
    assert PERF_KERNELS == (
        "blend.add_pixels",
        "blend.lift_black_level",
        "darknet.dot_cpu",
        "darknet.forward_connected",
        "darknet.gemm_nn",
        "blend.weighted_sum",
    )
    assert PORTFOLIO_KERNELS == (
        "darknet.axpy_cpu",
        "llama.rmsnorm_scale",
        "blend.weighted_sum",
        "simpl_array.sum_three",
        "dsp.scaled_residual",
        "darknet.copy_cpu",
    )


def test_invalid_scope_rejected():
    try:
        run_perf_suite("huge")
    except ValueError as error:
        assert "scope" in str(error)
    else:  # pragma: no cover - defensive
        raise AssertionError("expected ValueError for unknown scope")
