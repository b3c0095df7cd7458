"""Search parity: every pinned lift repeats a recorded trajectory exactly.

Two fixtures hold, per ``"<method> <kernel>"`` row at the default oracle
seed, the outcome of the lift: whether it succeeded, the winning template,
how many templates were checked and how many queue nodes were expanded.

* ``search_parity.json`` — STAGG_TD and STAGG_BU on every corpus kernel;
* ``search_parity_ablations.json`` — the ``.FullGrammar`` and
  ``.EqualProbability`` ablations on the kernels where they search longest
  (``STAGG_BU.FullGrammar`` is the second member of the ``race`` portfolio).

The A* queue order is decided by float score sums and FIFO push order, so any
change to how the searches score or enqueue expansions shows up here as a
changed count.

The wall-clock budget sits far above every lift's run time, so the searches'
deterministic caps (``max_expansions``, ``max_candidates``) decide each
outcome.  To re-record a fixture after an intended change of behaviour, name
it as the one argument::

    PYTHONPATH=src python tests/test_search_parity.py tests/search_parity.json
    PYTHONPATH=src python tests/test_search_parity.py tests/search_parity_ablations.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("search_parity.json")
ABLATIONS_FIXTURE = Path(__file__).with_name("search_parity_ablations.json")
METHODS = ("STAGG_TD", "STAGG_BU")
BUDGET_S = 600.0


def _corpus_rows():
    from repro.suite import all_benchmarks

    return [(method, bench.name) for method in METHODS for bench in all_benchmarks()]


def _ablation_rows():
    from repro.evaluation.perf import PORTFOLIO_KERNELS

    return (
        [
            ("STAGG_BU.FullGrammar", name)
            for name in ("darknet.axpy_cpu", "llama.rmsnorm_scale", "darknet.copy_cpu")
        ]
        + [("STAGG_TD.FullGrammar", "darknet.copy_cpu")]
        + [
            ("STAGG_TD.EqualProbability", name)
            for name in (
                "blend.weighted_sum",
                "simpl_array.sum_three",
                "dsp.scaled_residual",
                "darknet.copy_cpu",
            )
        ]
        + [("STAGG_BU.EqualProbability", name) for name in PORTFOLIO_KERNELS]
    )


ROWS = {FIXTURE.name: _corpus_rows, ABLATIONS_FIXTURE.name: _ablation_rows}


def _lift_rows(rows):
    from repro.lifting import resolve_method
    from repro.suite import all_benchmarks

    by_name = {bench.name: bench for bench in all_benchmarks()}
    lifters = {}
    outcomes = {}
    for method, name in rows:
        if method not in lifters:
            lifters[method] = resolve_method(method, timeout_seconds=BUDGET_S)
        report = lifters[method].lift(by_name[name].task())
        assert not report.timed_out and not report.error, (method, name)
        outcomes[f"{method} {name}"] = [
            report.success,
            str(report.template) if report.template is not None else None,
            report.attempts,
            report.nodes_expanded,
        ]
    return outcomes


def _mismatches(fixture: Path, outcomes) -> dict:
    expected = json.loads(fixture.read_text())
    return {
        key: (expected[key], outcomes.get(key))
        for key in expected
        if outcomes.get(key) != expected[key]
    }


@pytest.fixture(scope="module")
def outcomes():
    return _lift_rows(_corpus_rows())


def test_fixture_covers_every_method_and_kernel():
    from repro.suite import all_benchmarks

    expected = json.loads(FIXTURE.read_text())
    kernels = [b.name for b in all_benchmarks()]
    assert len(kernels) == 77
    assert sorted(expected) == sorted(f"{m} {k}" for m in METHODS for k in kernels)


def test_outcomes_match_recorded_trajectories(outcomes):
    assert not _mismatches(FIXTURE, outcomes)


def test_ablation_fixture_covers_every_pinned_row():
    expected = json.loads(ABLATIONS_FIXTURE.read_text())
    rows = _ablation_rows()
    assert len(rows) == 14
    assert sorted(expected) == sorted(f"{method} {name}" for method, name in rows)


def test_ablation_outcomes_match_recorded_trajectories():
    assert not _mismatches(ABLATIONS_FIXTURE, _lift_rows(_ablation_rows()))


def record(target: Path) -> None:
    """Re-record the fixture *target* (one of :data:`ROWS`) in place."""
    rows = sorted(_lift_rows(ROWS[target.name]()).items())
    target.write_text(
        "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2 or Path(sys.argv[1]).name not in ROWS:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(ROWS)}}} path of the fixture to re-record")
    record(Path(sys.argv[1]))
