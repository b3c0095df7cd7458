"""Search parity: every corpus lift repeats a recorded trajectory exactly.

The fixture ``search_parity.json`` holds, for STAGG_TD and STAGG_BU on every
corpus kernel at the default oracle seed, the outcome of the lift: whether it
succeeded, the winning template, how many templates were checked and how many
queue nodes were expanded.  The A* queue order is decided by float score sums
and FIFO push order, so any change to how the searches score or enqueue
expansions shows up here as a changed count.

The wall-clock budget sits far above every lift's run time, so the searches'
deterministic caps (``max_expansions``, ``max_candidates``) decide each
outcome.  To re-record the fixture after an intended change of behaviour::

    PYTHONPATH=src python tests/test_search_parity.py > tests/search_parity.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("search_parity.json")
METHODS = ("STAGG_TD", "STAGG_BU")
BUDGET_S = 600.0


def _lift_all():
    from repro.lifting import resolve_method
    from repro.suite import all_benchmarks

    outcomes = {}
    for method in METHODS:
        lifter = resolve_method(method, timeout_seconds=BUDGET_S)
        for bench in all_benchmarks():
            report = lifter.lift(bench.task())
            assert not report.timed_out and not report.error, (method, bench.name)
            outcomes[f"{method} {bench.name}"] = [
                report.success,
                str(report.template) if report.template is not None else None,
                report.attempts,
                report.nodes_expanded,
            ]
    return outcomes


@pytest.fixture(scope="module")
def outcomes():
    return _lift_all()


def test_fixture_covers_every_method_and_kernel():
    from repro.suite import all_benchmarks

    expected = json.loads(FIXTURE.read_text())
    kernels = [b.name for b in all_benchmarks()]
    assert len(kernels) == 77
    assert sorted(expected) == sorted(f"{m} {k}" for m in METHODS for k in kernels)


def test_outcomes_match_recorded_trajectories(outcomes):
    expected = json.loads(FIXTURE.read_text())
    mismatches = {
        key: (expected[key], outcomes.get(key))
        for key in expected
        if outcomes.get(key) != expected[key]
    }
    assert not mismatches


if __name__ == "__main__":
    rows = sorted(_lift_all().items())
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}")
