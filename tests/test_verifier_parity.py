"""Verifier parity: the bounded check repeats a recorded trajectory exactly.

The fixture ``verifier_parity.json`` lists, per corpus kernel, every concrete
program that :meth:`BoundedEquivalenceChecker.verify` receives during a
STAGG_TD and a STAGG_BU lift of that kernel (first-seen order, duplicates
dropped), followed by one mutant of each (the first ``*`` turned into ``+``,
else the first ``+`` into ``-``).  For both verifier bounds — the
evaluation's 729/24 and ``VerifierConfig()``'s 4096/64 — one checker per
kernel bounded-checks (:meth:`~BoundedEquivalenceChecker.check_bounded`)
every listed program twice, in order, and the fixture pins each call's
``equivalent``, ``checks_run`` and ``exhaustive``, a SHA-256 of the
counterexample's inputs and output, and a SHA-256 of the example generator's
RNG state after the call.  The RNG hash makes the order in which sampled
inputs are drawn part of the contract: a later check on the same checker
must see the same samples.  ``verify`` itself, which proves equivalence by
the identity of rational functions where it can, must reach the recorded
verdict on every call.

To re-record the fixture after an intended change of behaviour::

    PYTHONPATH=src python tests/test_verifier_parity.py > tests/verifier_parity.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

FIXTURE = Path(__file__).with_name("verifier_parity.json")
METHODS = ("STAGG_TD", "STAGG_BU")
BUDGET_S = 600.0
#: Fixture key -> VerifierConfig keyword arguments.
BOUNDS = {
    "729/24": {"size_bound": 2, "exhaustive_cap": 729, "sampled_checks": 24},
    "4096/64": {},
}


def _mutant(source: str):
    """The first ``*`` turned into ``+``, else the first ``+`` into ``-``."""
    for old, new in (("*", "+"), ("+", "-")):
        if old in source:
            return source.replace(old, new, 1)
    return None


def _record_programs():
    """kernel -> programs ``verify`` receives in TD and BU lifts, plus mutants."""
    from repro.core.verifier import BoundedEquivalenceChecker
    from repro.lifting import resolve_method
    from repro.suite import all_benchmarks

    received = []
    original = BoundedEquivalenceChecker.verify

    def recording(self, program):
        received.append(str(program))
        return original(self, program)

    programs = {}
    BoundedEquivalenceChecker.verify = recording
    try:
        for bench in all_benchmarks():
            received.clear()
            for method in METHODS:
                lifter = resolve_method(method, timeout_seconds=BUDGET_S)
                report = lifter.lift(bench.task())
                assert not report.timed_out and not report.error, (method, bench.name)
            seen = list(dict.fromkeys(received))
            mutants = [m for m in map(_mutant, seen) if m is not None]
            programs[bench.name] = seen + mutants
    finally:
        BoundedEquivalenceChecker.verify = original
    return programs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _tensor(value):
    if isinstance(value, np.ndarray):
        return [list(value.shape), [str(v) for v in value.reshape(-1).tolist()]]
    return str(value)


def _counterexample_hash(example):
    if example is None:
        return None
    inputs = {name: _tensor(example.inputs[name]) for name in sorted(example.inputs)}
    return _digest([inputs, _tensor(example.output)])


def _verify_all(programs, bound):
    """``{kernel: [[program, call, call], ...]}`` for *programs* at *bound*.

    Each call is a :meth:`check_bounded`, the path the fixture pins.
    """
    from repro.core.verifier import BoundedEquivalenceChecker, VerifierConfig
    from repro.suite import get_benchmark
    from repro.taco import parse_program

    outcomes = {}
    for kernel, sources in programs.items():
        checker = BoundedEquivalenceChecker(
            get_benchmark(kernel).task(), config=VerifierConfig(**BOUNDS[bound])
        )
        rows = []
        for source in sources:
            program = parse_program(source)
            row = [source]
            for _ in range(2):
                result = checker.check_bounded(program)
                row.append([
                    result.equivalent,
                    result.checks_run,
                    result.exhaustive,
                    _counterexample_hash(result.counterexample),
                    _digest(checker._generator.getstate()),
                ])
            rows.append(row)
        outcomes[kernel] = rows
    return outcomes


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_kernel_at_both_bounds(expected):
    from repro.suite import all_benchmarks

    kernels = sorted(b.name for b in all_benchmarks())
    assert len(kernels) == 77
    assert sorted(expected) == sorted(BOUNDS)
    for bound in BOUNDS:
        assert sorted(expected[bound]) == kernels


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_verify_matches_recorded_outcomes(expected, bound):
    programs = {
        kernel: [row[0] for row in rows] for kernel, rows in expected[bound].items()
    }
    actual = _verify_all(programs, bound)
    mismatches = {
        (kernel, want[0]): (want, got)
        for kernel, rows in expected[bound].items()
        for want, got in zip(rows, actual[kernel])
        if want != got
    }
    assert not mismatches


@pytest.mark.parametrize("bound", sorted(BOUNDS))
def test_verify_reaches_recorded_verdicts(expected, bound):
    from repro.core.verifier import BoundedEquivalenceChecker, VerifierConfig
    from repro.suite import get_benchmark
    from repro.taco import parse_program

    mismatches = []
    for kernel, rows in expected[bound].items():
        checker = BoundedEquivalenceChecker(
            get_benchmark(kernel).task(), config=VerifierConfig(**BOUNDS[bound])
        )
        for row in rows:
            program = parse_program(row[0])
            for call in row[1:]:
                if checker.verify(program).equivalent != call[0]:
                    mismatches.append((kernel, row[0]))
    assert not mismatches


if __name__ == "__main__":
    programs = _record_programs()
    lines = []
    for bound in sorted(BOUNDS):
        kernels = sorted(_verify_all(programs, bound).items())
        body = ",\n".join(
            f"  {json.dumps(kernel)}: [\n"
            + ",\n".join(f"   {json.dumps(row)}" for row in rows)
            + "\n  ]"
            for kernel, rows in kernels
        )
        lines.append(f" {json.dumps(bound)}: {{\n{body}\n }}")
    print("{\n" + ",\n".join(lines) + "\n}")
