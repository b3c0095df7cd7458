"""The corpus registry is built once and shared: sharing must be safe.

Every lookup returns the same frozen :class:`Benchmark` objects, so these
tests pin what callers may rely on: a fresh list per ``all_benchmarks()``
call, the ``KeyError`` for an unknown name (HTTP ``/submit`` answers it with
400, see ``test_service_server.py``), and that a reference override derives
a new task instead of touching the shared entry.
"""

from __future__ import annotations

import pytest

from repro.llm.synthetic import SyntheticOracle
from repro.service.api import LiftRequest, execute_request, request_digest, resolve_task
from repro.suite import all_benchmarks, get_benchmark

KERNEL = "darknet.axpy_cpu"
#: Equivalent to the kernel's ground truth ``a(i) = c * b(i) + d(i)``, but
#: written differently, so the oracle sees another reference.
OVERRIDE = "a(i) = d(i) + b(i) * c"


def test_all_benchmarks_returns_a_fresh_list():
    first = all_benchmarks()
    second = all_benchmarks()
    assert first == second and first is not second
    names = [b.name for b in first]
    first.reverse()
    del first[:10]
    first.append(first[0])
    assert [b.name for b in all_benchmarks()] == names


def test_get_benchmark_is_the_corpus_entry():
    for benchmark in all_benchmarks():
        assert get_benchmark(benchmark.name) is benchmark


def test_unknown_benchmark_raises_key_error_naming_it():
    with pytest.raises(KeyError, match="no benchmark named 'nope.nope'"):
        get_benchmark("nope.nope")


def test_reference_override_derives_a_new_task(monkeypatch):
    ground_truth = get_benchmark(KERNEL).ground_truth
    plain = LiftRequest(benchmark=KERNEL, method="STAGG_TD", timeout=30.0)
    override = LiftRequest(
        benchmark=KERNEL, method="STAGG_TD", timeout=30.0, reference=OVERRIDE
    )
    plain_digest = request_digest(plain)
    assert request_digest(override) != plain_digest
    assert resolve_task(override).reference_solution == OVERRIDE

    # The lift runs against the override: it is what the oracle is shown.
    seen = []
    original = SyntheticOracle.generate_raw

    def recording(self, query):
        seen.append(query.reference_solution)
        return original(self, query)

    monkeypatch.setattr(SyntheticOracle, "generate_raw", recording)
    report = execute_request(override)
    assert report.success, report.summary()
    assert seen == [OVERRIDE]

    # The shared corpus entry and the plain request are untouched.
    assert get_benchmark(KERNEL).ground_truth == ground_truth
    assert resolve_task(plain).reference_solution == ground_truth
    assert request_digest(plain) == plain_digest
