"""Digest parity: request digests and journal payloads repeat a recorded set.

A store entry is found by the SHA-256 digest of its request
(:func:`repro.service.api.request_digest`), and a journaled job is replayed
from its encoded request (:func:`repro.service.api._encode_request`).  A
change to either silently orphans every existing store or journal: nothing
fails, old entries just stop being found.  The fixture
``digest_parity.json`` therefore pins

* the digest of every registered method (``repro.lifting.method_names()``)
  plus ``Portfolio(STAGG_TD,STAGG_BU)`` on three corpus kernels,
* the digests of a raw-kernel request with a spec, a raw-kernel request
  with explicit candidates and a corpus request with a reference override,
* the encoded journal payload of those three requests,

and the test asserts byte equality with it.

To re-record the fixture after an intended change of identity (which must
also bump ``STORE_SCHEMA_VERSION``)::

    PYTHONPATH=src python tests/test_digest_parity.py > tests/digest_parity.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("digest_parity.json")
KERNELS = ("darknet.axpy_cpu", "blend.screen_rows", "dsp.normalize")
EXTRA_METHODS = ("Portfolio(STAGG_TD,STAGG_BU)",)

_SCALE_SOURCE = """
void scale(int n, float *x, float *out) {
    for (int i = 0; i < n; i++) {
        out[i] = 3 * x[i];
    }
}
"""


def _special_requests():
    """Request id -> the hand-built requests whose payloads are pinned too."""
    from repro.service.api import LiftRequest

    return {
        "raw-spec": LiftRequest(
            c_source=_SCALE_SOURCE,
            name="scale",
            function_name="scale",
            reference="a(i) = 3 * b(i)",
            spec={"sizes": {"n": 4}, "arrays": {"x": ["n"], "out": ["n"]}},
            timeout=10.0,
        ),
        "raw-candidates": LiftRequest(
            c_source=_SCALE_SOURCE,
            candidates=("a(i) = b(i) * 3", "a(i) = b(i) + 3"),
            method="STAGG_BU",
        ),
        "reference-override": LiftRequest(
            benchmark="darknet.axpy_cpu", reference="a(i) = b(i) + d(i)"
        ),
    }


def _requests():
    """Request id -> request, for every digest the fixture pins."""
    from repro.lifting import method_names
    from repro.service.api import LiftRequest

    requests = {
        f"{kernel}|{method}": LiftRequest(benchmark=kernel, method=method)
        for method in (*method_names(), *EXTRA_METHODS)
        for kernel in KERNELS
    }
    requests.update(_special_requests())
    return requests


def record():
    """The fixture's content, computed by the current code."""
    from repro.service.api import _encode_request, request_digest

    return {
        "digests": {key: request_digest(r) for key, r in _requests().items()},
        "journal": {key: _encode_request(r) for key, r in _special_requests().items()},
    }


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def current():
    return record()


def test_fixture_covers_every_method_and_special_request(fixture):
    from repro.lifting import method_names

    expected = {
        f"{kernel}|{method}"
        for method in (*method_names(), *EXTRA_METHODS)
        for kernel in KERNELS
    } | set(_special_requests())
    assert set(fixture["digests"]) == expected
    assert set(fixture["journal"]) == set(_special_requests())


def test_request_digests_are_byte_identical(fixture, current):
    mismatched = sorted(
        key for key, digest in fixture["digests"].items()
        if current["digests"].get(key) != digest
    )
    assert mismatched == []


def test_journal_payloads_are_byte_identical(fixture, current):
    assert current["journal"] == fixture["journal"]


def test_journal_payloads_round_trip(fixture):
    from repro.service.api import _decode_request, _encode_request

    for key, raw in fixture["journal"].items():
        assert _encode_request(_decode_request(raw)) == raw, key


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
