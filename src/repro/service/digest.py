"""Request identity for the lifting service.

A lift is a pure function of four inputs: the C kernel, the function under
lift, the oracle that proposes candidates, and the synthesizer (or baseline)
configuration.  The service therefore keys completed lifts by a SHA-256
digest over a canonical JSON rendering of exactly those inputs — equal
digests mean "this request has already been answered", which is what lets
repeated or structurally identical requests be served from the store in
O(1) without re-running synthesis.

The digest deliberately covers the *full* task (including the input
specification and the reference solution): the synthetic oracle derives its
candidates from the reference, and the I/O-example generator reads the
spec, so both are outcome-relevant.  A real hosted oracle would ignore the
reference, but including it only fragments the key space, never corrupts
it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

from ..core.jsonutil import jsonable
from ..core.task import LiftingTask

# Method identity lives with the unified lifting API (every lifter's
# ``descriptor()`` delegates there); re-exported here because the store and
# its tests historically import them from this module.
from ..lifting.descriptor import describe_lifter, describe_oracle  # noqa: F401

#: Bump when the entry layout or the digest inputs change incompatibly, or
#: when a stored verdict would mean something else today (2: the verifier
#: proves equivalence by polynomial identity, so a verdict of the sampled
#: check must not replay); stored under a versioned directory so old caches
#: are ignored, not misread.
STORE_SCHEMA_VERSION = 2


def canonical_json(value: object) -> str:
    """The canonical (sorted-key, compact) JSON encoding used for hashing."""
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def describe_task(task: LiftingTask) -> Dict[str, object]:
    """The outcome-relevant fields of a lifting task."""
    return {
        "name": task.name,
        "c_source": task.c_source,
        "function_name": task.function_name,
        "reference_solution": task.reference_solution,
        "spec": jsonable(task.spec),
    }


def lift_digest(
    task: LiftingTask,
    lifter_descriptor: Mapping[str, object],
    extra: Optional[Mapping[str, object]] = None,
) -> str:
    """The content address of one lift request.

    ``extra`` lets callers mix in additional identity (e.g. a service-side
    schema tag) without changing the core digest contract.
    """
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "task": describe_task(task),
        "lifter": lifter_descriptor,
        "extra": extra or None,
    }
    # ``canonical_json`` renders the whole payload in its one ``jsonable``
    # pass; the parts are handed over as they are.
    encoded = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()
