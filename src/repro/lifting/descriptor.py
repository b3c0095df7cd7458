"""Method identity: the descriptor every lifter exposes for the service digest.

A *descriptor* is a JSON-safe dictionary capturing every outcome-relevant
knob of a lifting method — its class, its configuration, and its oracle's
identity.  The lifting service hashes descriptors (together with the task)
into the content address of its result store, so two lifters with equal
descriptors must produce the same report for the same task.  The
:meth:`~repro.lifting.Lifter.descriptor` method on every shipped lifter
delegates here; :mod:`repro.service.digest` re-exports these helpers for
backward compatibility.
"""

from __future__ import annotations

from typing import Dict

from ..core.config import StaggConfig
from ..core.jsonutil import jsonable


def describe_oracle(oracle: object) -> Dict[str, object]:
    """Identity of an oracle: class plus every configuration attribute.

    Works for all shipped oracles (synthetic, static, recorded) and degrades
    gracefully for user-defined ones: the instance ``__dict__`` — which for
    the shipped oracles holds the :class:`OracleConfig`, static candidate
    lists and recorded-response paths — is rendered via :func:`jsonable`.
    """
    return {
        "class": type(oracle).__qualname__,
        "state": jsonable(
            {k: v for k, v in sorted(vars(oracle).items()) if not k.startswith("__")}
        ),
    }


def describe_lifter(lifter: object) -> Dict[str, object]:
    """Identity of any ``lift(task) -> SynthesisReport`` method object.

    For :class:`StaggSynthesizer` this is the oracle identity plus
    ``StaggConfig.digest_dict()``; for baselines it is the class name plus
    the instance state (verifier config, budgets, heuristics flags), which
    covers every outcome-relevant knob the shipped lifters have.

    Composite lifters — methods built *from other lifters*, like the
    portfolio engine — opt out of the generic instance-state rendering by
    setting ``composes_descriptor = True`` and owning their ``descriptor()``
    (typically recursing into this function per member).  The generic path
    would otherwise try to JSON-render live lifter objects.
    """
    if getattr(lifter, "composes_descriptor", False):
        return lifter.descriptor()
    config = getattr(lifter, "config", None)
    oracle = getattr(lifter, "_oracle", None) or getattr(lifter, "oracle", None)
    descriptor: Dict[str, object] = {"class": type(lifter).__qualname__}
    state = dict(vars(lifter))
    if isinstance(config, StaggConfig):
        descriptor["config"] = config.digest_dict()
        state.pop("_config", None)
        state.pop("config", None)
    if oracle is not None:
        descriptor["oracle"] = describe_oracle(oracle)
        state.pop("_oracle", None)
        state.pop("oracle", None)
    descriptor["state"] = jsonable(dict(sorted(state.items())))
    return descriptor
