"""Lift events: the one record every progress report of a lift travels as.

Every stage of a lift (the pipeline, the searches, the checker, the
portfolio race) reports progress as a :class:`LiftEvent` handed to an
observer's ``emit`` through :func:`safe_notify`.  Defined in ``core`` so
the searches can emit without importing :mod:`repro.lifting` at module
scope; :mod:`repro.lifting.observer` re-exports both names.
"""

from __future__ import annotations

import threading
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["LiftEvent", "safe_notify"]


@dataclass(frozen=True)
class LiftEvent:
    """One progress event: a frozen, picklable value.

    *name* is one of the eleven event names (``stage_started``,
    ``stage_finished``, ``stage_skipped``, ``search_progress``,
    ``candidate_accepted``, ``retrieval_seeded``, ``validator_stats``,
    ``member_started``, ``member_finished``, ``member_cancelled``,
    ``portfolio_winner``) and *attrs* its payload fields.  *task* and
    *member* say whose lift emitted it; an emitter that does not know them
    leaves them empty and a binding view fills them in
    (:func:`repro.lifting.observer.bind`).  *ts* is the wall-clock time of
    emission, so an event forwarded from another process keeps its time.
    """

    name: str
    task: str = ""
    member: str = ""
    ts: float = field(default_factory=time.time)
    attrs: Mapping[str, object] = field(default_factory=dict)


#: Broken observers mapped to the set of event names they already failed
#: on.  A WeakKeyDictionary so a long-lived process doesn't pin every
#: broken observer it ever saw; each *(observer, event)* pair is warned
#: about at most once, so an observer that breaks on a second, different
#: event is still diagnosable.  The lock serialises check-then-add:
#: portfolio members share one observer across racing threads.
_WARNED_OBSERVERS = weakref.WeakKeyDictionary()
_WARNED_OBSERVERS_LOCK = threading.Lock()


def safe_notify(observer, event: LiftEvent) -> None:
    """Hand *event* to ``observer.emit``, swallowing observer errors.

    The single implementation of the "observers must never abort a lift"
    contract.  ``observer=None`` is the common fast path and returns
    immediately.

    Swallowed exceptions are not fully silent: the first failure of each
    *(observer, event name)* pair emits a :class:`RuntimeWarning` naming
    the event, so a broken observer is diagnosable without ever being able
    to abort a lift.
    """
    if observer is None:
        return
    try:
        observer.emit(event)
    except Exception as error:  # noqa: BLE001 - observers are untrusted plugins
        try:
            with _WARNED_OBSERVERS_LOCK:
                failed_events = _WARNED_OBSERVERS.get(observer)
                already_warned = failed_events is not None and event.name in failed_events
                if not already_warned:
                    if failed_events is None:
                        failed_events = set()
                        _WARNED_OBSERVERS[observer] = failed_events
                    failed_events.add(event.name)
        except TypeError:  # not weak-referenceable: warn on every failure
            already_warned = False
        if not already_warned:
            try:
                warnings.warn(
                    f"lift observer {type(observer).__name__}.{event.name} raised "
                    f"{type(error).__name__}: {error} (observer exceptions never "
                    f"abort a lift; further errors from this observer are "
                    f"suppressed silently)",
                    RuntimeWarning,
                    stacklevel=3,
                )
            except Exception:  # noqa: BLE001 - warnings-as-errors must not
                pass  # break the "observers never abort a lift" contract
