"""Observation hooks for lifting runs.

Every progress report of a lift is one :class:`LiftEvent` — a frozen,
picklable record ``(name, task, member, ts, attrs)`` — and a
:class:`LiftObserver` has exactly one method, :meth:`~LiftObserver.emit`,
that receives it.  The pipeline (stage start/finish/skip), the searches
(periodic expansion counts), the checker (accepted candidates) and the
portfolio race (member lifecycle) all emit on the same stream, which
powers ``repro lift -v``, traces and the service's live ``GET /status``
stage field without the emitters knowing who is watching.

Observer contract
-----------------

* ``emit`` runs on the emitting thread and must be cheap — it sits on the
  search hot path (albeit only every ``SearchLimits.progress_interval``
  expansions, :data:`SEARCH_PROGRESS_INTERVAL` by default).  Portfolio
  members emit from racing threads, so observers that aggregate must lock.
* Observer exceptions never abort a lift: every event goes through
  :func:`safe_notify` (canonical implementation in
  :mod:`repro.core.events`), which swallows them.
* An emitter that does not know the task or the racing member leaves
  ``task`` / ``member`` empty; :func:`bind` wraps an observer so they are
  filled in (the pipeline binds the task, each race loop the member).
  Process-raced members emit in the child and the race forwards their
  events to the parent, so every backend reports the same stream.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Callable, List, Optional

from ..core.events import LiftEvent, safe_notify
from ..core.search import SEARCH_PROGRESS_INTERVAL

__all__ = [
    "CompositeObserver",
    "LiftEvent",
    "LiftObserver",
    "PrintObserver",
    "RecordingObserver",
    "SEARCH_PROGRESS_INTERVAL",
    "bind",
    "safe_notify",
]


class LiftObserver:
    """Base observer: :meth:`emit` is a no-op; override it."""

    def emit(self, event: LiftEvent) -> None:
        """Receive one event of the lift being watched."""


class _Bound(LiftObserver):
    """Fill an event's empty ``task`` / ``member`` before forwarding it."""

    def __init__(self, parent: LiftObserver, task: str, member: str) -> None:
        self._parent = parent
        self._task = task
        self._member = member

    def emit(self, event: LiftEvent) -> None:
        if (self._task and not event.task) or (self._member and not event.member):
            event = replace(
                event,
                task=event.task or self._task,
                member=event.member or self._member,
            )
        safe_notify(self._parent, event)


def bind(
    observer: Optional[LiftObserver], *, task: str = "", member: str = ""
) -> Optional[LiftObserver]:
    """View *observer* with *task* / *member* filled into events that lack them.

    ``bind(None, ...)`` is ``None``, so an unobserved lift pays nothing.
    """
    if observer is None:
        return None
    return _Bound(observer, task, member)


def _print_line(event: LiftEvent) -> Optional[str]:
    """The ``repro lift -v`` line for one event (None: print nothing)."""
    name, attrs, task = event.name, event.attrs, event.task
    # Racing members' stage lines carry the member, so interleaved
    # progress stays attributable.
    who = f"{task}[{event.member}]" if event.member else task
    if name == "stage_started":
        return f"[{who}] stage {attrs['stage']} ..."
    if name == "stage_finished":
        return f"[{who}] stage {attrs['stage']} done in {attrs['seconds']:.3f}s"
    if name == "stage_skipped":
        return f"[{who}] stage {attrs['stage']} skipped (resumed from state)"
    if name == "search_progress":
        rate = attrs["nodes_per_sec"]
        rate_text = f", {rate:.0f} nodes/s" if rate else ""
        return (
            f"  search: {attrs['nodes_expanded']} nodes expanded, "
            f"{attrs['candidates_tried']} candidates tried{rate_text}"
        )
    if name == "candidate_accepted":
        if attrs["proved"]:
            sizes = attrs["sizes"]
            contiguous = len(sizes) > 1 and sizes == list(range(sizes[0], sizes[-1] + 1))
            how = "proved, sizes " + (
                f"{sizes[0]}–{sizes[-1]}" if contiguous else ", ".join(map(str, sizes))
            )
        else:
            how = f"bounded check, {attrs['checks']} inputs"
        return f"  accepted: {attrs['program']} ({how})"
    if name == "retrieval_seeded":
        verdict = "tier-0 hit (search skipped)" if attrs["hit"] else "no tier-0 hit"
        return f"[{who}] seeded from {attrs['neighbors']} neighbor(s): {verdict}"
    if name == "validator_stats":
        candidates, seconds = attrs["candidates"], attrs["seconds"]
        rate_text = f" ({candidates / seconds:.0f}/s)" if seconds > 0 else ""
        return (
            f"  validator: {candidates} candidates{rate_text}, "
            f"{attrs['screen_rejects']} screened out, {attrs['exact_checks']} exact checks"
        )
    member = event.member
    if name == "member_started":
        return f"[{task}] member {member} started"
    if name == "member_finished":
        outcome = "solved" if attrs["success"] else "no solution"
        return f"[{task}] member {member}: {outcome} in {attrs['seconds']:.3f}s"
    if name == "member_cancelled":
        return f"[{task}] member {member} cancelled (another member won)"
    if name == "portfolio_winner":
        return f"[{task}] winner: {member}"
    return None


class PrintObserver(LiftObserver):
    """Human-readable progress lines (what ``repro lift -v`` attaches)."""

    def __init__(self, write: Optional[Callable[[str], None]] = None) -> None:
        self._write = write if write is not None else print

    def emit(self, event: LiftEvent) -> None:
        line = _print_line(event)
        if line is not None:
            self._write(line)


class RecordingObserver(LiftObserver):
    """Collects every event (used by tests and diagnostics).

    Appends are serialized: portfolio member events arrive from racing
    threads.
    """

    def __init__(self) -> None:
        self.events: List[LiftEvent] = []
        self._lock = threading.Lock()

    def emit(self, event: LiftEvent) -> None:
        with self._lock:
            self.events.append(event)

    def stages(self, kind: str = "stage_finished") -> List[str]:
        """The stage names seen for one event kind, in order."""
        return [event.attrs["stage"] for event in self.events if event.name == kind]


class CompositeObserver(LiftObserver):
    """Fan every event out to several child observers, isolating failures.

    Each child is notified through its own :func:`safe_notify`, so one
    broken child can neither abort the lift *nor* suppress delivery to
    its siblings — without this, wrapping ``[broken, tracer]`` in a
    single observer would let ``broken``'s exception swallow the
    ``portfolio_winner`` the tracer needed.
    """

    def __init__(self, *observers: Optional[LiftObserver]) -> None:
        self._children = tuple(obs for obs in observers if obs is not None)

    @property
    def children(self) -> tuple:
        return self._children

    def emit(self, event: LiftEvent) -> None:
        for child in self._children:
            safe_notify(child, event)
