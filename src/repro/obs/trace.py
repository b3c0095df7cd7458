"""Span tracing for lifts and service jobs.

:class:`TraceWriter` appends schema-validated records to a JSONL file —
one whole line per :func:`os.write`-sized ``write`` call on an append
handle, the same crash-tolerant discipline as the fault log.

:class:`TracingObserver` sits on the ``LiftObserver`` seam and turns a
lift's event stream into a span tree: a root ``lift`` span, one span per
pipeline stage, one span per portfolio member (stages nest under the
member that ran them), and point events for search heartbeats, accepted
candidates, validator tier counters, cancellations and the portfolio
winner.  Every event names its member, so open spans are keyed by
``(member, span name)`` whichever thread or process emitted them, and
span times come from the events' own timestamps.

Module-level arming mirrors :mod:`repro.service.faults`: a process-wide
writer armed via :func:`configure` (or the ``REPRO_TRACE`` environment
variable, read once), consulted by scheduler hooks as ``writer()``.
Disarmed, every hook is one ``is None`` check.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..lifting.observer import LiftEvent, LiftObserver
from .schema import AttrValue, EventRecord, SpanRecord, TraceRecord, dump_record

__all__ = [
    "TraceWriter",
    "TracingObserver",
    "configure",
    "reset",
    "writer",
    "job_span_id",
]

#: Environment variable naming a trace file to arm process-wide tracing.
TRACE_ENV = "REPRO_TRACE"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def _scalar(value: object) -> AttrValue:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def _clean_attrs(attrs: Dict[str, object]) -> Dict[str, AttrValue]:
    return {key: _scalar(value) for key, value in attrs.items()}


class TraceWriter:
    """Thread-safe append-only writer of schema-validated trace records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        parent = self.path.parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def write(self, record: TraceRecord) -> None:
        line = dump_record(record) + "\n"
        with self._lock:
            # One whole line per write on an append handle: concurrent
            # writers (member threads, scheduler workers) never interleave
            # partial lines, and a crash loses at most the final line.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    def span(self, trace_id: str, span_id: str, parent_id: Optional[str],
             name: str, start: float, end: float, **attrs: object) -> None:
        self.write(SpanRecord(
            trace_id=trace_id, span_id=span_id, parent_id=parent_id,
            name=name, start=start, end=end, attrs=_clean_attrs(attrs),
        ))

    def event(self, trace_id: str, span_id: str, name: str,
              ts: Optional[float] = None, **attrs: object) -> None:
        self.write(EventRecord(
            trace_id=trace_id, span_id=span_id, name=name,
            ts=time.time() if ts is None else ts, attrs=_clean_attrs(attrs),
        ))


def job_span_id(job_id: str) -> str:
    """The deterministic span id of a service job's lifetime span.

    Deterministic so lifecycle *events* can reference the span from the
    moment the job is queued — the span record itself is only written at
    finish, when its ``end`` is known.
    """
    return f"job:{job_id}"


class _OpenSpan:
    __slots__ = ("span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, span_id: str, parent_id: Optional[str], name: str,
                 start: float, attrs: Dict[str, AttrValue]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs


#: Point events whose trace record also names the task.
_TASK_TAGGED_EVENTS = frozenset({"retrieval_seeded", "member_cancelled", "portfolio_winner"})


class TracingObserver(LiftObserver):
    """Turn a lift's events into a span tree on a trace file.

    One instance traces one lift.  Call :meth:`close` when the lift
    finishes — it flushes any still-open spans (a stage cut short never
    sees ``stage_finished``) and writes the root span.
    """

    def __init__(self, writer: TraceWriter, task: str = "",
                 trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self._writer = writer
        self.trace_id = trace_id or _new_id()
        self.root_span_id = _new_id()
        self._parent_id = parent_id
        self._task = task
        self._start = time.time()
        self._lock = threading.Lock()
        #: Open spans keyed by (member, span name), in opening order.
        self._open: Dict[Tuple[str, str], _OpenSpan] = {}
        self._closed = False

    # -- span plumbing ------------------------------------------------------

    def _parent_of(self, event: LiftEvent) -> str:
        """The open span of the event's member, or the root."""
        member_span = self._open.get((event.member, f"member:{event.member}"))
        return member_span.span_id if member_span is not None else self.root_span_id

    def _innermost(self, member: str) -> str:
        """The innermost open span of *member*, or the root."""
        for (owner, _name), span in reversed(self._open.items()):
            if owner == member:
                return span.span_id
        return self.root_span_id

    def _span_attrs(self, event: LiftEvent, **attrs: object) -> Dict[str, AttrValue]:
        attrs["task"] = event.task
        if event.member:
            attrs["member"] = event.member
        return _clean_attrs(attrs)

    def _open_span(self, event: LiftEvent, name: str) -> None:
        with self._lock:
            self._open[(event.member, name)] = _OpenSpan(
                span_id=_new_id(), parent_id=self._parent_of(event), name=name,
                start=event.ts, attrs=self._span_attrs(event),
            )

    def _close_spans(self, event: LiftEvent, name: str, **attrs: object) -> None:
        """Close span *name* of the event's member, with its end attrs.

        A finished member also closes whatever it left open (marked
        ``unclosed``), so later events about it land on the root.
        """
        with self._lock:
            keys = [
                key for key in self._open
                if key == (event.member, name)
                or (name.startswith("member:") and key[0] == event.member)
            ]
            spans = [self._open.pop(key) for key in keys]
        for span in spans:
            if span.name == name:
                span.attrs.update(_clean_attrs(attrs))
            else:
                span.attrs["unclosed"] = True
            self._write_span(span, end=event.ts)

    def _write_span(self, span: _OpenSpan, end: float) -> None:
        self._writer.write(SpanRecord(
            trace_id=self.trace_id, span_id=span.span_id,
            parent_id=span.parent_id, name=span.name,
            start=span.start, end=end, attrs=span.attrs,
        ))

    # -- LiftObserver seam --------------------------------------------------

    def emit(self, event: LiftEvent) -> None:
        name, attrs = event.name, dict(event.attrs)
        if name.startswith("stage_"):
            span_name = f"stage:{attrs.pop('stage')}"
        elif name in ("member_started", "member_finished"):
            span_name = f"member:{event.member}"
        else:
            self._point(event, name, attrs)
            return
        if name.endswith("_started"):
            self._open_span(event, span_name)
        elif name.endswith("_finished"):
            self._close_spans(event, span_name, **attrs)
        else:  # stage_skipped: a zero-length span
            with self._lock:
                parent_id = self._parent_of(event)
            self._writer.write(SpanRecord(
                trace_id=self.trace_id, span_id=_new_id(), parent_id=parent_id,
                name=span_name, start=event.ts, end=event.ts,
                attrs=self._span_attrs(event, skipped=True),
            ))

    def _point(self, event: LiftEvent, name: str, attrs: Dict[str, object]) -> None:
        """A point event on the innermost open span of the event's member."""
        if name == "search_progress":
            attrs["nodes_per_sec"] = round(attrs["nodes_per_sec"], 3)
        elif name == "validator_stats":
            name = "validator_tiers"
            seconds = attrs["seconds"]
            rate = attrs["candidates"] / seconds if seconds > 0 else 0.0
            attrs["candidates_per_sec"] = round(rate, 3)
        if name in _TASK_TAGGED_EVENTS:
            attrs["task"] = event.task
        if event.member:
            attrs["member"] = event.member
        with self._lock:
            span_id = self._innermost(event.member)
        self._writer.event(self.trace_id, span_id, name, ts=event.ts, **attrs)

    # -- lifecycle ----------------------------------------------------------

    def close(self, **attrs: object) -> None:
        """Flush open spans and write the root ``lift`` span (idempotent)."""
        if self._closed:
            return
        self._closed = True
        end = time.time()
        with self._lock:
            leftovers = list(self._open.values())
            self._open.clear()
        for span in leftovers:
            span.attrs["unclosed"] = True
            self._write_span(span, end=end)
        root_attrs: Dict[str, object] = {"task": self._task}
        root_attrs.update(attrs)
        self._writer.write(SpanRecord(
            trace_id=self.trace_id, span_id=self.root_span_id,
            parent_id=self._parent_id, name="lift",
            start=self._start, end=end, attrs=_clean_attrs(root_attrs),
        ))


# -- process-wide arming (the faults.py idiom) ------------------------------

_WRITER: Optional[TraceWriter] = None
_ENV_LOADED = False
_ARM_LOCK = threading.Lock()


def configure(path: Union[str, Path, None]) -> Optional[TraceWriter]:
    """Arm (or, with ``None``, disarm) the process-wide trace writer."""
    global _WRITER, _ENV_LOADED
    with _ARM_LOCK:
        _ENV_LOADED = True
        _WRITER = TraceWriter(path) if path is not None else None
        return _WRITER


def reset() -> None:
    """Disarm tracing and forget the environment (tests use this)."""
    global _WRITER, _ENV_LOADED
    with _ARM_LOCK:
        _WRITER = None
        _ENV_LOADED = False


def writer() -> Optional[TraceWriter]:
    """The armed process-wide writer, or ``None``.

    The environment is consulted at most once; after that, armed or not,
    every call is a module-global read — callers guard their telemetry
    with ``if writer() is not None`` and pay nothing when disarmed.
    """
    global _WRITER, _ENV_LOADED
    if not _ENV_LOADED:
        with _ARM_LOCK:
            if not _ENV_LOADED:
                _ENV_LOADED = True
                path = os.environ.get(TRACE_ENV)
                if path:
                    _WRITER = TraceWriter(path)
    return _WRITER
