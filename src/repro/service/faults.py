"""Fault-injection harness for the lifting service.

Production code calls :func:`fail_point` (and :func:`log_event` /
:func:`clock_skew`) at a handful of named seams; with no plan configured
every hook is a single ``is None`` check, so the hot path pays nothing.
Tests — and the kill-and-restart e2e, which spawns a real ``repro serve``
process — activate faults either programmatically via :func:`configure`
or through two environment variables:

* ``REPRO_FAULTS`` — comma-separated ``point=spec`` entries, e.g.
  ``"oracle=fail2,store.put=fail1,execute=sleep0.5,execute=kill3"``.
  Specs: ``failN`` (raise :class:`TransientFault`, an ``OSError``, on the
  next *N* hits), ``fatalN`` (raise :class:`FaultError`, a deterministic
  failure, on the next *N* hits), ``sleepX`` (sleep *X* seconds on every
  hit — pacing, so a test can reliably catch a server mid-queue),
  ``killN`` (``os._exit(137)`` on the *N*-th hit — an in-process
  ``kill -9``), and ``skewX`` (report *X* seconds of clock skew through
  :func:`clock_skew`).
* ``REPRO_FAULT_LOG`` — path of an append-only JSONL event log.  The
  scheduler logs ``job.started`` / ``job.finished`` events through
  :func:`log_event`, which is how the e2e proves "no digest was
  synthesized twice" across a crash: count completions per digest in the
  log.

Named fault points currently wired into the service:

========== =========================================================
``oracle``     before the oracle/synthesis pipeline runs (transient
               oracle flake → scheduler retry-with-backoff)
``store.put``  before a result-store write (transient ``OSError`` →
               in-place write retry)
``execute``    top of request execution (pacing / worker death)
``clock``      additive skew applied to the journal clock, which
               also times the scheduler's backoff windows
========== =========================================================
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "FaultError",
    "TransientFault",
    "active",
    "clock_skew",
    "configure",
    "fail_point",
    "log_event",
    "reset",
]


class FaultError(RuntimeError):
    """A *deterministic* injected failure — the scheduler must not retry it."""


class TransientFault(OSError):
    """A *transient* injected failure — the scheduler retries with backoff."""


class _Fault:
    """One armed fault: a countdown of a given kind at one point."""

    __slots__ = ("kind", "value", "remaining", "hits")

    def __init__(self, kind: str, value: float) -> None:
        self.kind = kind
        self.value = value
        # fail/fatal/kill specs are countdowns; sleep/skew apply every hit.
        self.remaining = int(value) if kind in ("fail", "fatal", "kill") else -1
        self.hits = 0


class _Plan:
    """The active fault plan: point name -> armed faults, plus the log."""

    def __init__(self) -> None:
        self.points: Dict[str, List[_Fault]] = {}
        self.log_path: Optional[str] = None
        self.lock = threading.Lock()

    def add(self, point: str, kind: str, value: float) -> None:
        self.points.setdefault(point, []).append(_Fault(kind, value))


_PLAN: Optional[_Plan] = None
_ENV_LOADED = False


def _parse_spec(spec: str) -> Optional[tuple]:
    for kind in ("fail", "fatal", "sleep", "kill", "skew"):
        if spec.startswith(kind):
            raw = spec[len(kind):] or "1"
            try:
                return kind, float(raw)
            except ValueError:
                return None
    return None


def _load_env_plan() -> None:
    """Arm faults from ``REPRO_FAULTS`` / ``REPRO_FAULT_LOG`` (once)."""
    global _PLAN, _ENV_LOADED
    if _ENV_LOADED:
        return
    _ENV_LOADED = True
    raw = os.environ.get("REPRO_FAULTS", "")
    log_path = os.environ.get("REPRO_FAULT_LOG")
    if not raw and not log_path:
        return
    plan = _PLAN or _Plan()
    plan.log_path = log_path or plan.log_path
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry or "=" not in entry:
            continue
        point, _, spec = entry.partition("=")
        parsed = _parse_spec(spec.strip())
        if parsed is not None:
            plan.add(point.strip(), *parsed)
    _PLAN = plan


def configure(
    spec: Optional[Dict[str, str]] = None, log_path: Optional[str] = None
) -> None:
    """Arm faults programmatically (tests): ``{"oracle": "fail2", ...}``."""
    global _PLAN
    plan = _Plan()
    plan.log_path = log_path
    for point, entry in (spec or {}).items():
        for part in entry.split(","):
            parsed = _parse_spec(part.strip())
            if parsed is None:
                raise ValueError(f"unparseable fault spec {part!r} for {point!r}")
            plan.add(point, *parsed)
    _PLAN = plan


def reset() -> None:
    """Disarm everything (tests call this in teardown)."""
    global _PLAN, _ENV_LOADED
    _PLAN = None
    _ENV_LOADED = True  # never re-read the environment mid-process


def active() -> bool:
    _load_env_plan()
    return _PLAN is not None


def fail_point(point: str) -> None:
    """Fire the fault(s) armed at *point*, if any.

    Order of effects when several specs are armed at one point: sleeps
    first (pacing applies even to the failing hit), then kill, then the
    raise countdowns.
    """
    _load_env_plan()
    plan = _PLAN
    if plan is None:
        return
    faults = plan.points.get(point)
    if not faults:
        return
    with plan.lock:
        to_sleep = 0.0
        to_raise: Optional[BaseException] = None
        kill = False
        for fault in faults:
            fault.hits += 1
            if fault.kind == "sleep":
                to_sleep += fault.value
            elif fault.kind == "kill":
                if fault.hits == int(fault.value):
                    kill = True
            elif fault.remaining > 0:
                fault.remaining -= 1
                if fault.kind == "fail":
                    to_raise = TransientFault(
                        f"injected transient fault at {point!r}"
                    )
                else:
                    to_raise = FaultError(
                        f"injected deterministic fault at {point!r}"
                    )
    if to_sleep > 0.0:
        time.sleep(to_sleep)
    if kill:
        log_event("fault.kill", point=point)
        os._exit(137)  # the in-process kill -9: no cleanup, no atexit
    if to_raise is not None:
        log_event("fault.raised", point=point, kind=type(to_raise).__name__)
        raise to_raise


def clock_skew() -> float:
    """Seconds of injected clock skew (the ``clock=skewX`` spec), else 0."""
    _load_env_plan()
    plan = _PLAN
    if plan is None:
        return 0.0
    skew = 0.0
    for fault in plan.points.get("clock", ()):
        if fault.kind == "skew":
            skew += fault.value
    return skew


def log_event(event: str, **fields: object) -> None:
    """Append one JSONL record to the fault log (no-op when unconfigured).

    Lines are written with a single ``write`` on an ``O_APPEND`` handle, so
    concurrent workers and successive server processes interleave whole
    records, never torn ones.
    """
    _load_env_plan()
    plan = _PLAN
    if plan is None or not plan.log_path:
        return
    record = {"event": event, "ts": time.time(), "pid": os.getpid(), **fields}
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        with open(plan.log_path, "a", encoding="utf-8") as stream:
            stream.write(line)
    except OSError:  # pragma: no cover - the log must never fail the service
        pass


def read_event_log(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL fault log (test helper); skips torn/blank lines."""
    events: List[Dict[str, object]] = []
    try:
        raw = open(path, "r", encoding="utf-8").read()
    except OSError:
        return events
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events
