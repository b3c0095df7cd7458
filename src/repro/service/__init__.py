"""Lifting-as-a-service layer: store, scheduler, batch API and HTTP server.

This package turns the one-shot synthesizer into a long-lived service:

* :mod:`repro.service.digest` — content addresses for lift requests.
* :mod:`repro.service.store` — persistent, crash-safe result store keyed
  by request digest, with provenance metadata and hit/miss counters.
* :mod:`repro.service.journal` — crash-safe SQLite (WAL) job journal for
  one live scheduler (an exclusive lease): durable queue rows, guarded
  state transitions, recovery with bounded retries and persistent
  counters.
* :mod:`repro.service.scheduler` — priority job queue with in-flight
  deduplication, per-job timeouts, transient-failure retry/backoff and a
  worker thread pool, optionally journal-backed.
* :mod:`repro.service.faults` — fault-injection harness (named failure
  points, env-configurable, JSONL event log) proving the failure paths.
* :mod:`repro.service.api` — :class:`LiftingService`, the submit /
  status / result / batch surface shared by the CLI and the HTTP layer,
  with queue-depth admission control.
* :mod:`repro.service.server` — stdlib ``ThreadingHTTPServer`` front end
  (429 + Retry-After past the admission threshold).

It is also the seam the evaluation harness uses for warm-cache corpus
sweeps: :class:`CachedLifter` wraps any lifting method with the store.
"""

from .api import (
    LiftRequest,
    LiftingService,
    ServiceError,
    ServiceOverloadedError,
    build_lifter,
    execute_request,
    request_digest,
    resolve_task,
)
from .digest import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    describe_lifter,
    describe_oracle,
    describe_task,
    jsonable,
    lift_digest,
)
from .journal import (
    DEFAULT_MAX_ATTEMPTS,
    JOURNAL_SUFFIX,
    JobJournal,
    JobRow,
    JournalBusy,
    backoff_seconds,
    resolve_journal_path,
)
from .scheduler import DEFAULT_JOB_RETENTION, Job, JobScheduler, JobState
from .server import (
    DEFAULT_PORT,
    LiftingServer,
    make_server,
    serve_in_background,
)
from .store import CachedLifter, ResultStore, StoreEntry

__all__ = [
    "LiftRequest",
    "LiftingService",
    "ServiceError",
    "ServiceOverloadedError",
    "DEFAULT_MAX_ATTEMPTS",
    "JOURNAL_SUFFIX",
    "JobJournal",
    "JobRow",
    "JournalBusy",
    "backoff_seconds",
    "resolve_journal_path",
    "DEFAULT_JOB_RETENTION",
    "build_lifter",
    "execute_request",
    "request_digest",
    "resolve_task",
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "describe_lifter",
    "describe_oracle",
    "describe_task",
    "jsonable",
    "lift_digest",
    "Job",
    "JobScheduler",
    "JobState",
    "DEFAULT_PORT",
    "LiftingServer",
    "make_server",
    "serve_in_background",
    "CachedLifter",
    "ResultStore",
    "StoreEntry",
]
