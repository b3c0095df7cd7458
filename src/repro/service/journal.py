"""Crash-safe SQLite job journal for the lifting service.

The journal is the durable half of the scheduler: every job submitted to
a journal-backed :class:`repro.service.scheduler.JobScheduler` is written
to one SQLite database (WAL mode) *before* it is queued in memory, every
state transition is mirrored as a single atomic ``UPDATE ... WHERE
state = ?`` statement, and on startup the scheduler replays the journal —
so a ``kill -9``, an OOM kill or a plain restart loses no submissions.

Design points:

* **One owner.**  A journal is the durability log of exactly one live
  scheduler, on one host and a local filesystem.  The scheduler takes the
  journal's :class:`JournalLease` before it recovers and holds it until its
  last worker exits; a second scheduler (in this process or another) gets
  :class:`JournalBusy`.  The scheduler's in-memory queue decides what runs
  next; the journal only mirrors it.
* **One ``jobs`` table, keyed by job id.**  Rows carry the request digest,
  state, priority, timeout, the JSON-encoded payload (so a fresh process
  can re-materialise the job), attempt/backoff bookkeeping and the full
  provenance timestamps.  A partial unique index over *active* digests is
  a backstop for the scheduler's in-flight deduplication.
* **Guarded transitions.**  ``claim``/``finish``/``requeue`` are single
  guarded ``UPDATE`` statements; the rowcount says whether the row was in
  the expected state.
* **Crash recovery.**  Under the lease, every ``RUNNING`` row at start-up
  is an orphan of a dead owner: :meth:`recover` marks it ``INTERRUPTED``
  and re-enqueues it with exponential backoff + deterministic jitter up to
  a bounded ``max_attempts`` — recorded in the row, so ``repro jobs`` can
  audit every retry — and hands back every ``QUEUED`` row.
* **Counters survive restarts.**  A small ``meta`` table persists the
  service's lifetime counters (``recovered``, ``rejected``, ...) across
  graceful shutdowns.

The journal deliberately stores *no reports*: results live in the
content-addressed :class:`repro.service.store.ResultStore`, keyed by
digest.  The journal only remembers which digests were asked for and how
far each ask got — which is exactly what must survive a crash.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import socket
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from . import faults

#: Canonical journal filename suffix — also what the bench cold-path guard
#: looks for when refusing to measure through a service directory.
JOURNAL_SUFFIX = ".journal.sqlite3"

#: Default filename when a directory is given as the journal path.
DEFAULT_JOURNAL_NAME = f"jobs{JOURNAL_SUFFIX}"

#: Bounded retry budget for interrupted/transiently-failed jobs.
DEFAULT_MAX_ATTEMPTS = 3

#: Backoff schedule: ``base * 2**(attempt-1)`` seconds, capped, plus a
#: deterministic jitter derived from the job id (so tests are stable and
#: a thundering herd of recovered jobs still spreads out).
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 30.0

_ACTIVE_STATES = ("queued", "running")
_TERMINAL_STATES = ("succeeded", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    digest      TEXT NOT NULL,
    state       TEXT NOT NULL,
    priority    INTEGER NOT NULL DEFAULT 0,
    timeout     REAL,
    payload     TEXT NOT NULL DEFAULT '{}',
    attempts    INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before  REAL NOT NULL DEFAULT 0,
    error       TEXT NOT NULL DEFAULT '',
    cached      INTEGER NOT NULL DEFAULT 0,
    submissions INTEGER NOT NULL DEFAULT 1,
    owner       TEXT NOT NULL DEFAULT '',
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state
    ON jobs (state, priority);
CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_active_digest
    ON jobs (digest) WHERE state IN ('queued', 'running');
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_ROW_COLUMNS = (
    "id", "digest", "state", "priority", "timeout", "payload", "attempts",
    "max_attempts", "not_before", "error", "cached", "submissions", "owner",
    "created_at", "started_at", "finished_at",
)


class JournalError(RuntimeError):
    """The journal could not record or transition a job."""


class JournalBusy(JournalError):
    """Another live scheduler holds the journal's lease."""

    def __init__(self, path: Path) -> None:
        super().__init__(
            f"job journal {path} is in use by another live scheduler "
            f"(one journal serves one scheduler at a time)"
        )
        self.path = path


def journal_time() -> float:
    """Journal time: wall clock plus any injected skew (fault point).

    The scheduler reads backoff windows on this same clock, so a job it
    deems eligible is one :meth:`JobJournal.claim` accepts.
    """
    return time.time() + faults.clock_skew()


def backoff_seconds(job_id: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-job jitter.

    ``attempt`` counts runs already consumed (>= 1 for the first retry).
    The jitter is a stable function of (job id, attempt) so the schedule a
    journal records is reproducible — randomness would break replayed
    recovery audits.
    """
    base = BACKOFF_BASE_SECONDS * (2 ** max(0, attempt - 1))
    seed = hashlib.sha256(f"{job_id}:{attempt}".encode("utf-8")).digest()
    jitter = (seed[0] / 255.0) * base * 0.5
    return min(base + jitter, BACKOFF_CAP_SECONDS)


def resolve_journal_path(path: Union[str, Path]) -> Path:
    """The database file a ``--journal`` argument names (dirs get a default)."""
    resolved = Path(path)
    if resolved.is_dir() or (not resolved.suffix and not resolved.exists()):
        return resolved / DEFAULT_JOURNAL_NAME
    return resolved


def owner_token() -> str:
    """``host:pid`` — identifies which process claimed a RUNNING row."""
    return f"{socket.gethostname()}:{os.getpid()}"


#: Lock files this process holds a lease on.  POSIX record locks are per
#: process, so the kernel alone would grant a second lease in-process —
#: and closing any other descriptor of the lock file would drop the first.
_held_leases: Set[str] = set()
_held_leases_lock = threading.Lock()


class JournalLease:
    """Exclusive ownership of one journal: ``fcntl.lockf`` on a sidecar
    ``<journal>.lock`` file, plus the in-process set of held lock files.

    The kernel drops the record lock when the holder dies (``kill -9``
    included), and forked children do not inherit it, so a dead server's
    still-running race members never keep its journal leased.
    """

    def __init__(self, journal_path: Path) -> None:
        self._path = Path(f"{journal_path}.lock")
        self._key = os.path.realpath(self._path)
        with _held_leases_lock:
            if self._key in _held_leases:
                raise JournalBusy(journal_path)
            fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                raise JournalBusy(journal_path) from None
            _held_leases.add(self._key)
        self._fd: Optional[int] = fd

    def release(self) -> None:
        """Give the journal up (idempotent); closing the file drops the lock."""
        with _held_leases_lock:
            if self._fd is None:
                return
            os.close(self._fd)
            self._fd = None
            _held_leases.discard(self._key)


class JobRow:
    """One journal row, attribute-accessible and JSON-friendly."""

    __slots__ = _ROW_COLUMNS

    def __init__(self, values: Sequence[object]) -> None:
        for name, value in zip(_ROW_COLUMNS, values):
            setattr(self, name, value)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_STATES

    def status_dict(self) -> Dict[str, object]:
        """The ``GET /status`` shape for a journal-only (e.g. pre-crash) job."""
        status: Dict[str, object] = {
            "id": self.id,
            "digest": self.digest,
            "state": self.state,
            "priority": self.priority,
            "cached": bool(self.cached),
            "submissions": self.submissions,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            status["error"] = self.error
        return status


class JobJournal:
    """The SQLite-backed durable job queue behind the scheduler."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = resolve_journal_path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self._path), check_same_thread=False, timeout=30.0
        )
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Path:
        return self._path

    def lease(self) -> JournalLease:
        """Take the journal's exclusive lease (raises :class:`JournalBusy`)."""
        return JournalLease(self._path)

    def _execute(self, sql: str, params: Sequence[object] = ()) -> sqlite3.Cursor:
        with self._lock:
            cursor = self._conn.execute(sql, params)
            self._conn.commit()
            return cursor

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def insert(
        self,
        job_id: str,
        digest: str,
        payload_json: str,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        """Journal a fresh QUEUED job.

        Raises :class:`JournalError` when the id is taken or another row for
        the same digest is already queued or running.  The scheduler's
        in-flight deduplication never lets the latter happen; the partial
        unique index is its backstop.
        """
        try:
            self._execute(
                "INSERT INTO jobs (id, digest, state, priority, timeout, payload,"
                " max_attempts, created_at) VALUES (?, ?, 'queued', ?, ?, ?, ?, ?)",
                (job_id, digest, priority, timeout, payload_json,
                 max(1, int(max_attempts)), journal_time()),
            )
        except sqlite3.IntegrityError as error:
            raise JournalError(f"could not journal job {job_id}: {error}") from None

    def record_attach(self, job_id: str) -> None:
        """Count one more submission coalesced onto an active job."""
        self._execute(
            "UPDATE jobs SET submissions = submissions + 1 WHERE id = ?", (job_id,)
        )

    def record_cached(
        self,
        job_id: str,
        digest: str,
        payload_json: str,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> None:
        """Journal a store-answered job directly in its terminal state."""
        now = journal_time()
        self._execute(
            "INSERT OR IGNORE INTO jobs (id, digest, state, priority, timeout,"
            " payload, cached, created_at, finished_at)"
            " VALUES (?, ?, 'succeeded', ?, ?, ?, 1, ?, ?)",
            (job_id, digest, priority, timeout, payload_json, now, now),
        )

    # ------------------------------------------------------------------ #
    # Atomic transitions
    # ------------------------------------------------------------------ #
    def claim(self, job_id: str, owner: Optional[str] = None) -> bool:
        """QUEUED → RUNNING iff still queued and past its backoff; True when won.

        The scheduler has already picked the job from its own queue; this
        mirrors the pick, and the guard refuses a row that is not queued or
        whose ``not_before`` lies ahead on the journal clock.
        """
        cursor = self._execute(
            "UPDATE jobs SET state = 'running', owner = ?, started_at = ?,"
            " attempts = attempts + 1"
            " WHERE id = ? AND state = 'queued' AND not_before <= ?",
            (owner or owner_token(), journal_time(), job_id, journal_time()),
        )
        return cursor.rowcount == 1

    def finish(
        self,
        job_id: str,
        state: str,
        error: str = "",
        cached: bool = False,
        from_states: Sequence[str] = ("queued", "running", "interrupted"),
    ) -> bool:
        """Move a job to a terminal state (guarded by its current state)."""
        if state not in _TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        marks = ", ".join("?" for _ in from_states)
        cursor = self._execute(
            f"UPDATE jobs SET state = ?, error = ?, cached = ?, finished_at = ?"
            f" WHERE id = ? AND state IN ({marks})",
            (state, error, int(cached), journal_time(), job_id, *from_states),
        )
        return cursor.rowcount == 1

    def requeue(
        self, job_id: str, error: str = "", from_state: str = "running"
    ) -> Optional[float]:
        """RUNNING → QUEUED with backoff; returns ``not_before`` or None.

        Refuses (returns None) once the row's bounded ``max_attempts`` is
        spent — the caller should then :meth:`finish` the job as failed.
        """
        row = self.row(job_id)
        if row is None or row.state != from_state:
            return None
        if row.attempts >= row.max_attempts:
            return None
        delay = backoff_seconds(job_id, row.attempts)
        not_before = journal_time() + delay
        cursor = self._execute(
            "UPDATE jobs SET state = 'queued', owner = '', not_before = ?,"
            " error = ? WHERE id = ? AND state = ?",
            (not_before, error, job_id, from_state),
        )
        return not_before if cursor.rowcount == 1 else None

    def requeue_terminal(self, job_id: str) -> bool:
        """Re-enqueue a failed/cancelled/interrupted job (``repro jobs --requeue``).

        Resets the attempt budget: an operator re-running a job has decided
        the earlier attempts should not count against it.
        """
        cursor = self._execute(
            "UPDATE jobs SET state = 'queued', owner = '', not_before = 0,"
            " attempts = 0, error = '', finished_at = NULL"
            " WHERE id = ? AND state IN ('failed', 'cancelled', 'interrupted')",
            (job_id,),
        )
        return cursor.rowcount == 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def row(self, job_id: str) -> Optional[JobRow]:
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE id = ?", (job_id,)
        )
        values = cursor.fetchone()
        return JobRow(values) if values is not None else None

    def rows(
        self, state: Optional[str] = None, limit: int = 200
    ) -> List[JobRow]:
        """Newest-first listing (``repro jobs``)."""
        if state is not None:
            cursor = self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = ?"
                f" ORDER BY rowid DESC LIMIT ?",
                (state, limit),
            )
        else:
            cursor = self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs"
                f" ORDER BY rowid DESC LIMIT ?",
                (limit,),
            )
        return [JobRow(values) for values in cursor.fetchall()]

    def counts(self) -> Dict[str, int]:
        cursor = self._execute("SELECT state, COUNT(*) FROM jobs GROUP BY state")
        return {state: int(count) for state, count in cursor.fetchall()}

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> Tuple[List[JobRow], List[JobRow]]:
        """Replay the journal after a (re)start; the caller holds the lease.

        Returns ``(runnable, failed)``:

        * ``runnable`` — QUEUED rows (including just-re-enqueued interrupted
          ones) for the scheduler to adopt.
        * ``failed`` — orphaned RUNNING rows whose attempt budget was
          already spent; they are finished as FAILED here.

        The lease proves no other scheduler is alive on this journal, so
        every RUNNING row, whatever its ``owner``, is an orphan.
        """
        failed: List[JobRow] = []
        now = journal_time()
        cursor = self._execute(
            f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = 'running'"
        )
        for values in cursor.fetchall():
            row = JobRow(values)
            self._execute(
                "UPDATE jobs SET state = 'interrupted', owner = ''"
                " WHERE id = ? AND state = 'running'",
                (row.id,),
            )
            if row.attempts >= row.max_attempts:
                self.finish(
                    row.id,
                    "failed",
                    error=(
                        f"interrupted by a crash after {row.attempts} attempt(s); "
                        f"max_attempts={row.max_attempts} exhausted"
                    ),
                    from_states=("interrupted",),
                )
                failed.append(self.row(row.id))
                continue
            delay = backoff_seconds(row.id, row.attempts)
            self._execute(
                "UPDATE jobs SET state = 'queued', not_before = ?, error = ?"
                " WHERE id = ? AND state = 'interrupted'",
                (
                    now + delay,
                    f"interrupted by a crash (attempt {row.attempts})",
                    row.id,
                ),
            )
        runnable = [
            JobRow(values)
            for values in self._execute(
                f"SELECT {', '.join(_ROW_COLUMNS)} FROM jobs WHERE state = 'queued'"
                f" ORDER BY priority ASC, rowid ASC"
            ).fetchall()
        ]
        return runnable, failed

    # ------------------------------------------------------------------ #
    # Persistent counters
    # ------------------------------------------------------------------ #
    def meta_get(self, key: str, default: int = 0) -> int:
        cursor = self._execute("SELECT value FROM meta WHERE key = ?", (key,))
        value = cursor.fetchone()
        if value is None:
            return default
        try:
            return int(json.loads(value[0]))
        except (ValueError, TypeError):
            return default

    def meta_set(self, key: str, value: int) -> None:
        self._execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)"
            " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, json.dumps(int(value))),
        )


def looks_like_journal(path: Union[str, Path]) -> bool:
    """Whether *path* names a journal database (the cold-path guard's probe)."""
    return str(path).endswith(JOURNAL_SUFFIX)
