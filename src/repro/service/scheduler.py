"""Async job scheduler for the lifting service.

The scheduler owns a priority queue of lift jobs and a pool of workers
that drain it.  Service-level behaviours live here rather than in the
synthesizer:

* **Deduplication** — a submission whose request digest matches a job that
  is already queued or running attaches to that job instead of enqueueing
  a second copy; a submission whose digest is already in the result store
  completes immediately without touching the queue at all.
* **Prioritisation** — jobs carry an integer priority (lower runs first);
  ties are broken by submission order, so equal-priority traffic is FIFO.
* **Durability** — with a :class:`repro.service.journal.JobJournal`
  attached, the scheduler takes the journal's exclusive lease (a second
  owner gets :class:`~repro.service.journal.JournalBusy`) and holds it
  until its last worker exits.  Every submission is journaled *before* it
  is queued, every state transition is mirrored as a guarded SQLite
  ``UPDATE``, and construction replays the journal: ``QUEUED`` rows are
  re-adopted and ``RUNNING`` rows — orphans of the dead previous owner —
  are marked ``INTERRUPTED`` and re-enqueued with exponential backoff +
  deterministic jitter, up to each row's bounded ``max_attempts``.  The
  in-memory queue alone decides what runs next; the journal mirrors it.
* **Retry with backoff** — a *transient* failure (``OSError``, which
  covers oracle socket flakes, injected :class:`~repro.service.faults.
  TransientFault`\\ s and kin) re-enqueues the job with backoff instead of
  failing it, up to ``max_attempts`` runs; deterministic failures
  (anything that is not an ``OSError``) fail immediately.  Result-store
  writes get their own small in-place retry loop.
* **Timeouts & cancellation** — each job carries a wall-clock budget.  The
  executor is always called as ``executor(payload, budget=..., observer=...)``
  (as :func:`repro.service.api.execute_request` is): the budget is a
  cooperative :class:`repro.lifting.Budget` threaded through the whole
  pipeline — oracle, search and validator all poll it — so a deadline stops
  the synthesis instead of abandoning the worker thread, running jobs can
  be cancelled, and the job's ``stage`` field tracks live pipeline progress
  for ``GET /status``.

Workers are always threads that call the executor in-process.  Multi-core
parallelism belongs to the method, not the scheduler: a service built with
``execution=ExecutionConfig("processes", N)`` binds that config into its
executor, so a portfolio job races its members across processes while the
job itself keeps its budget, cancellation, live ``stage`` and trace.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..core.result import SynthesisReport
from ..lifting import Budget, LiftObserver
from ..lifting.observer import CompositeObserver, LiftEvent
from ..obs import MetricsRegistry
from ..obs import trace as obs_trace
from ..obs.trace import TracingObserver, job_span_id
from . import faults
from .journal import (
    DEFAULT_MAX_ATTEMPTS,
    JobJournal,
    JobRow,
    backoff_seconds,
    journal_time,
    owner_token,
)
from .store import ResultStore

#: How many *terminal* jobs the scheduler remembers for status/result
#: lookups.  Older finished jobs are evicted (their results live on in the
#: store, keyed by digest), which bounds memory in a long-lived service.
DEFAULT_JOB_RETENTION = 1024

#: How many evicted-job id → digest crumbs are kept so ``GET /status`` /
#: ``GET /result`` can distinguish "evicted" (and serve the stored result)
#: from "never existed".  Crumbs are two small strings, so this can be
#: comfortably larger than the job retention ring.
EVICTED_DIGEST_RETENTION = 4096

#: In-place retry budget for result-store writes (transient ``OSError``).
STORE_WRITE_ATTEMPTS = 3

#: Fallback per-job duration estimate (s) for Retry-After before any job
#: has completed.
DEFAULT_DRAIN_ESTIMATE_SECONDS = 60.0

#: Longest an idle worker sleeps before it looks at the queue again.
_POLL_SECONDS = 0.2


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: A journal-only transient state: the row was RUNNING when its owner
    #: died; recovery immediately re-enqueues or fails it.
    INTERRUPTED = "interrupted"

    @property
    def terminal(self) -> bool:
        return self in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One scheduled lift."""

    id: str
    digest: str
    payload: object
    priority: int = 0
    timeout: Optional[float] = None
    state: JobState = JobState.QUEUED
    report: Optional[SynthesisReport] = None
    error: str = ""
    #: True when the job was answered from the result store without running.
    cached: bool = False
    #: How many submissions were coalesced onto this job (1 = no dedup).
    submissions: int = 1
    #: How many runs this job has consumed (restart-interrupted and
    #: transiently-failed runs count; the journal persists this).
    attempts: int = 0
    #: Earliest wall-clock time the job may (re)run — retry backoff.
    not_before: float = 0.0
    #: Live pipeline progress ("oracle", "search:2048", ...).
    stage: str = ""
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The cooperative budget bounding this job's run (set when claimed).
    budget: Optional[Budget] = field(default=None, repr=False)
    #: Set (under the scheduler lock) once the finished report is committed:
    #: from then on `cancel()` refuses rather than racing the store write.
    _committed: bool = field(default=False, repr=False)
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True on arrival)."""
        return self._done.wait(timeout)

    def status_dict(self) -> Dict[str, object]:
        """JSON-safe status snapshot (what ``GET /status`` serves)."""
        status: Dict[str, object] = {
            "id": self.id,
            "digest": self.digest,
            "state": self.state.value,
            "priority": self.priority,
            "cached": self.cached,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.stage:
            status["stage"] = self.stage
        if self.error:
            status["error"] = self.error
        if self.state is JobState.SUCCEEDED and self.report is not None:
            status["success"] = self.report.success
        return status


class _JobObserver(LiftObserver):
    """Mirror pipeline progress onto the job so ``GET /status`` shows it live.

    Portfolio jobs surface the race itself, not just pipeline stages.
    Member events arrive from racing threads; the stage field is a plain
    last-writer-wins snapshot, which is exactly what a live view wants.
    """

    def __init__(self, job: "Job") -> None:
        self._job = job

    def emit(self, event: LiftEvent) -> None:
        name, member = event.name, event.member
        stage = event.attrs.get("stage", "")
        if name == "stage_started":
            self._job.stage = f"portfolio[{member}]:{stage}" if member else stage
        elif name == "stage_skipped":
            # Racing members resume from the portfolio's shared oracle state
            # — their skipped stages are shared work, not store replays.
            self._job.stage = (
                f"portfolio[{member}]:{stage} (shared)" if member else f"{stage} (cached)"
            )
        elif name == "search_progress":
            prefix = "portfolio search" if member else "search"
            self._job.stage = f"{prefix}:{event.attrs['nodes_expanded']}"
        elif name == "member_started":
            self._job.stage = f"portfolio:{member}"
        elif name == "member_cancelled":
            self._job.stage = f"portfolio:{member} cancelled"
        elif name == "portfolio_winner":
            self._job.stage = f"portfolio winner:{member}"


def _is_transient(error: BaseException) -> bool:
    """Transient = worth a backoff retry.

    ``OSError`` covers the real transient universe here — socket flakes
    talking to an oracle, interrupted store writes, injected
    :class:`~repro.service.faults.TransientFault`\\ s.  Everything else
    (bad requests, synthesis bugs, deterministic
    :class:`~repro.service.faults.FaultError`\\ s) is deterministic: the
    same input would fail the same way, so retrying only burns budget.
    """
    return isinstance(error, OSError)


class JobScheduler:
    """Priority queue + worker pool with dedup, store hits, retries and
    (optionally) a crash-safe SQLite journal underneath."""

    def __init__(
        self,
        executor: Callable[..., SynthesisReport],
        store: Optional[ResultStore] = None,
        workers: int = 2,
        provenance: Optional[Callable[[object], Dict[str, object]]] = None,
        job_retention: int = DEFAULT_JOB_RETENTION,
        journal: Optional[JobJournal] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        payload_codec: Optional[
            Tuple[Callable[[object], str], Callable[[str], object]]
        ] = None,
        metrics: Optional[MetricsRegistry] = None,
        retrieval_probe: Optional[Callable[[object], int]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"scheduler needs at least one worker, got {workers}")
        self._executor = executor
        self._store = store
        self._provenance = provenance
        #: On a store miss, ``retrieval_probe(payload)`` reports how many
        #: similar solved kernels the retrieval index can seed the cold job
        #: with (0 when the index is disarmed).  Purely observational — the
        #: seeding itself happens inside the executor's pipeline.
        self._retrieval_probe = retrieval_probe
        self._journal = journal
        self._owner = owner_token()
        self._max_attempts = max(1, int(max_attempts))
        encode, decode = payload_codec or (json.dumps, json.loads)
        self._encode_payload = encode
        self._decode_payload = decode
        self._queue: List[Tuple[int, int, Job]] = []
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._active: Dict[str, Job] = {}  # digest -> queued/running job
        self._jobs: Dict[str, Job] = {}  # id -> job (all states)
        self._retention = max(1, int(job_retention))
        self._finished_order: deque = deque()  # terminal job ids, oldest first
        #: id -> digest crumbs for jobs evicted from the retention ring, so
        #: the HTTP layer can answer "evicted, stored result available"
        #: instead of an indistinct 404.
        self._evicted_digests: "OrderedDict[str, str]" = OrderedDict()
        self._shutdown = False
        self._drain_on_shutdown = True
        # Lifetime counters live on the metrics registry, so GET /stats and
        # GET /metrics read the same cells and can never drift apart.  Call
        # sites hold direct Counter references — no registry lookup on the
        # job paths.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._deduplicated = self.metrics.counter(
            "repro_jobs_deduplicated_total",
            "Submissions coalesced onto an already queued/running digest",
        )
        self._store_answers = self.metrics.counter(
            "repro_jobs_store_answers_total",
            "Submissions answered from the content-addressed result store",
        )
        self._budget_truncated = self.metrics.counter(
            "repro_jobs_budget_truncated_total",
            "Jobs cut short by their wall-clock budget",
        )
        self._retried = self.metrics.counter(
            "repro_jobs_retried_total",
            "Transiently-failed jobs re-enqueued with backoff",
        )
        self._recovered = self.metrics.counter(
            "repro_jobs_recovered_total",
            "Journal rows re-adopted at startup after a crash",
        )
        self._store_write_retries = self.metrics.counter(
            "repro_store_write_retries_total",
            "Transient result-store write failures retried in place",
        )
        self._retrieval_probes = self.metrics.counter(
            "repro_retrieval_probes_total",
            "Store-miss submissions probed against the retrieval index",
        )
        self._retrieval_seedable = self.metrics.counter(
            "repro_retrieval_seedable_total",
            "Probed submissions with at least one similar solved neighbor",
        )
        self._retrieval_seed_attempts = self.metrics.counter(
            "repro_retrieval_seed_attempts_total",
            "Finished jobs whose lift ran with similarity seeding armed",
        )
        self._retrieval_seed_hits = self.metrics.counter(
            "repro_retrieval_seed_hits_total",
            "Finished jobs answered by a tier-0 seeded candidate (search skipped)",
        )
        self._finished_counts = {
            state: self.metrics.counter(
                "repro_jobs_finished_total",
                "Jobs reaching a terminal state, by state",
                labels={"state": state.value},
            )
            for state in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)
        }
        self._job_duration = self.metrics.histogram(
            "repro_job_duration_seconds",
            "Run time of terminal jobs (claim to finish; p50/p95/p99 derivable)",
        )
        self._job_queue_wait = self.metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Time terminal jobs spent queued before being claimed",
        )
        self.metrics.gauge(
            "repro_queue_depth", "Jobs waiting to run", fn=self.queue_depth
        )
        self.metrics.gauge(
            "repro_oldest_queued_age_seconds",
            "Age of the oldest queued job",
            fn=self.oldest_queued_age,
        )
        #: (finished_at, duration) of recent terminal jobs — the drain-rate
        #: sample backing Retry-After estimates.
        self._recent_finishes: deque = deque(maxlen=32)
        self._lease = journal.lease() if journal is not None else None
        if self._lease is not None:
            try:
                self._recover_from_journal()
            except BaseException:
                self._lease.release()
                raise
        #: Workers still running; the last one out releases the lease.
        self._live_workers = workers
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"lift-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Journal recovery / rehydration
    # ------------------------------------------------------------------ #
    def _materialize(self, row: JobRow) -> Optional[Job]:
        """A :class:`Job` for a journal row (None + journal FAILED on rot)."""
        try:
            payload = self._decode_payload(row.payload)
        except Exception as error:  # noqa: BLE001 - rot must not kill startup
            self._journal.finish(
                row.id, "failed", error=f"unreadable journaled payload: {error}"
            )
            return None
        job = Job(
            id=row.id,
            digest=row.digest,
            payload=payload,
            priority=int(row.priority),
            timeout=row.timeout,
            submissions=int(row.submissions),
            attempts=int(row.attempts),
            not_before=float(row.not_before),
            created_at=float(row.created_at),
        )
        job.error = row.error or ""
        return job

    def _recover_from_journal(self) -> None:
        """Adopt every runnable journal row at startup (crash recovery)."""
        runnable, _failed = self._journal.recover()
        adopted = 0
        for row in runnable:
            job = self._materialize(row)
            if job is None:
                continue
            with self._lock:
                if job.id in self._jobs or job.digest in self._active:
                    continue
                self._jobs[job.id] = job
                self._active[job.digest] = job
                heapq.heappush(self._queue, (job.priority, next(self._sequence), job))
            adopted += 1
            faults.log_event(
                "job.recovered", id=job.id, digest=job.digest, attempts=job.attempts
            )
        self._recovered.inc(adopted)
        if adopted:
            self._journal.meta_set(
                "recovered_total",
                self._journal.meta_get("recovered_total") + adopted,
            )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        payload: object,
        digest: str,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> Job:
        """Schedule a lift; may return an existing (deduplicated) job.

        The returned job is immediately terminal when the digest was
        already answered in the result store.  With a journal attached the
        submission is journaled before it is queued, so it survives a
        crash from this point on.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            existing = self._active.get(digest)
            if existing is not None:
                existing.submissions += 1
                self._deduplicated.inc()
                if self._journal is not None:
                    self._journal.record_attach(existing.id)
                return existing
        if self._store is not None:
            entry = self._store.get(digest)
            if entry is not None:
                job = self._make_job(digest, payload, priority, timeout)
                job.report = entry.report
                job.cached = True
                with self._lock:
                    self._store_answers.inc()
                    self._jobs[job.id] = job
                if self._journal is not None:
                    self._journal.record_cached(
                        job.id, digest, self._encode_json_payload(payload),
                        priority=priority, timeout=timeout,
                    )
                self._finish(job, JobState.SUCCEEDED)
                return job
        # Cold work from here on: before queueing, ask the retrieval layer
        # whether similar solved kernels exist to seed this lift with.
        self._probe_retrieval(payload, digest)
        job = self._make_job(digest, payload, priority, timeout)
        with self._lock:
            # Re-check under the lock: another thread may have enqueued the
            # same digest while we probed the store.  Journaling inside the
            # same critical section keeps a duplicate out of the journal.
            existing = self._active.get(digest)
            if existing is not None:
                existing.submissions += 1
                self._deduplicated.inc()
                if self._journal is not None:
                    self._journal.record_attach(existing.id)
                return existing
            if self._journal is not None:
                self._journal.insert(
                    job.id,
                    digest,
                    self._encode_json_payload(payload),
                    priority=priority,
                    timeout=timeout,
                    max_attempts=self._max_attempts,
                )
            self._jobs[job.id] = job
            self._active[digest] = job
            heapq.heappush(self._queue, (priority, next(self._sequence), job))
            self._work_ready.notify()
        self._trace_job_event(job, "job.queued", ts=job.created_at)
        return job

    def _probe_retrieval(self, payload: object, digest: str) -> None:
        """Count how seedable a store-missed submission is (best-effort).

        Disarmed (no probe callback, or an empty index behind it) this is
        one ``is None`` check per cold submission; a broken probe must
        never fail the submission it was only describing.
        """
        if self._retrieval_probe is None:
            return
        try:
            neighbors = int(self._retrieval_probe(payload))
        except Exception:  # noqa: BLE001 - observational only
            return
        with self._lock:
            self._retrieval_probes.inc()
            if neighbors > 0:
                self._retrieval_seedable.inc()
        if neighbors > 0:
            faults.log_event(
                "job.seedable", digest=digest, neighbors=neighbors
            )

    def _count_seed_outcome(self, report: SynthesisReport) -> None:
        """Fold the report's seed-stage verdict into the lifetime counters."""
        details = getattr(report, "details", None)
        retrieval = details.get("retrieval") if isinstance(details, dict) else None
        if not isinstance(retrieval, dict) or not retrieval.get("armed"):
            return
        with self._lock:
            self._retrieval_seed_attempts.inc()
            if retrieval.get("hit"):
                self._retrieval_seed_hits.inc()

    def _encode_json_payload(self, payload: object) -> str:
        try:
            return self._encode_payload(payload)
        except Exception:  # noqa: BLE001 - journal a marker, not nothing
            return json.dumps({"unencodable": repr(payload)})

    def _make_job(
        self, digest: str, payload: object, priority: int, timeout: Optional[float]
    ) -> Job:
        if self._journal is not None:
            # Journal ids must stay unique across restarts; a per-process
            # sequence is not.
            job_id = f"job-{uuid.uuid4().hex[:10]}-{digest[:8]}"
        else:
            with self._lock:
                number = next(self._sequence)
            job_id = f"job-{number:06d}-{digest[:8]}"
        return Job(
            id=job_id,
            digest=digest,
            payload=payload,
            priority=priority,
            timeout=timeout,
        )

    # ------------------------------------------------------------------ #
    # Introspection / control
    # ------------------------------------------------------------------ #
    @property
    def worker_count(self) -> int:
        return len(self._workers)

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def is_active(self, digest: str) -> bool:
        """Whether *digest* has a queued/running job a submission would join."""
        with self._lock:
            return digest in self._active

    def evicted_digest(self, job_id: str) -> Optional[str]:
        """The digest of a job evicted from the retention ring, if known."""
        with self._lock:
            return self._evicted_digests.get(job_id)

    def journal_row(self, job_id: str) -> Optional[JobRow]:
        """The journal's view of a job (survives restarts and eviction)."""
        if self._journal is None:
            return None
        return self._journal.row(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.

        Queued jobs are removed immediately.  A *running* job's budget
        cancellation token is flipped and the synthesis pipeline winds down
        at its next poll point (a process-raced portfolio forwards the flip
        to its member processes), after which the job finishes as CANCELLED
        (its truncated report is never written to the store).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return False
            if job.state is JobState.RUNNING:
                # A committed job's report is (being) stored; refuse rather
                # than report a cancellation that can no longer take effect.
                if job._committed:
                    return False
                job.budget.cancel()
                return True
            if job.state is not JobState.QUEUED:
                return False
            # Flip the state under the lock so a worker popping the heap
            # concurrently sees CANCELLED and skips the job.
            job.state = JobState.CANCELLED
            self._active.pop(job.digest, None)
        self._finish(job, JobState.CANCELLED)
        return True

    def queue_depth(self) -> int:
        """Jobs waiting to run."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.state is JobState.QUEUED
            )

    def oldest_queued_age(self) -> Optional[float]:
        """Age (s) of the oldest queued job — the backlog staleness gauge."""
        with self._lock:
            queued = [
                job.created_at
                for job in self._jobs.values()
                if job.state is JobState.QUEUED
            ]
        if not queued:
            return None
        return max(0.0, time.time() - min(queued))

    def estimate_retry_after(self, depth: Optional[int] = None) -> int:
        """Seconds an overloaded client should wait, from the drain rate.

        Recent terminal jobs give an average service time; the backlog
        divided across the worker pool turns that into a drain estimate.
        Before any job has finished a conservative default is used.
        """
        if depth is None:
            depth = self.queue_depth()
        with self._lock:
            recent = list(self._recent_finishes)
        if recent:
            average = sum(duration for _, duration in recent) / len(recent)
        else:
            average = DEFAULT_DRAIN_ESTIMATE_SECONDS
        estimate = math.ceil(max(1, depth) * average / self.worker_count)
        return int(min(max(estimate, 1), 600))

    def stats(self) -> Dict[str, object]:
        """Lifetime counters (terminal counts survive job eviction)."""
        queue_depth = self.queue_depth()
        oldest = self.oldest_queued_age()
        with self._lock:
            states = [job.state for job in self._jobs.values()]
            return {
                "queued": sum(1 for s in states if s is JobState.QUEUED),
                "running": sum(1 for s in states if s is JobState.RUNNING),
                "succeeded": int(self._finished_counts[JobState.SUCCEEDED].value),
                "failed": int(self._finished_counts[JobState.FAILED].value),
                "cancelled": int(self._finished_counts[JobState.CANCELLED].value),
                "deduplicated": int(self._deduplicated.value),
                "store_answers": int(self._store_answers.value),
                "budget_truncated": int(self._budget_truncated.value),
                "queue_depth": queue_depth,
                "oldest_queued_age": oldest,
                "retried": int(self._retried.value),
                "recovered": int(self._recovered.value),
                "store_write_retries": int(self._store_write_retries.value),
                "retrieval_probes": int(self._retrieval_probes.value),
                "retrieval_seedable": int(self._retrieval_seedable.value),
                "retrieval_seed_attempts": int(
                    self._retrieval_seed_attempts.value
                ),
                "retrieval_seed_hits": int(self._retrieval_seed_hits.value),
            }

    def shutdown(
        self,
        wait: bool = True,
        timeout: Optional[float] = 10.0,
        drain: Optional[bool] = None,
    ) -> None:
        """Stop the workers.

        ``drain`` controls what happens to still-queued jobs: True finishes
        them first (the historical in-memory behaviour — dropping them
        would lose work forever), False stops after the jobs already
        running (the journal-backed default — queued rows persist in the
        journal and the next start re-adopts them).
        """
        if drain is None:
            drain = self._journal is None
        with self._lock:
            self._shutdown = True
            self._drain_on_shutdown = drain
            self._work_ready.notify_all()
        if wait:
            for thread in self._workers:
                thread.join(timeout)

    # ------------------------------------------------------------------ #
    # Job lifecycle tracing (no-ops unless a trace writer is armed)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _task_label(job: Job) -> str:
        for attr in ("benchmark", "name"):
            value = getattr(job.payload, attr, None)
            if value:
                return str(value)
        return job.digest[:12]

    def _trace_job_event(self, job: Job, name: str,
                         ts: Optional[float] = None, **attrs: object) -> None:
        tracer = obs_trace.writer()
        if tracer is not None:
            tracer.event(job.id, job_span_id(job.id), name, ts=ts,
                         digest=job.digest, **attrs)

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        try:
            while True:
                job = self._claim_next()
                if job is None:
                    return
                self._run_job(job)
        finally:
            with self._lock:
                self._live_workers -= 1
                last = self._live_workers == 0
            if last and self._lease is not None:
                self._lease.release()

    def _pop_runnable_locked(self) -> Tuple[Optional[Job], Optional[float]]:
        """Pop the best runnable heap entry; (job, seconds-until-eligible)."""
        now = journal_time()
        deferred: List[Tuple[int, int, Job]] = []
        claimed: Optional[Job] = None
        delay: Optional[float] = None
        while self._queue:
            entry = heapq.heappop(self._queue)
            job = entry[2]
            if job.state is not JobState.QUEUED:
                continue  # cancelled while queued, or a stale retry entry
            if job.not_before > now:
                deferred.append(entry)
                continue
            if self._journal is not None and not self._journal.claim(
                job.id, self._owner
            ):
                # The journal only mirrors this queue, so a refusal means its
                # clock has not reached the backoff window yet (the wall
                # clock stepped back).  Keep the job; ask again next poll.
                job.not_before = now + _POLL_SECONDS
                deferred.append(entry)
                continue
            claimed = job
            break
        for entry in deferred:
            heapq.heappush(self._queue, entry)
        if claimed is None and deferred:
            delay = max(0.0, min(e[2].not_before for e in deferred) - now)
        return claimed, delay

    def _claim_next(self) -> Optional[Job]:
        """Block until a job is claimed for this worker (None = shutdown)."""
        with self._work_ready:
            while True:
                if self._shutdown and (
                    not self._drain_on_shutdown or not self._queue
                ):
                    return None
                job, delay = self._pop_runnable_locked()
                if job is not None:
                    # State flip + budget creation happen under the same
                    # lock acquisition, so cancel() never observes a running
                    # job without a budget to cancel.
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    job.attempts += 1
                    job.budget = Budget(timeout_seconds=job.timeout)
                    return job
                self._work_ready.wait(
                    min(delay, _POLL_SECONDS) if delay is not None else _POLL_SECONDS
                )

    def _maybe_retry(self, job: Job) -> bool:
        """Re-enqueue a transiently-failed job with backoff (True = retried)."""
        with self._lock:
            if self._shutdown and not self._drain_on_shutdown:
                return False
            if job.attempts >= self._max_attempts:
                return False
            if job.budget is not None and job.budget.cancelled:
                return False
        if self._journal is not None:
            not_before = self._journal.requeue(job.id, error=job.error)
            if not_before is None:
                return False
        else:
            not_before = journal_time() + backoff_seconds(job.id, job.attempts)
        with self._work_ready:
            job.state = JobState.QUEUED
            job.not_before = not_before
            job.started_at = None
            job.budget = None
            job.stage = ""
            self._retried.inc()
            heapq.heappush(self._queue, (job.priority, next(self._sequence), job))
            self._work_ready.notify()
        faults.log_event(
            "job.retry",
            id=job.id,
            digest=job.digest,
            attempts=job.attempts,
            not_before=not_before,
            error=job.error,
        )
        return True

    def _store_put_with_retry(self, job: Job, report: SynthesisReport) -> None:
        """Persist the report, riding out transient write failures in place."""
        try:
            provenance = self._provenance(job.payload) if self._provenance else {}
        except Exception as error:  # noqa: BLE001 - provenance is best-effort
            provenance = {"provenance_error": f"{type(error).__name__}: {error}"}
        last_error: Optional[OSError] = None
        for attempt in range(STORE_WRITE_ATTEMPTS):
            try:
                self._store.put(job.digest, report, provenance=provenance)
                return
            except OSError as error:
                last_error = error
                if attempt + 1 < STORE_WRITE_ATTEMPTS:
                    with self._lock:
                        self._store_write_retries.inc()
                    time.sleep(0.05 * (2 ** attempt))
        job.error = f"result store write failed: {last_error}"

    def _run_job(self, job: Job) -> None:
        faults.log_event(
            "job.started", id=job.id, digest=job.digest, attempts=job.attempts
        )
        self._trace_job_event(
            job, "job.claimed", ts=job.started_at, attempts=job.attempts
        )
        if self._journal is not None and self._store is not None:
            # Journal-recovered jobs may have been answered between
            # journaling and claiming (e.g. a pre-crash worker stored the
            # result but died before finishing the row).
            # Serving the stored answer here is what makes "no digest is
            # synthesized twice" hold across restarts.
            entry = self._store.get(job.digest)
            if entry is not None:
                job.report = entry.report
                job.cached = True
                with self._lock:
                    self._store_answers.inc()
                self._finish(job, JobState.SUCCEEDED)
                return
        lift_tracer: Optional[TracingObserver] = None
        try:
            # The job's deadline is a cooperative budget (created by the
            # worker loop, under the lock) threaded through the whole
            # pipeline (oracle, search, validator), so a timeout stops the
            # synthesis instead of abandoning the thread, and `cancel()` can
            # stop a running job.
            observer: LiftObserver = _JobObserver(job)
            tracer = obs_trace.writer()
            if tracer is not None:
                # Armed tracing: the lift's span tree hangs under the job's
                # lifetime span (trace_id = job id).
                self._trace_job_event(job, "job.running")
                lift_tracer = TracingObserver(
                    tracer,
                    task=self._task_label(job),
                    trace_id=job.id,
                    parent_id=job_span_id(job.id),
                )
                observer = CompositeObserver(observer, lift_tracer)
            report = self._executor(job.payload, budget=job.budget, observer=observer)
        except BaseException as error:  # noqa: BLE001 - never kill a worker
            job.error = f"{type(error).__name__}: {error}"
            if lift_tracer is not None:
                lift_tracer.close(success=False, error=job.error)
            if _is_transient(error) and self._maybe_retry(job):
                return
            self._finish(job, JobState.FAILED)
            return
        job.report = report
        self._count_seed_outcome(report)
        if lift_tracer is not None:
            lift_tracer.close(success=report.success, timed_out=report.timed_out)
        # Commit point: decided under the lock so it serializes with
        # cancel() — either the cancellation landed first (the run was
        # truncated; finish CANCELLED, never store) or the job is committed
        # and cancel() refuses from now on.
        with self._lock:
            cancelled = job.budget is not None and job.budget.cancelled
            job._committed = not cancelled
            # Deadline truncations are first-class service telemetry: a job
            # whose report was cut short by its wall-clock budget (but not
            # explicitly cancelled) counts once, surfaced via GET /stats.
            if not cancelled and job.budget is not None and report.timed_out:
                self._budget_truncated.inc()
        if cancelled:
            # An explicitly cancelled run stops at an arbitrary point, so its
            # truncated report is not the deterministic answer for this
            # digest — surface it on the job but never store it.
            self._finish(job, JobState.CANCELLED)
            return
        # Deadline-timed-out reports ARE stored: the job's budget equals the
        # request timeout, which LiftingService bakes into the digest before
        # scheduling, so a budget-driven timeout is the deterministic answer
        # for this digest — exactly as config-timeout reports were before
        # cooperative budgets existed (warm replays must reproduce them).
        if self._store is not None:
            self._store_put_with_retry(job, report)
        self._finish(job, JobState.SUCCEEDED)

    def _finish(self, job: Job, state: JobState) -> None:
        with self._lock:
            job.state = state
            # The stage field reports *live* progress; a terminal state is
            # the authority once the job is done.
            job.stage = ""
            job.finished_at = time.time()
            self._active.pop(job.digest, None)
            self._finished_counts[state].inc()
            duration = max(0.0, job.finished_at - (job.started_at or job.created_at))
            self._job_duration.observe(duration)
            if job.started_at is not None:
                self._job_queue_wait.observe(
                    max(0.0, job.started_at - job.created_at)
                )
            self._recent_finishes.append((job.finished_at, duration))
            # Bound memory: remember only the newest terminal jobs for
            # status/result lookups; completed results stay in the store,
            # and an id → digest crumb distinguishes "evicted" from
            # "never existed".
            self._finished_order.append(job.id)
            while len(self._finished_order) > self._retention:
                evicted_id = self._finished_order.popleft()
                evicted_job = self._jobs.pop(evicted_id, None)
                if evicted_job is not None:
                    self._evicted_digests[evicted_id] = evicted_job.digest
            while len(self._evicted_digests) > EVICTED_DIGEST_RETENTION:
                self._evicted_digests.popitem(last=False)
        if self._journal is not None:
            try:
                self._journal.finish(
                    job.id, state.value, error=job.error, cached=job.cached
                )
            except Exception:  # noqa: BLE001 - a sick journal must not wedge jobs
                pass
        faults.log_event(
            "job.finished",
            id=job.id,
            digest=job.digest,
            state=state.value,
            cached=job.cached,
        )
        tracer = obs_trace.writer()
        if tracer is not None:
            self._trace_job_event(
                job, "job.done", ts=job.finished_at,
                state=state.value, cached=job.cached,
            )
            # The job's lifetime span, written now that its end is known;
            # lifecycle events referenced its deterministic id all along.
            tracer.span(
                job.id, job_span_id(job.id), None, "job",
                job.created_at, job.finished_at,
                id=job.id, digest=job.digest, state=state.value,
                cached=job.cached, attempts=job.attempts,
                task=self._task_label(job),
            )
        job._done.set()
