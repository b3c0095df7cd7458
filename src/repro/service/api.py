"""The lifting service: batch API over the store and the scheduler.

:class:`LiftingService` is the process-level object behind both the HTTP
front end (:mod:`repro.service.server`) and the ``repro serve`` / ``repro
submit`` CLI commands.  It resolves incoming :class:`LiftRequest` payloads
to :class:`LiftingTask`s, computes their content digests, and routes them
through the scheduler — which in turn answers from the content-addressed
store whenever the digest has been seen before.

Requests come in two shapes:

* **Corpus requests** name a benchmark (``{"benchmark": "mathfu.dot"}``);
  the task, input spec and reference solution come from the suite.
* **Raw-kernel requests** carry C source (``{"c_source": "..."}``) plus
  either explicit candidate expressions (served by a static oracle) or a
  reference solution for the synthetic oracle — exactly the contract of
  ``repro lift`` for ``.c`` files.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.kernel import _LRU
from ..core.result import SynthesisReport
from ..core.task import InputSpec, LiftingTask
from ..lifting import Budget, LiftObserver, Lifter, method_name_for, resolve_method
from ..lifting.executor import ExecutionConfig
from ..lifting.registry import registry_generation
from ..llm import OracleConfig, StaticOracle, SyntheticOracle
from ..suite import get_benchmark
from . import faults
from ..obs import MetricsRegistry
from ..obs import trace as obs_trace
from .digest import lift_digest
from .journal import DEFAULT_MAX_ATTEMPTS, JobJournal
from .scheduler import Job, JobScheduler
from .store import ResultStore


class ServiceError(ValueError):
    """A request that cannot be resolved into a lift (HTTP 400)."""


class ServiceOverloadedError(RuntimeError):
    """The queue is past its admission threshold (HTTP 429 + Retry-After)."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(
            f"queue depth {depth} is at the admission limit; "
            f"retry in ~{retry_after}s"
        )
        self.depth = depth
        self.retry_after = retry_after


#: Per-job wall-clock budget applied when a request does not carry one.
DEFAULT_TIMEOUT_SECONDS = 60.0

#: Request digests one service remembers (canonical payload -> digest).
MAX_MEMOIZED_DIGESTS = 4096


@dataclass(frozen=True)
class LiftRequest:
    """One lift as submitted to the service (JSON-friendly, hashable)."""

    #: Corpus benchmark name; mutually exclusive with ``c_source``.
    benchmark: Optional[str] = None
    #: Raw C kernel source for ad-hoc lifts.
    c_source: Optional[str] = None
    #: Task name for raw-kernel requests (defaults to ``"kernel"``).
    name: Optional[str] = None
    #: Function to lift inside ``c_source`` (None = single function).
    function_name: Optional[str] = None
    #: Ground-truth TACO expression (required for raw kernels unless
    #: ``candidates`` are given — the synthetic oracle needs it).
    reference: Optional[str] = None
    #: Explicit candidate expressions; non-empty selects a static oracle.
    candidates: Tuple[str, ...] = ()
    #: Input specification for raw kernels, as the ``repro lift --spec``
    #: JSON shape: {"sizes": {...}, "arrays": {...}, "scalars": {...}}.
    spec: Optional[Mapping[str, object]] = None
    #: Registry name of the lifting method (``repro.lifting.method_names()``:
    #: STAGG variants, ablations and baselines alike).  When omitted, the
    #: legacy ``search``/``grammar``/``probabilities`` triple picks the
    #: corresponding STAGG configuration.
    method: Optional[str] = None
    search: str = "topdown"
    grammar: str = "refined"
    probabilities: str = "learned"
    #: Wall-clock budget (s).  ``None`` means "use the service default"
    #: (:data:`DEFAULT_TIMEOUT_SECONDS` unless ``repro serve --timeout``
    #: overrides it); the service resolves it before digesting, so the
    #: effective budget is part of the request's content address.
    timeout: Optional[float] = None
    seed: int = 7
    oracle_seed: int = 2025
    priority: int = 0

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.c_source is None):
            raise ServiceError(
                "a lift request needs exactly one of 'benchmark' or 'c_source'"
            )

    # ------------------------------------------------------------------ #
    # JSON payloads
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for name in _REQUEST_FIELDS:
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        payload["candidates"] = list(self.candidates)
        if self.spec is not None:
            payload["spec"] = dict(self.spec)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "LiftRequest":
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise ServiceError(f"unknown request fields: {', '.join(unknown)}")
        data = dict(payload)
        if "candidates" in data:
            data["candidates"] = tuple(str(c) for c in data["candidates"])
        if "spec" in data and data["spec"] is not None:
            data["spec"] = dict(data["spec"])
        try:
            return cls(**data)
        except TypeError as error:
            raise ServiceError(f"malformed lift request: {error}") from None


_REQUEST_FIELDS = tuple(f.name for f in fields(LiftRequest))


def _spec_from_mapping(data: Mapping[str, object]) -> InputSpec:
    return InputSpec(
        sizes=dict(data.get("sizes", {})),
        arrays={name: tuple(shape) for name, shape in dict(data.get("arrays", {})).items()},
        scalars={
            name: tuple(bounds) for name, bounds in dict(data.get("scalars", {})).items()
        },
        avoid_zero=bool(data.get("avoid_zero", False)),
    )


def resolve_task(request: LiftRequest) -> LiftingTask:
    """Resolve a request to the concrete lifting task it describes.

    Raises :class:`ServiceError` for anything that can be rejected up
    front (unknown benchmark, a raw kernel the chosen oracle cannot
    serve), so invalid submissions fail at submit time with HTTP 400
    rather than asynchronously in a worker.
    """
    if request.benchmark is not None:
        try:
            benchmark = get_benchmark(request.benchmark)
        except KeyError as error:
            raise ServiceError(str(error.args[0])) from None
        task = benchmark.task()
        if request.reference:
            task = task.with_reference(request.reference)
        return task
    if not request.reference and not request.candidates:
        raise ServiceError(
            "lifting a raw kernel with the synthetic oracle requires "
            "'reference' (or provide explicit 'candidates')"
        )
    if request.spec is None:
        # Local import: cli imports service for `repro serve`, so the
        # inference helper is pulled lazily to keep import order acyclic.
        from ..cli import infer_input_spec

        spec = infer_input_spec(request.c_source, request.function_name)
    else:
        spec = _spec_from_mapping(request.spec)
    return LiftingTask(
        name=request.name or "kernel",
        c_source=request.c_source,
        spec=spec,
        function_name=request.function_name,
        reference_solution=request.reference,
        category="service",
    )


def method_name(request: LiftRequest) -> str:
    """The registry name a request selects (explicit or via the legacy triple)."""
    if request.method is not None:
        return request.method
    try:
        return method_name_for(request.search, request.grammar, request.probabilities)
    except ValueError as error:
        raise ServiceError(str(error)) from None


def build_lifter(
    request: LiftRequest, execution: Optional[ExecutionConfig] = None
) -> Lifter:
    """The lifter a request implies, resolved through the method registry.

    This is the same construction path ``repro lift --method`` and the
    evaluation runner use, so a request's store digest matches the digests
    those layers compute for the same method name and parameters — which is
    what lets one service cache serve all three.  ``execution`` picks the
    method's parallelism backend and is digest-excluded.
    """
    if request.candidates:
        oracle = StaticOracle(list(request.candidates))
    else:
        oracle = SyntheticOracle(OracleConfig(seed=request.oracle_seed))
    timeout = (
        request.timeout if request.timeout is not None else DEFAULT_TIMEOUT_SECONDS
    )
    try:
        return resolve_method(
            method_name(request),
            oracle=oracle,
            timeout_seconds=timeout,
            seed=request.seed,
            execution=execution,
        )
    except KeyError as error:
        raise ServiceError(str(error.args[0])) from None


def execute_request(
    request: LiftRequest,
    budget: Optional[Budget] = None,
    observer: Optional[LiftObserver] = None,
    retrieval_dir: Optional[str] = None,
    execution: Optional[ExecutionConfig] = None,
) -> SynthesisReport:
    """Run one request to completion on the calling worker thread.

    The scheduler passes the job's :class:`Budget` (and a stage observer),
    so a per-job deadline or a cancellation stops the synthesis
    cooperatively.

    Two knobs are bound via :func:`functools.partial` by the service, and
    both are digest-excluded, so every binding answers the same content
    address.  ``retrieval_dir`` (a service running with
    ``seed_from_store``) arms similarity seeding: the lifter first tries
    neighbors from the store's retrieval index as tier-0 candidates.
    ``execution`` (the service's ``--executor``) is the method's
    parallelism backend, exactly as on ``repro lift``: with ``processes`` a
    portfolio races its members across cores under the job's budget.

    Two named fault points fire here (no-ops unless a fault plan is armed;
    see :mod:`repro.service.faults`): ``execute`` at the top — pacing and
    worker-death injection for the crash e2e — and ``oracle`` just before
    the pipeline runs, standing in for a transient oracle-connection flake
    (an ``OSError`` the scheduler retries with backoff).
    """
    faults.fail_point("execute")
    task = resolve_task(request)  # re-raises ServiceError for bad requests
    faults.fail_point("oracle")
    lifter = build_lifter(request, execution=execution)
    if retrieval_dir is not None:
        from ..retrieval.seeding import seeded_lifter

        lifter = seeded_lifter(lifter, retrieval_dir)
    return lifter.lift(task, budget=budget, observer=observer)


def probe_request(cache_dir: Union[str, Path], request: LiftRequest) -> int:
    """How many similar solved kernels the index can seed *request* with.

    The scheduler calls this (partially applied) on every store miss;
    with no readable index behind ``cache_dir`` it is one file-existence
    check.  Resolution errors count as zero — the probe is observational
    and must never fail a submission.
    """
    from ..retrieval.retriever import Retriever

    retriever = Retriever.open(cache_dir)
    if retriever is None:
        return 0
    return retriever.probe(resolve_task(request))


def request_digest(request: LiftRequest) -> str:
    """The store digest of a request: task identity x lifter identity."""
    task = resolve_task(request)
    return lift_digest(task, build_lifter(request).descriptor())


def _encode_request(request: LiftRequest) -> str:
    """Journal payload codec: a request as canonical JSON."""
    return json.dumps(request.to_payload(), sort_keys=True)


def _decode_request(raw: str) -> LiftRequest:
    return LiftRequest.from_payload(json.loads(raw))


class LiftingService:
    """Submit/status/result/batch over a store-backed scheduler.

    With ``journal`` set, the scheduler runs on the crash-safe SQLite job
    journal: submissions survive restarts and orphaned jobs are recovered
    with bounded retries.  A journal serves one live service at a time, on
    one host and a local filesystem; constructing a second service on it
    raises :class:`~repro.service.journal.JournalBusy`.

    ``max_queue_depth`` enables admission control: past the threshold,
    fresh work is refused with :class:`ServiceOverloadedError` (HTTP 429 +
    Retry-After derived from the measured drain rate) — dedup attaches and
    store answers are still served, since they add no queue load.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        workers: int = 2,
        default_timeout: float = DEFAULT_TIMEOUT_SECONDS,
        journal: Optional[Union[str, Path, JobJournal]] = None,
        max_queue_depth: Optional[int] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        store_max_entries: Optional[int] = None,
        store_max_bytes: Optional[int] = None,
        seed_from_store: bool = False,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        if execution is not None:
            # One meaning of --executor: N scheduler threads, plus the
            # backend every method runs its parallel work on.
            workers = execution.resolved_workers()
        if seed_from_store and cache_dir is None:
            raise ValueError("seed_from_store requires cache_dir")
        self._store = (
            ResultStore(
                cache_dir, max_entries=store_max_entries, max_bytes=store_max_bytes
            )
            if cache_dir is not None
            else None
        )
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self._journal = journal
        self._default_timeout = default_timeout
        self._max_queue_depth = (
            max(0, int(max_queue_depth)) if max_queue_depth is not None else None
        )
        self._started_at = time.time()
        self._digests = _LRU(MAX_MEMOIZED_DIGESTS)
        # Imported here: `repro.bench` stays off the lifting stack's imports.
        from ..bench.runner import current_git_sha

        self._git_sha = current_git_sha()
        # One registry for the whole service: scheduler counters, request
        # admission counters and store gauges all live here, so GET /stats
        # and GET /metrics can never drift apart.
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter(
            "repro_requests_submitted_total", "Requests accepted by submit()"
        )
        self._rejected = self.metrics.counter(
            "repro_requests_rejected_total",
            "Requests refused by admission control (HTTP 429)",
        )
        # Rejections are ops telemetry worth keeping across restarts: the
        # journal's meta table persists the lifetime count, which seeds the
        # counter so the exposed total stays lifetime-accurate.
        if self._journal is not None:
            self._rejected.inc(self._journal.meta_get("rejected_total"))
        self.metrics.gauge(
            "repro_service_uptime_seconds",
            "Seconds since this service process started",
            fn=lambda: time.time() - self._started_at,
        )
        if self._store is not None:
            store = self._store
            for key, help_text in (
                ("hits", "Result-store lookups answered"),
                ("misses", "Result-store lookups missed"),
                ("writes", "Result-store entries written"),
                ("evictions", "Result-store entries evicted (LRU)"),
                ("entries", "Result-store entries currently present"),
            ):
                self.metrics.gauge(
                    f"repro_store_{key}", help_text,
                    fn=lambda key=key: store.stats().get(key, 0),
                )
        # Partial application keeps the executor the module-level function
        # (looked up here, so a wrapped ``execute_request`` is honoured).
        # The probe feeds the scheduler's repro_retrieval_* counters on
        # misses.
        executor = functools.partial(
            execute_request,
            execution=execution,
            retrieval_dir=str(cache_dir) if seed_from_store else None,
        )
        retrieval_probe = (
            functools.partial(probe_request, cache_dir) if seed_from_store else None
        )
        # Provenance records the request payload only; the lifter identity
        # is already pinned by the digest the entry is stored under.
        try:
            self._scheduler = JobScheduler(
                executor,
                store=self._store,
                workers=workers,
                provenance=lambda request: {"request": request.to_payload()},
                journal=self._journal,
                max_attempts=max_attempts,
                payload_codec=(_encode_request, _decode_request),
                metrics=self.metrics,
                retrieval_probe=retrieval_probe,
            )
        except BaseException:
            # E.g. JournalBusy: no service will ever close this journal.
            if self._journal is not None:
                self._journal.close()
            raise

    @property
    def store(self) -> Optional[ResultStore]:
        return self._store

    @property
    def scheduler(self) -> JobScheduler:
        return self._scheduler

    @property
    def journal(self) -> Optional[JobJournal]:
        return self._journal

    # ------------------------------------------------------------------ #
    # API surface (mirrored 1:1 by the HTTP endpoints)
    # ------------------------------------------------------------------ #
    def submit(self, request: LiftRequest) -> Job:
        """Validate, digest, admit and schedule one request.

        A request without a timeout gets the service default *before*
        digesting, so the effective budget is part of its content address
        and the scheduler and synthesizer agree on it.  Past the admission
        threshold, work that would lengthen the queue raises
        :class:`ServiceOverloadedError`; submissions that attach to an
        in-flight job or replay a stored digest are always admitted.
        """
        if request.timeout is None:
            request = replace(request, timeout=self._default_timeout)
        try:
            encoded: Optional[str] = _encode_request(request)
        except (TypeError, ValueError):  # the journal keeps a marker instead
            encoded = None
        # Equal payloads under an unchanged method registry have equal
        # digests, so only a new payload resolves its task and lifter.  A
        # ServiceError escapes before anything is remembered.
        if encoded is None:
            digest = request_digest(request)
        else:
            digest = self._digests.get(
                (registry_generation(), encoded), lambda: request_digest(request)
            )
        if self._max_queue_depth is not None:
            depth = self._scheduler.queue_depth()
            if depth >= self._max_queue_depth and not self._would_attach(digest):
                retry_after = self._scheduler.estimate_retry_after(depth)
                self._rejected.inc()
                if self._journal is not None:
                    self._journal.meta_set(
                        "rejected_total", int(self._rejected.value)
                    )
                faults.log_event(
                    "job.rejected", digest=digest, depth=depth,
                    retry_after=retry_after,
                )
                raise ServiceOverloadedError(depth, retry_after)
        self._submitted.inc()
        return self._scheduler.submit(
            request, digest, priority=request.priority, timeout=request.timeout,
            encoded=encoded,
        )

    def _would_attach(self, digest: str) -> bool:
        """Whether a submission adds no queue load (dedup or store hit)."""
        if self._scheduler.is_active(digest):
            return True
        return self._store is not None and digest in self._store

    def submit_batch(self, requests: Sequence[LiftRequest]) -> List[Job]:
        return [self.submit(request) for request in requests]

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        """Job status: live scheduler view, journal row, or eviction crumb.

        The fallback chain is what makes lookups survive both restarts
        (journal rows persist) and retention-ring eviction (the crumb
        distinguishes "evicted" from "never existed", and says whether the
        stored result is still available).
        """
        job = self._scheduler.job(job_id)
        if job is not None:
            return job.status_dict()
        row = self._scheduler.journal_row(job_id)
        if row is not None:
            return row.status_dict()
        digest = self._scheduler.evicted_digest(job_id)
        if digest is not None:
            status: Dict[str, object] = {
                "id": job_id,
                "digest": digest,
                "state": "evicted",
                "evicted": True,
                "stored": self._store is not None and digest in self._store,
            }
            return status
        return None

    def result(
        self, job_id: str, wait: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """The finished job's report (or None if unknown / still running).

        Jobs that fell out of the in-memory ring are served from the
        journal + content-addressed store: a terminal journal row (or an
        eviction crumb) whose digest is stored yields the stored report.
        """
        job = self._scheduler.job(job_id)
        if job is not None:
            if wait:
                job.wait(wait)
            if not job.state.terminal:
                return None
            result = job.status_dict()
            result["report"] = (
                job.report.to_json_dict() if job.report is not None else None
            )
            return result
        row = self._scheduler.journal_row(job_id)
        if row is not None:
            if not row.terminal:
                return None
            result = row.status_dict()
            result["report"] = None
            if self._store is not None:
                entry = self._store.get(row.digest)
                if entry is not None:
                    result["report"] = entry.report.to_json_dict()
            return result
        digest = self._scheduler.evicted_digest(job_id)
        if digest is not None and self._store is not None:
            entry = self._store.get(digest)
            if entry is not None:
                return {
                    "id": job_id,
                    "digest": digest,
                    "state": "evicted",
                    "evicted": True,
                    "cached": True,
                    "report": entry.report.to_json_dict(),
                }
        return None

    def health(self) -> Dict[str, object]:
        """``GET /healthz``: liveness, backlog gauges, and provenance."""
        from .. import __version__

        oldest = self._scheduler.oldest_queued_age()
        return {
            "ok": True,
            "queue_depth": self._scheduler.queue_depth(),
            "oldest_queued_age": oldest,
            "journal": str(self._journal.path) if self._journal else None,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "git_sha": self._git_sha,
            "version": __version__,
        }

    def stats(self) -> Dict[str, object]:
        """``GET /stats``: every counter here reads a metrics-registry
        cell, so this body and ``GET /metrics`` cannot disagree."""
        scheduler_stats = self._scheduler.stats()
        stats: Dict[str, object] = {
            "submitted": int(self._submitted.value),
            "rejected": int(self._rejected.value),
            # Flattened copies of the load-shedding gauges, so dashboards
            # (and the acceptance e2e) read them without digging.
            "queue_depth": scheduler_stats["queue_depth"],
            "oldest_queued_age": scheduler_stats["oldest_queued_age"],
            "recovered": scheduler_stats["recovered"],
        }
        stats["scheduler"] = scheduler_stats
        if self._store is not None:
            stats["store"] = self._store.stats()
        return stats

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition format)."""
        return self.metrics.render()

    def close(self, drain: Optional[bool] = None) -> None:
        """Shut down: stop workers, flush counters, close the journal.

        With a journal, queued jobs are left journaled for the next start
        (``drain=False``) unless the caller insists on draining; without
        one, the historical drain-everything behaviour is kept.
        """
        self._scheduler.shutdown(drain=drain)
        tracer = obs_trace.writer()
        if tracer is not None:
            # Final flush on drain (SIGTERM path included): a scalar
            # snapshot of every metric, so a scraped-then-killed service
            # still leaves its terminal counters in the trace log.
            tracer.event(
                "service", "service", "service.metrics", **self.metrics.snapshot()
            )
        if self._journal is not None:
            self._journal.meta_set("rejected_total", int(self._rejected.value))
            self._journal.close()

    def __enter__(self) -> "LiftingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
