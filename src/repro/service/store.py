"""Content-addressed result store for the lifting service.

Completed lifts are persisted as JSON, keyed by the request digest of
:mod:`repro.service.digest`.  Layout under the cache root::

    <root>/v5/objects/<digest[:2]>/<digest>.json

Each entry carries the full :class:`SynthesisReport` plus provenance
metadata — the git SHA the result was produced at, the lifter descriptor
that went into the digest, wall-clock timing and attempt counts — so a
cached answer can always be audited back to the run that produced it.
Writes are atomic (temp file + ``os.replace``) so concurrent workers and a
crashed process can never leave a half-written entry behind; readers treat
unparseable entries as misses.

The store intentionally caches *failures* as well as successes: the
evaluation harness replays whole corpus sweeps from the store, and a warm
sweep must reproduce every record — including timeouts and errors — byte
for byte.  Callers that only want successes (e.g. ``repro lift``) can ask
for them via ``successes_only``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import Dict, Iterator, List, Mapping, Optional, Union

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from . import faults
from .digest import (
    STORE_SCHEMA_VERSION,
    describe_lifter,
    describe_task,
    jsonable,
    lift_digest,
)

#: How many writes between automatic LRU eviction sweeps when the store
#: was constructed with limits.  Sweeps scan the object directory, so
#: running one per write would be quadratic in steady state.
AUTO_EVICT_EVERY = 32


@dataclass
class StoreEntry:
    """One stored lift: the report plus its provenance."""

    digest: str
    report: SynthesisReport
    provenance: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": STORE_SCHEMA_VERSION,
            "digest": self.digest,
            "report": self.report.to_json_dict(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "StoreEntry":
        return cls(
            digest=str(data["digest"]),
            report=SynthesisReport.from_json_dict(dict(data["report"])),
            provenance=dict(data.get("provenance", {})),
        )


class ResultStore:
    """A content-addressed, crash-safe JSON store of completed lifts.

    ``max_entries`` / ``max_bytes`` arm LRU eviction over the provenance
    ``created_at`` timestamps: every :data:`AUTO_EVICT_EVERY` writes (and
    on demand via :meth:`evict`) the oldest entries are dropped until the
    store fits, so a long-lived service cannot grow its cache without
    bound.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self._root = Path(root)
        self._objects = self._root / f"v{STORE_SCHEMA_VERSION}" / "objects"
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evictions = 0
        self._max_entries = max_entries
        self._max_bytes = max_bytes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        return self._root

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def writes(self) -> int:
        return self._writes

    @property
    def evictions(self) -> int:
        return self._evictions

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
                "evictions": self._evictions,
                "entries": sum(1 for _ in self.digests()),
            }

    def digests(self) -> Iterator[str]:
        """All digests currently stored (scans the object directory)."""
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def __contains__(self, digest: str) -> bool:
        return self._path_for(digest).is_file()

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def _path_for(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[StoreEntry]:
        """The stored entry for *digest*, or None (counted as hit/miss)."""
        entry = self.peek(digest)
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry

    def peek(self, digest: str) -> Optional[StoreEntry]:
        """Like :meth:`get` but uncounted — for the retrieval indexer and
        audits, whose scans must not skew the hit/miss economics."""
        path = self._path_for(digest)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("schema") == STORE_SCHEMA_VERSION:
                return StoreEntry.from_json_dict(data)
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return None

    def put(
        self,
        digest: str,
        report: SynthesisReport,
        provenance: Optional[Mapping[str, object]] = None,
    ) -> Path:
        """Persist *report* under *digest* atomically; returns the path."""
        faults.fail_point("store.put")
        path = self._path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Imported here: `repro.bench` stays off the lifting stack's imports.
        from ..bench.runner import current_git_sha

        merged: Dict[str, object] = {
            "git_sha": current_git_sha() or "unknown",
            "created_at": time.time(),
            "elapsed_seconds": report.elapsed_seconds,
            "attempts": report.attempts,
        }
        if provenance:
            merged.update(jsonable(dict(provenance)))
        entry = StoreEntry(digest=digest, report=report, provenance=merged)
        payload = json.dumps(entry.to_json_dict(), indent=2, sort_keys=True)
        handle, temp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self._writes += 1
            writes = self._writes
        self._index_add(digest, entry)
        if (
            (self._max_entries is not None or self._max_bytes is not None)
            and writes % AUTO_EVICT_EVERY == 0
        ):
            self.evict(self._max_entries, self._max_bytes)
        return path

    # ------------------------------------------------------------------ #
    # Eviction / compaction
    # ------------------------------------------------------------------ #
    def _entry_age_key(self, path: Path) -> float:
        """When the entry was created (provenance timestamp, mtime fallback)."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            created = data.get("provenance", {}).get("created_at")
            if isinstance(created, (int, float)):
                return float(created)
        except (OSError, ValueError, AttributeError):
            pass
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def evict(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[str]:
        """Drop the oldest entries until the store fits; returns their digests.

        "Oldest" is by the provenance ``created_at`` each entry already
        carries (falling back to file mtime for entries written by code
        predating provenance) — LRU in the sense that matters for a
        content-addressed cache, where a re-queried digest is re-written
        with a fresh timestamp.  Empty shard directories are compacted
        away afterwards.  Limits default to the ones the store was
        constructed with; with no limit at all this is a no-op.
        """
        max_entries = max_entries if max_entries is not None else self._max_entries
        max_bytes = max_bytes if max_bytes is not None else self._max_bytes
        if max_entries is None and max_bytes is None:
            return []
        if not self._objects.is_dir():
            return []
        entries: List[tuple] = []  # (created_at, size, path)
        for shard in self._objects.iterdir():
            if not shard.is_dir():
                continue
            for path in shard.glob("*.json"):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                entries.append((self._entry_age_key(path), size, path))
        entries.sort(key=lambda item: item[0])
        total_bytes = sum(size for _, size, _ in entries)
        count = len(entries)
        evicted: List[str] = []
        for _, size, path in entries:
            over_entries = max_entries is not None and count > max_entries
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total_bytes -= size
            evicted.append(path.stem)
        if evicted:
            self.compact()
            self._index_discard(evicted)
            with self._lock:
                self._evictions += len(evicted)
        return evicted

    # ------------------------------------------------------------------ #
    # Similarity-index maintenance (armed only when an index exists)
    # ------------------------------------------------------------------ #
    def _index(self):
        """The retrieval index beside this store, or None when disarmed.

        Index maintenance arms itself on the presence of the index file
        (created by ``repro index build``); a store without one pays a
        single ``is_file`` check per write and nothing per read.
        """
        from ..retrieval.index import RetrievalIndex

        index = RetrievalIndex(self._root)
        return index if index.exists() else None

    def _index_add(self, digest: str, entry: StoreEntry) -> None:
        try:
            index = self._index()
            if index is not None:
                index.add(self, digest, entry)
        except Exception:  # noqa: BLE001 - the index must never fail a write
            pass

    def _index_discard(self, digests: List[str]) -> None:
        try:
            index = self._index()
            if index is not None:
                index.discard(digests)
        except Exception:  # noqa: BLE001 - the index must never fail eviction
            pass

    def compact(self) -> int:
        """Remove empty shard directories; returns how many were dropped."""
        removed = 0
        if not self._objects.is_dir():
            return removed
        for shard in self._objects.iterdir():
            if not shard.is_dir():
                continue
            try:
                next(shard.iterdir())
            except StopIteration:
                try:
                    shard.rmdir()
                    removed += 1
                except OSError:
                    pass
            except OSError:
                pass
        return removed


class CachedLifter:
    """Wrap any ``lift(task) -> SynthesisReport`` method with the store.

    On a hit the stored report is returned verbatim — original timings,
    attempts and error text included — so downstream records are
    byte-identical to the run that populated the store.  On a miss the
    wrapped lifter runs and its report is persisted (successes *and*
    failures; see the module docstring).

    The wrapper is picklable (it carries only the wrapped lifter, a path
    and the policy flags; the store handle and digests are rebuilt lazily
    per process), so it can ride through the evaluation runner's process
    pool unchanged.
    """

    def __init__(
        self,
        lifter: object,
        cache_dir: Union[str, Path],
        successes_only: bool = False,
    ) -> None:
        self._lifter = lifter
        self._cache_dir = Path(cache_dir)
        self._successes_only = successes_only
        self._store: Optional[ResultStore] = None
        self._descriptor: Optional[Dict[str, object]] = None

    # Pickle support: drop the per-process lazies.
    def __getstate__(self) -> Dict[str, object]:
        return {
            "lifter": self._lifter,
            "cache_dir": self._cache_dir,
            "successes_only": self._successes_only,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(  # type: ignore[misc]
            state["lifter"], state["cache_dir"], state["successes_only"]
        )

    @property
    def store(self) -> ResultStore:
        if self._store is None:
            self._store = ResultStore(self._cache_dir)
        return self._store

    @property
    def wrapped(self) -> object:
        return self._lifter

    @property
    def config(self) -> object:
        """Expose the wrapped lifter's config (keeps digests transparent)."""
        return getattr(self._lifter, "config", None)

    def descriptor(self) -> Dict[str, object]:
        if self._descriptor is None:
            self._descriptor = describe_lifter(self._lifter)
        return self._descriptor

    def digest_for(self, task: LiftingTask) -> str:
        return lift_digest(task, self.descriptor())

    def lift(self, task: LiftingTask, *, budget=None, observer=None) -> SynthesisReport:
        digest = self.digest_for(task)
        entry = self.store.get(digest)
        if entry is not None and (entry.report.success or not self._successes_only):
            return entry.report
        # Forward the hooks only when set, so wrapping a minimal legacy
        # lifter (plain ``lift(task)``) keeps working.
        kwargs = {}
        if budget is not None:
            kwargs["budget"] = budget
        if observer is not None:
            kwargs["observer"] = observer
        report = self._lifter.lift(task, **kwargs)
        # Budgets are per-invocation and deliberately excluded from the
        # digest, so an unsuccessful report cut short by budget expiry
        # (deadline or cancellation) is not the answer for this digest — a
        # budget-free caller must not be served it.  A *successful* report
        # is complete (validation and verification ran) and is the digest's
        # answer no matter how much budget was left, so it is always stored.
        truncated = (
            budget is not None and budget.expired() and not report.success
        )
        if (report.success or not self._successes_only) and not truncated:
            # The task description rides along so the retrieval indexer
            # (and audits) can recover the C source of any stored lift
            # without a corpus lookup.
            self.store.put(
                digest,
                report,
                provenance={
                    "lifter": self.descriptor(),
                    "task": describe_task(task),
                },
            )
        return report
