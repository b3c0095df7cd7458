"""The on-disk similarity index kept beside the result store.

Layout under the cache root (beside ``objects/``)::

    <root>/v5/index/index.json

One JSON document holds a row per stored digest (see
:func:`repro.retrieval.features.entry_row`).  Three invariants:

* **Byte-determinism** — the file content is a pure function of the
  store's objects: rows come from one extractor, the digest map is dumped
  with sorted keys, and no timestamps or counters are embedded.  Rebuild
  the index from the same objects and you get the same bytes.
* **Incremental maintenance** — :meth:`RetrievalIndex.add` /
  :meth:`RetrievalIndex.discard` keep the index in lock-step with store
  writes and evictions; because both go through ``entry_row``, an
  incrementally-maintained index equals a from-scratch rebuild.
* **Version safety** — a schema mismatch (or a corrupt file) reads as
  "no index"; callers rebuild deterministically from the objects.

Writes are atomic (temp file + ``os.replace``), mirroring the store.  An
absent index file is the *disarmed* state: the store skips maintenance
and the retriever reports no neighbors, so a cold cache pays one
``is_file`` check and nothing else.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from ..service.digest import STORE_SCHEMA_VERSION
from .features import entry_row

#: Version of the row schema; bumping it invalidates (and forces a
#: deterministic rebuild of) every existing index.
INDEX_SCHEMA_VERSION = 1

#: Serialises read-modify-write cycles across every in-process index
#: handle (the store and the retriever may hold separate instances).
_INDEX_LOCK = threading.Lock()


class RetrievalIndex:
    """The similarity index of one result store."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._dir = self._root / f"v{STORE_SCHEMA_VERSION}" / "index"
        self._path = self._dir / "index.json"

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        """True when the index is armed (the file is present)."""
        return self._path.is_file()

    # ------------------------------------------------------------------ #
    # Read / write
    # ------------------------------------------------------------------ #
    def read(self) -> Optional[Dict[str, Dict[str, object]]]:
        """The digest→row map, or None (absent, corrupt, or wrong version)."""
        try:
            data = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("index_schema") != INDEX_SCHEMA_VERSION
            or data.get("store_schema") != STORE_SCHEMA_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            return None
        return data["entries"]

    def write(self, rows: Dict[str, Dict[str, object]]) -> Path:
        """Atomically persist *rows*; the canonical (deterministic) dump."""
        self._dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "index_schema": INDEX_SCHEMA_VERSION,
                "store_schema": STORE_SCHEMA_VERSION,
                "entries": rows,
            },
            indent=2,
            sort_keys=True,
        )
        handle, temp_name = tempfile.mkstemp(
            dir=str(self._dir), prefix=".index-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_name, self._path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return self._path

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def rebuild(self, store) -> Dict[str, Dict[str, object]]:
        """Re-extract every row from the store's objects and persist them.

        Deterministic: iterating the store's (sorted) digests through the
        shared row extractor and dumping with sorted keys yields identical
        bytes for identical objects, whatever order they were written in.
        """
        with _INDEX_LOCK:
            rows: Dict[str, Dict[str, object]] = {}
            for digest in store.digests():
                entry = store.peek(digest)
                if entry is not None:
                    rows[digest] = entry_row(entry)
            self.write(rows)
            return rows

    def add(self, store, digest: str, entry) -> None:
        """Fold one freshly-written entry into an armed index.

        A missing/mismatched index triggers a full rebuild (the new entry
        is already on disk, so the rebuild covers it).
        """
        with _INDEX_LOCK:
            rows = self.read()
            if rows is None:
                pass  # fall through to rebuild below (outside this branch)
            else:
                rows[digest] = entry_row(entry)
                self.write(rows)
                return
        self.rebuild(store)

    def discard(self, digests: Iterable[str]) -> int:
        """Drop rows for evicted digests; returns how many were removed."""
        with _INDEX_LOCK:
            rows = self.read()
            if rows is None:
                return 0
            removed = 0
            for digest in digests:
                if rows.pop(digest, None) is not None:
                    removed += 1
            if removed:
                self.write(rows)
            return removed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        rows = self.read() or {}
        return {
            "path": str(self._path),
            "armed": self.exists(),
            "entries": len(rows),
            "solved": sum(1 for row in rows.values() if row.get("solved")),
            "with_source": sum(1 for row in rows.values() if row.get("shingles")),
        }
