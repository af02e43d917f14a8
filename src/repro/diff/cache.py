"""Persistent verdict cache keyed by (query, slice-hash, options).

Keys come from :func:`repro.analysis.deps.cache_key`; a key already
encodes the query identity, the SHA-256 of the query's dependency
slice, and the semantic encoder-option fingerprint, so a lookup hit
means the stored verdict is provably identical to a fresh solve.
UNKNOWN verdicts (conflict-budget exhaustion) are never stored — they
are budget-dependent, not config-dependent.

The on-disk format is a single JSON object; unknown versions are
ignored (treated as empty) rather than rejected, so format evolutions
degrade to a cold cache instead of an error.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from typing import Dict, Optional

__all__ = ["VerdictCache"]

_FORMAT_VERSION = 1


class VerdictCache:
    """A mapping of cache keys to verdict records.

    Records are plain dicts with ``holds`` (bool), ``message`` (str)
    and ``method`` (``"sat"`` or ``"simulation"``, how the verdict was
    first decided; a record without it reads as ``"sat"``).
    The cache satisfies the duck-typed interface the batch
    engine expects: ``get(key)`` and ``put(key, record)``.

    Thread-safe: one cache may be shared by concurrent verify
    requests (the ``repro serve`` daemon is thread-per-request), so
    lookups, inserts, and the dump in :meth:`save` all serialize on an
    internal lock.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._data: Dict[str, dict] = {}
        self._lock = threading.Lock()
        self.dirty = False

    @classmethod
    def load(cls, path: str) -> "VerdictCache":
        """Load a cache file; a missing or unreadable file is an empty
        cache (cold start), never an error."""
        cache = cls(path)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return cache
        if (
            isinstance(payload, dict)
            and payload.get("version") == _FORMAT_VERSION
            and isinstance(payload.get("verdicts"), dict)
        ):
            for key, record in payload["verdicts"].items():
                if isinstance(record, dict) and isinstance(
                    record.get("holds"), bool
                ):
                    cache._data[key] = record
        return cache

    def save(self, path: Optional[str] = None) -> None:
        """Atomically write the cache (write-temp + rename)."""
        target = path or self.path
        if target is None:
            raise ValueError("no cache path to save to")
        # Snapshot under the lock (records are never mutated in place,
        # so a shallow copy is a consistent point-in-time view) and
        # clear ``dirty`` at snapshot time: a concurrent put lands
        # either in this dump or re-dirties for the next one.
        with self._lock:
            payload = {
                "version": _FORMAT_VERSION,
                "verdicts": dict(self._data),
            }
            self.dirty = False
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(tmp, target)
        except BaseException:
            with self._lock:
                self.dirty = True
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, record: dict) -> None:
        if record.get("holds") is None:
            return
        with self._lock:
            entry = {
                "holds": bool(record["holds"]),
                "message": record.get("message", ""),
            }
            if "method" in record:
                entry["method"] = record["method"]
            self._data[key] = entry
            self.dirty = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data
