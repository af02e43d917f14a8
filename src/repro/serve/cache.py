"""Scoped-key TTL + LRU cache with a byte-size budget.

The serving daemon's working set — built :class:`~repro.net.topology.
Network` objects and :class:`~repro.core.engine.GroupEncoding`
instances — is expensive to build and cheap to rebuild *correctly*
(everything is derived from the snapshot's config texts, which the
registry always keeps).  That makes a lossy cache the right shape: any
entry may vanish at any time and the only cost is a rebuild.

Keys are slash-scoped strings, ``{tenant}/{snapshot}/enc/{dst}/
{options-digest}`` for encodings (one per destination prefix, at the
largest failure bound asked of it so far) and ``{tenant}/{snapshot}/net``
for built networks.  Scoping does double duty:

* **Tenancy** — every key is prefixed by the owning tenant, and the
  registry only ever composes keys for the tenant named in the
  request, so one tenant's entries are unreachable (and unevictable
  except via the shared LRU pressure) from another's requests.
* **Invalidation** — deleting or refreshing a snapshot drops the whole
  ``{tenant}/{snapshot}/`` scope in one call.

Eviction: entries expire ``ttl_seconds`` after last use (lazily, on
access or insert) and the least-recently-used entries are evicted when
the byte budget overflows.  Sizes are caller-supplied estimates (see
``GroupEncoding.cache_size``), re-measured by ``resize`` only while
the key still holds the same value.  An entry larger than the whole
budget is refused outright rather than evicting everything else.

All mutation happens under one lock — the daemon's
``ThreadingHTTPServer`` handles each request on its own thread.
Counters are mirrored both into the process metrics registry
(``serve.cache.*``, scraped at ``/metrics``) and into instance fields
(deterministic, test-friendly).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro import obs

__all__ = ["TTLLRUCache"]


class _Entry:
    __slots__ = ("value", "size", "expires_at")

    def __init__(self, value: Any, size: int, expires_at: float) -> None:
        self.value = value
        self.size = size
        self.expires_at = expires_at


class TTLLRUCache:
    """Byte-budgeted TTL + LRU mapping of scoped keys to values.

    Satisfies the duck-typed interface of
    :class:`~repro.core.engine.BatchEngine`'s ``encoding_cache``:
    ``get(key)``, ``put(key, value, size_bytes)`` and
    ``resize(key, value, size_bytes)``.
    """

    def __init__(
        self,
        max_bytes: int = 256 * 1024 * 1024,
        ttl_seconds: float = 3600.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.total_bytes = 0
        # Deterministic instance counters (the metrics registry mirrors
        # them process-wide, but tests and per-request reporting need
        # values that do not depend on which tracer is installed).
        self.hits = 0
        self.misses = 0
        self.evicted_lru = 0
        self.evicted_ttl = 0
        self.evicted_scope = 0
        self.rejected = 0

    # -- internal (lock held) -------------------------------------------

    def _metrics(self):
        return obs.metrics()

    def _drop(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key)
        self.total_bytes -= entry.size
        if reason == "lru":
            self.evicted_lru += 1
        elif reason == "ttl":
            self.evicted_ttl += 1
        else:
            self.evicted_scope += 1
        self._metrics().counter("serve.cache.evicted", reason=reason).inc()

    def _expire(self, now: float) -> None:
        # TTL is since last use, so expired entries cluster at the LRU
        # end: stop at the first live one.
        while self._entries:
            key = next(iter(self._entries))
            if self._entries[key].expires_at > now:
                break
            self._drop(key, "ttl")

    def _store(
        self, key: str, value: Any, size_bytes: int, now: float
    ) -> bool:
        size = max(0, int(size_bytes))
        # A same-key replacement is an update, not an eviction.  An
        # oversized one is refused, and must not leave a stale smaller
        # entry shadowing it under the same key.
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old.size
        if size > self.max_bytes:
            self.rejected += 1
            self._metrics().counter("serve.cache.rejected").inc()
            self._publish_gauges()
            return False
        self._entries[key] = _Entry(value, size, now + self.ttl_seconds)
        self.total_bytes += size
        while self.total_bytes > self.max_bytes:
            self._drop(next(iter(self._entries)), "lru")
        self._publish_gauges()
        return True

    def _publish_gauges(self) -> None:
        metrics = self._metrics()
        metrics.gauge("serve.cache.bytes").set(self.total_bytes)
        metrics.gauge("serve.cache.entries").set(len(self._entries))

    # -- public ----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The live entry for ``key`` (refreshing its recency and TTL),
        or None on miss/expiry."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._metrics().counter("serve.cache.miss").inc()
                return None
            self.hits += 1
            self._metrics().counter("serve.cache.hit").inc()
            entry.expires_at = now + self.ttl_seconds
            self._entries.move_to_end(key)
            return entry.value

    def put(self, key: str, value: Any, size_bytes: int) -> bool:
        """Insert (or replace) an entry; evicts LRU entries past the
        byte budget.  Returns False when the entry alone exceeds the
        whole budget and was refused."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            return self._store(key, value, size_bytes, now)

    def resize(self, key: str, value: Any, size_bytes: int) -> bool:
        """``put`` an entry again at a new size, but only while ``key``
        still holds ``value``: an entry that was replaced or evicted in
        the meantime is never put back.  Returns whether it is cached
        afterwards."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            entry = self._entries.get(key)
            if entry is None or entry.value is not value:
                return False
            return self._store(key, value, size_bytes, now)

    def evict_scope(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix`` (snapshot
        delete).  Returns the number of entries dropped."""
        with self._lock:
            doomed = [k for k in self._entries if k.startswith(prefix)]
            for key in doomed:
                self._drop(key, "scope")
            if doomed:
                self._publish_gauges()
            return len(doomed)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "ttl_seconds": self.ttl_seconds,
                "hits": self.hits,
                "misses": self.misses,
                "evicted_lru": self.evicted_lru,
                "evicted_ttl": self.evicted_ttl,
                "evicted_scope": self.evicted_scope,
                "rejected": self.rejected,
            }

    def keys(self):
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.expires_at > self._clock()
