"""Tenant-namespaced snapshot registry.

A *snapshot* is an immutable config set owned by a tenant: the raw
texts plus derived identity (``snapshot_id`` = the first 12 hex chars
of :func:`repro.obs.ledger.network_hash` over the parsed network, so
identical configs always get the same id).  The registry is the
daemon's source of truth; everything derived from a snapshot — the
built :class:`~repro.net.topology.Network`, per-group
:class:`~repro.core.engine.GroupEncoding` state — lives in the shared
:class:`~repro.serve.cache.TTLLRUCache` under the snapshot's
``{tenant}/{snapshot_id}/`` scope and can be dropped at any time.

Each snapshot also owns a persistent :class:`~repro.diff.VerdictCache`
(PR 7's differential-verification cache).  Because verdict keys encode
the query's dependency-slice hash, the cache survives ``refresh``
unchanged: after swapping in edited configs, the next verify replays
every verdict whose slice the edit did not touch and re-solves only the
rest — refresh *is* continuous differential verification.

With a ``state_dir`` the registry persists each snapshot as
``tenants/{tenant}/{name}/{meta.json,configs/,verdicts.json}`` and
reloads them on startup, so a restarted daemon serves the same
snapshots (with warm verdict caches, cold encodings).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core import BatchEngine
from repro.core.encoder import EncoderOptions
from repro.diff import VerdictCache
from repro.diff.differ import changed_devices
from repro.net.loader import network_from_texts
from repro.net.topology import Network
from repro.obs.ledger import network_hash
from repro.obs.log import event as log_event
from repro.serve.cache import TTLLRUCache
from repro.serve.schemas import ApiError, check_routers, validate_label

__all__ = ["Snapshot", "SnapshotRegistry"]

_META_VERSION = 1


def _safe_filename(name: str) -> str:
    if (
        not name
        or name.startswith(".")
        or "/" in name
        or "\\" in name
        or len(name) > 128
    ):
        raise ApiError(400, f"unsafe config file name {name!r}")
    return name


def _network_size(texts: Dict[str, str]) -> int:
    # Parsed models are a small constant factor over the raw text.
    return 64 * 1024 + 8 * sum(len(t) for t in texts.values())


@dataclass
class Snapshot:
    """One ingested config set and its bookkeeping."""

    tenant: str
    name: str
    snapshot_id: str
    config_hash: str
    files: int
    routers: int
    created: float
    refreshed: float
    refreshes: int = 0
    queries_run: int = 0
    replayed: int = 0
    texts: Dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def scope(self) -> str:
        """The cache-key prefix owning every derived entry."""
        return f"{self.tenant}/{self.snapshot_id}/"

    def to_json(self) -> Dict:
        return {
            "tenant": self.tenant,
            "name": self.name,
            "snapshot_id": self.snapshot_id,
            "config_hash": self.config_hash,
            "files": self.files,
            "routers": self.routers,
            "created": self.created,
            "refreshed": self.refreshed,
            "refreshes": self.refreshes,
            "queries_run": self.queries_run,
            "replayed": self.replayed,
        }


class SnapshotRegistry:
    """Snapshots by ``(tenant, name)``, with derived-state caching.

    Thread-safe: registry mutations happen under one lock; verification
    itself runs outside it (concurrent verifies against one snapshot
    are serialized per group by ``GroupEncoding.lock``, not here).
    """

    def __init__(
        self,
        cache: Optional[TTLLRUCache] = None,
        options: Optional[EncoderOptions] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.cache = cache if cache is not None else TTLLRUCache()
        self.options = options or EncoderOptions()
        self.state_dir = Path(state_dir) if state_dir else None
        self._lock = threading.Lock()
        # Serializes on-disk writes (meta, configs, verdicts, delete):
        # concurrent verify requests against one snapshot otherwise
        # race on the same files.  Never acquired while holding
        # ``_lock`` (``_persist`` nests ``_lock`` *inside* it).
        self._io_lock = threading.Lock()
        self._snapshots: Dict[Tuple[str, str], Snapshot] = {}
        self._verdicts: Dict[Tuple[str, str], VerdictCache] = {}
        if self.state_dir is not None:
            self._restore()

    # -- persistence -----------------------------------------------------

    def _snapshot_dir(self, tenant: str, name: str) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / "tenants" / tenant / name

    def _persist(self, snap: Snapshot) -> None:
        base = self._snapshot_dir(snap.tenant, snap.name)
        if base is None:
            return
        with self._io_lock:
            with self._lock:
                if self._snapshots.get((snap.tenant, snap.name)) is not snap:
                    return  # deleted concurrently; do not resurrect on disk
                meta = dict(snap.to_json(), version=_META_VERSION)
                texts = snap.texts
            configs = base / "configs"
            configs.mkdir(parents=True, exist_ok=True)
            for stale in configs.iterdir():
                if stale.name not in texts:
                    stale.unlink()
            for filename, text in texts.items():
                (configs / filename).write_text(text)
            fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(meta, handle, indent=1, sort_keys=True)
                os.replace(tmp, base / "meta.json")
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _restore(self) -> None:
        root = self.state_dir / "tenants"
        if not root.is_dir():
            return
        for meta_path in sorted(root.glob("*/*/meta.json")):
            base = meta_path.parent
            reason = self._restore_one(base)
            if reason is not None:
                log_event(
                    "serve.snapshot.restore_skipped",
                    tenant=base.parent.name,
                    snapshot=base.name,
                    reason=reason,
                )

    def _restore_one(self, base: Path) -> Optional[str]:
        """Reload the snapshot persisted under ``base``; returns why it
        was skipped, or None once restored.

        The configs on disk are the truth, not ``meta.json``: a crash
        between ``_persist`` writing the configs and replacing
        ``meta.json`` leaves the old revision's identity beside new (or
        torn) configs.  Trusting it would cache this revision's
        encodings under another revision's content address, so the
        hash is recomputed and a mismatch skips the snapshot.
        """
        try:
            meta = json.loads((base / "meta.json").read_text())
        except (OSError, json.JSONDecodeError):
            return "meta.json unreadable"
        if not isinstance(meta, dict) or meta.get("version") != _META_VERSION:
            return "meta.json has an unknown format"
        try:
            texts = {
                entry.name: entry.read_text()
                for entry in sorted((base / "configs").glob("*"))
                if entry.is_file()
            }
        except (OSError, UnicodeDecodeError):
            return "configs unreadable"
        if not texts:
            return "no configs"
        try:
            network = network_from_texts(texts)
        except ValueError as exc:
            return f"configs do not parse: {exc}"
        config_hash = network_hash(network)
        if config_hash != meta.get("config_hash"):
            return "configs do not hash to meta.json's config_hash"
        snap = Snapshot(
            tenant=base.parent.name,
            name=base.name,
            snapshot_id=config_hash[:12],
            config_hash=config_hash,
            files=len(texts),
            routers=len(network.devices),
            created=meta.get("created", 0.0),
            refreshed=meta.get("refreshed", 0.0),
            refreshes=meta.get("refreshes", 0),
            queries_run=meta.get("queries_run", 0),
            replayed=meta.get("replayed", 0),
            texts=texts,
        )
        key = (snap.tenant, snap.name)
        self._snapshots[key] = snap
        self._verdicts[key] = VerdictCache.load(str(base / "verdicts.json"))
        self.cache.put(snap.scope + "net", network, _network_size(texts))
        log_event(
            "serve.snapshot.restored",
            tenant=snap.tenant,
            snapshot=snap.name,
            snapshot_id=snap.snapshot_id,
        )
        return None

    def _save_verdicts(self, snap: Snapshot) -> None:
        base = self._snapshot_dir(snap.tenant, snap.name)
        if base is None:
            return
        with self._io_lock:
            with self._lock:
                if self._snapshots.get((snap.tenant, snap.name)) is not snap:
                    return  # deleted concurrently
                vc = self._verdicts.get((snap.tenant, snap.name))
            if vc is None or not vc.dirty:
                return
            vc.save(str(base / "verdicts.json"))

    # -- lifecycle -------------------------------------------------------

    def _build(self, texts: Dict[str, str]) -> Network:
        try:
            return network_from_texts(texts)
        except ValueError as exc:
            raise ApiError(400, f"config parse failed: {exc}") from exc

    def ingest(
        self,
        tenant: str,
        texts: Dict[str, str],
        name: Optional[str] = None,
    ) -> Snapshot:
        """Create a snapshot from config texts; 409 on a name clash."""
        validate_label("tenant", tenant)
        texts = {_safe_filename(k): v for k, v in texts.items()}
        network = self._build(texts)
        config_hash = network_hash(network)
        sid = config_hash[:12]
        now = time.time()
        snap = Snapshot(
            tenant=tenant,
            name=name or sid,
            snapshot_id=sid,
            config_hash=config_hash,
            files=len(texts),
            routers=len(network.devices),
            created=now,
            refreshed=now,
            texts=texts,
        )
        key = (tenant, snap.name)
        with self._lock:
            if key in self._snapshots:
                raise ApiError(
                    409,
                    f"snapshot {snap.name!r} already exists for "
                    f"tenant {tenant!r} (use refresh or delete)",
                )
            self._snapshots[key] = snap
            self._verdicts[key] = VerdictCache()
        self.cache.put(snap.scope + "net", network, _network_size(texts))
        self._persist(snap)
        obs.metrics().counter("serve.snapshots.ingested").inc()
        log_event(
            "serve.snapshot.ingested",
            tenant=tenant,
            snapshot=snap.name,
            snapshot_id=sid,
            routers=snap.routers,
        )
        return snap

    def refresh(
        self,
        snap: Snapshot,
        texts: Dict[str, str],
    ) -> Tuple[Snapshot, Dict]:
        """Swap a snapshot's configs in place, keeping its verdict
        cache so the next verify is differential.  Returns the updated
        snapshot plus a device-level change summary.

        The old revision's cached network and encoding stay: scopes are
        content-addressed, so a refresh back to that revision reuses
        them exactly, and LRU, TTL and the byte budget reclaim them
        otherwise."""
        texts = {_safe_filename(k): v for k, v in texts.items()}
        network = self._build(texts)
        with self._lock:
            old_scope, old_texts = snap.scope, snap.texts
        old_network = self._network_at(old_scope, old_texts)
        changed, added, removed = changed_devices(old_network, network)
        with self._lock:
            snap.config_hash = network_hash(network)
            snap.snapshot_id = snap.config_hash[:12]
            snap.texts = texts
            snap.files = len(texts)
            snap.routers = len(network.devices)
            snap.refreshed = time.time()
            snap.refreshes += 1
        # Back to a revision still cached: keep its network, which its
        # encoding and analyses were built on.
        if self.cache.get(snap.scope + "net") is None:
            self.cache.put(snap.scope + "net", network, _network_size(texts))
        self._persist(snap)
        obs.metrics().counter("serve.snapshots.refreshed").inc()
        log_event(
            "serve.snapshot.refreshed",
            tenant=snap.tenant,
            snapshot=snap.name,
            snapshot_id=snap.snapshot_id,
            changed=len(changed),
            added=len(added),
            removed=len(removed),
        )
        return snap, {
            "changed_devices": changed,
            "added": added,
            "removed": removed,
        }

    def delete(self, snap: Snapshot) -> None:
        key = (snap.tenant, snap.name)
        with self._lock:
            self._snapshots.pop(key, None)
            self._verdicts.pop(key, None)
        self.cache.evict_scope(snap.scope)
        base = self._snapshot_dir(snap.tenant, snap.name)
        if base is not None:
            with self._io_lock:
                if base.is_dir():
                    shutil.rmtree(base)
        log_event(
            "serve.snapshot.deleted",
            tenant=snap.tenant,
            snapshot=snap.name,
            snapshot_id=snap.snapshot_id,
        )

    def resolve(self, tenant: str, ref: str) -> Snapshot:
        """A tenant's snapshot by name or by snapshot id."""
        validate_label("tenant", tenant)
        with self._lock:
            snap = self._snapshots.get((tenant, ref))
            if snap is None:
                for candidate in self._snapshots.values():
                    if (
                        candidate.tenant == tenant
                        and candidate.snapshot_id == ref
                    ):
                        snap = candidate
                        break
        if snap is None:
            raise ApiError(404, f"no snapshot {ref!r} for tenant {tenant!r}")
        return snap

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def list(self, tenant: str) -> List[Snapshot]:
        validate_label("tenant", tenant)
        with self._lock:
            return sorted(
                (s for (t, _), s in self._snapshots.items() if t == tenant),
                key=lambda s: s.name,
            )

    # -- verification ----------------------------------------------------

    def _network_at(self, scope: str, texts: Dict[str, str]) -> Network:
        """The built network for one captured (scope, texts) revision,
        from cache when warm.  Scope and texts must come from the same
        atomic read of the snapshot: the scope is content-addressed
        (``snapshot_id`` hashes the configs), so a network built from
        one revision's texts must only ever be cached under that same
        revision's scope."""
        key = scope + "net"
        network = self.cache.get(key)
        if network is None:
            network = self._build(texts)
            self.cache.put(key, network, _network_size(texts))
        return network

    def network(self, snap: Snapshot) -> Network:
        """The snapshot's built network, from cache when warm."""
        with self._lock:
            scope, texts = snap.scope, snap.texts
        return self._network_at(scope, texts)

    def verify(self, snap: Snapshot, queries) -> Tuple[List, Dict]:
        """Run a batch against a snapshot through every cache layer:
        :meth:`BatchEngine.run` with the snapshot's verdict cache and
        the shared encoding cache.  A query naming a router or an
        external peer the snapshot lacks is a 400
        (:func:`check_routers`).

        Returns ``(results, stats)`` where stats reports the request's
        own verdict replays and encoding-cache hits/misses (from
        :attr:`BatchEngine.last_encoding_stats`, so concurrent requests
        do not bleed into each other's numbers).
        """
        # Capture one consistent revision under the registry lock: a
        # concurrent refresh() swaps snapshot_id and texts together,
        # and encodings built from this network must never be cached
        # under a different revision's scope (stale-verdict poisoning).
        with self._lock:
            scope, texts = snap.scope, snap.texts
            verdict_cache = self._verdicts.get((snap.tenant, snap.name))
        network = self._network_at(scope, texts)
        check_routers(queries, network)
        engine = BatchEngine(
            network,
            options=self.options,
            verdict_cache=verdict_cache,
            encoding_cache=self.cache,
            encoding_scope=scope,
        )
        results = engine.run(queries)
        stats = dict(engine.last_encoding_stats)
        replayed = sum(1 for r in results if r.cached)
        stats["verdicts_replayed"] = replayed
        with self._lock:
            snap.queries_run += len(results)
            snap.replayed += replayed
        self._save_verdicts(snap)
        self._persist(snap)
        return results, stats
