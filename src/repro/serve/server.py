"""The ``repro serve`` HTTP daemon — stdlib only.

One :class:`ReproServer` (a ``ThreadingHTTPServer``) owns the shared
pieces: the :class:`~repro.serve.registry.SnapshotRegistry` (and
through it the cross-request :class:`~repro.serve.cache.TTLLRUCache`),
the process-wide :class:`~repro.obs.Tracer` whose metrics registry
backs ``GET /metrics``, and the run ledger path.  Request handling is
thread-per-request; everything the handlers touch is either immutable,
lock-protected (registry, cache, per-snapshot solvers), or thread-scoped
(run ids, span stacks).

API (all bodies JSON; tenant from the ``X-Repro-Tenant`` header,
default ``"default"``):

=======  ================================  ===============================
method   path                              action
=======  ================================  ===============================
GET      /healthz                          liveness + uptime
GET      /metrics                          Prometheus exposition
GET      /v1/snapshots                     list tenant's snapshots
POST     /v1/snapshots                     ingest configs -> snapshot id
GET      /v1/snapshots/{ref}               snapshot metadata
DELETE   /v1/snapshots/{ref}               drop snapshot + derived state
POST     /v1/snapshots/{ref}/verify        run one query
POST     /v1/snapshots/{ref}/verify-batch  run a query batch
POST     /v1/snapshots/{ref}/refresh       swap configs, keep verdicts
=======  ================================  ===============================

``{ref}`` is a snapshot name or id.  Every verify/refresh request gets
a fresh run id (returned in the response and the ``X-Repro-Run-Id``
header), its structured log records carry it, and verify requests are
appended to the run ledger under it — the existing ``repro history``
CLI reads service traffic exactly like CLI runs.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.obs.ledger import RunLedger, build_record
from repro.obs.log import event as log_event
from repro.obs.log import new_run_id, set_run_id
from repro.obs.promexport import to_prometheus
from repro.serve.registry import SnapshotRegistry
from repro.serve.schemas import (
    ApiError,
    parse_queries,
    parse_snapshot_body,
    result_to_json,
    validate_label,
)

__all__ = ["ReproServer", "make_server"]

_MAX_BODY = 64 * 1024 * 1024
_DEFAULT_TENANT = "default"


class ReproServer(ThreadingHTTPServer):
    """HTTP front end over a snapshot registry."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        registry: SnapshotRegistry,
        ledger_path: Optional[str] = None,
        local_dir_root: Optional[str] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.registry = registry
        self.ledger_path = ledger_path
        # Server-side opt-in for {"directory": ...} ingest bodies: the
        # root below which clients may point the daemon at config
        # trees.  None (the default) disables directory ingest — an
        # unrestricted form would let any client read server-local
        # files into a snapshot.
        self.local_dir_root = local_dir_root
        self.started = time.time()
        self.requests_served = 0
        self._ledger_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # The daemon owns the process tracer: engine spans and cache
        # counters from every request land in one registry, which
        # /metrics renders.  server_close restores the previous one.
        self._previous_tracer = obs.active()
        self.tracer = obs.enable()

    def server_close(self) -> None:  # pragma: no cover - exercised via CLI
        super().server_close()
        if self._previous_tracer is obs.NULL_TRACER:
            obs.disable()
        else:
            obs.enable(self._previous_tracer)

    # -- helpers used by the handler ------------------------------------

    def count_request(self) -> None:
        with self._stats_lock:
            self.requests_served += 1

    def record_run(self, record) -> None:
        """Append to the ledger.  SQLite connections are thread-bound,
        so each append opens (and closes) its own under a lock."""
        if self.ledger_path is None:
            return
        with self._ledger_lock:
            try:
                with RunLedger(self.ledger_path) as ledger:
                    ledger.append(record)
            except Exception as exc:
                log_event(
                    "serve.ledger.error",
                    str(exc),
                    level=logging.WARNING,
                )


class _Handler(BaseHTTPRequestHandler):
    server: ReproServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle on, the
    # body of every keep-alive response waits for the client's delayed
    # ACK of the headers (~40 ms).  setup() sets TCP_NODELAY for us.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        # Default handler writes to stderr; route through the
        # structured log instead so daemon output stays one format.
        log_event("serve.http", format % args, client=self.client_address[0])

    def _tenant(self) -> str:
        return validate_label(
            "tenant",
            self.headers.get("X-Repro-Tenant", _DEFAULT_TENANT),
        )

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ApiError(400, "request body required")
        if length > _MAX_BODY:
            raise ApiError(413, f"body exceeds {_MAX_BODY} bytes")
        raw = self.rfile.read(length)
        self._body_consumed = True
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"malformed JSON body: {exc}") from exc

    def _drain_body(self) -> bool:
        """Consume any unread request body so the HTTP/1.1 keep-alive
        connection stays framed: a handler that errors before reading
        the body (404 on resolve, 405 routing) would otherwise leave
        the bytes to be parsed as the *next* request.  Returns False
        when draining is impossible (oversized, bad framing) — the
        caller must then close the connection instead of reusing it."""
        if self._body_consumed:
            return True
        if self.headers.get("Transfer-Encoding"):
            return False  # chunked framing is never parsed here
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return False
        if length <= 0:
            return True
        if length > _MAX_BODY:
            return False
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 64 * 1024))
            if not chunk:
                return False
            remaining -= len(chunk)
        self._body_consumed = True
        return True

    def _reply(
        self,
        status: int,
        doc: Dict[str, Any],
        run_id: Optional[str] = None,
    ) -> None:
        payload = json.dumps(doc, sort_keys=True).encode()
        keep_alive = self._drain_body()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if run_id:
            self.send_header("X-Repro-Run-Id", run_id)
        if not keep_alive:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode()
        keep_alive = self._drain_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if not keep_alive:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> None:
        self.server.count_request()
        # Per-request state; the handler instance is reused across
        # requests on one keep-alive connection.
        self._body_consumed = False
        started = time.time()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            status = self._route(method, path)
        except ApiError as exc:
            status = exc.status
            self._reply(exc.status, {"error": exc.message})
        except Exception as exc:  # daemon must not die on one request
            status = 500
            log_event(
                "serve.error",
                f"{type(exc).__name__}: {exc}",
                level=logging.ERROR,
                path=path,
            )
            message = f"internal error: {type(exc).__name__}: {exc}"
            self._reply(500, {"error": message})
        log_event(
            "serve.request",
            method=method,
            path=path,
            status=status,
            seconds=round(time.time() - started, 6),
        )
        set_run_id(None, thread_only=True)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- routing ---------------------------------------------------------

    def _route(self, method: str, path: str) -> int:
        if path == "/healthz":
            if method != "GET":
                raise ApiError(405, "healthz is GET-only")
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                raise ApiError(405, "metrics is GET-only")
            return self._metrics()
        if path == "/v1/snapshots":
            if method == "GET":
                return self._list()
            if method == "POST":
                return self._ingest()
            raise ApiError(405, f"{method} not supported here")
        if path.startswith("/v1/snapshots/"):
            rest = path.removeprefix("/v1/snapshots/")
            parts = rest.split("/")
            if len(parts) == 1:
                if method == "GET":
                    return self._show(parts[0])
                if method == "DELETE":
                    return self._delete(parts[0])
                raise ApiError(405, f"{method} not supported here")
            if len(parts) == 2 and method == "POST":
                ref, action = parts
                if action == "verify":
                    return self._verify(ref, batch=False)
                if action == "verify-batch":
                    return self._verify(ref, batch=True)
                if action == "refresh":
                    return self._refresh(ref)
            raise ApiError(404, f"no route for {method} {path}")
        raise ApiError(404, f"no route for {method} {path}")

    # -- endpoints -------------------------------------------------------

    def _healthz(self) -> int:
        registry = self.server.registry
        uptime = round(time.time() - self.server.started, 3)
        self._reply(
            200,
            {
                "status": "ok",
                "uptime_seconds": uptime,
                "requests": self.server.requests_served,
                "cache": registry.cache.stats(),
            },
        )
        return 200

    def _metrics(self) -> int:
        self._reply_text(
            200,
            to_prometheus(obs.metrics()),
            "text/plain; version=0.0.4",
        )
        return 200

    def _list(self) -> int:
        snaps = self.server.registry.list(self._tenant())
        self._reply(200, {"snapshots": [s.to_json() for s in snaps]})
        return 200

    def _ingest(self) -> int:
        tenant = self._tenant()
        texts, name = parse_snapshot_body(
            self._read_body(),
            local_dir_root=self.server.local_dir_root,
        )
        snap = self.server.registry.ingest(tenant, texts, name=name)
        self._reply(201, {"snapshot": snap.to_json()})
        return 201

    def _show(self, ref: str) -> int:
        snap = self.server.registry.resolve(self._tenant(), ref)
        self._reply(200, {"snapshot": snap.to_json()})
        return 200

    def _delete(self, ref: str) -> int:
        registry = self.server.registry
        snap = registry.resolve(self._tenant(), ref)
        registry.delete(snap)
        self._reply(200, {"deleted": snap.snapshot_id})
        return 200

    def _refresh(self, ref: str) -> int:
        run_id = new_run_id()
        set_run_id(run_id, thread_only=True)
        registry = self.server.registry
        snap = registry.resolve(self._tenant(), ref)
        texts, _ = parse_snapshot_body(
            self._read_body(),
            local_dir_root=self.server.local_dir_root,
        )
        snap, changes = registry.refresh(snap, texts)
        self._reply(
            200,
            {
                "run_id": run_id,
                "snapshot": snap.to_json(),
                "changes": changes,
            },
            run_id=run_id,
        )
        return 200

    def _verify(self, ref: str, batch: bool) -> int:
        run_id = new_run_id()
        set_run_id(run_id, thread_only=True)
        started = time.time()
        registry = self.server.registry
        snap = registry.resolve(self._tenant(), ref)
        queries = parse_queries(self._read_body(), batch=batch)
        results, stats = registry.verify(snap, queries)
        record = build_record(
            "serve.verify" if not batch else "serve.verify-batch",
            argv=[self.path],
            run_id=run_id,
            results=results,
            started=started,
            config_hash=snap.config_hash,
            extra={
                "tenant": snap.tenant,
                "snapshot": snap.snapshot_id,
                "snapshot_name": snap.name,
                "encoding_cache": stats,
            },
        )
        self.server.record_run(record)
        doc = {
            "run_id": run_id,
            "snapshot": snap.snapshot_id,
            "stats": dict(stats, seconds=round(time.time() - started, 6)),
            "results": [result_to_json(r) for r in results],
        }
        if not batch:
            doc["result"] = doc["results"][0]
        self._reply(200, doc, run_id=run_id)
        return 200


def make_server(
    host: str,
    port: int,
    registry: SnapshotRegistry,
    ledger_path: Optional[str] = None,
    local_dir_root: Optional[str] = None,
) -> ReproServer:
    """Bind a :class:`ReproServer` (port 0 picks a free port)."""
    return ReproServer(
        (host, port),
        registry,
        ledger_path=ledger_path,
        local_dir_root=local_dir_root,
    )
