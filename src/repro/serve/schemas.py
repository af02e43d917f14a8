"""JSON API schemas: request validation and response serialization.

Kept free of any HTTP machinery so both the daemon and the CLI share
one definition of a *query spec* — the flat JSON object (``{"property":
"reachability", "sources": [...], "dest_prefix": ...}``) accepted by
``repro verify-batch --spec``, ``repro diff --spec`` and the service's
``/verify`` / ``/verify-batch`` bodies.

Validation failures raise :class:`ApiError` carrying the HTTP status
the server should answer with; the CLI maps the same errors onto
``SystemExit`` messages.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import BatchQuery, properties as P
from repro.net import load_config_texts

__all__ = [
    "ApiError",
    "PROPERTY_CHOICES",
    "parse_queries",
    "parse_snapshot_body",
    "property_from_spec",
    "result_to_json",
    "validate_label",
]

PROPERTY_CHOICES = [
    "reachability",
    "isolation",
    "blackholes",
    "loops",
    "bounded-length",
    "waypoint",
    "prefix-leak",
]

#: Tenant and snapshot names become cache-key scopes and state-dir
#: path components, so the grammar is deliberately narrow.
_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ApiError(Exception):
    """A request the API refuses, with the HTTP status to answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def validate_label(kind: str, value: Any) -> str:
    """A tenant or snapshot name: short, path- and key-safe."""
    if not isinstance(value, str) or not _LABEL_RE.match(value):
        raise ApiError(
            400,
            f"invalid {kind} {value!r}: expected 1-64 characters of "
            "[A-Za-z0-9._-], starting with a letter or digit",
        )
    return value


def property_from_spec(kind: Optional[str], spec: Dict[str, Any]):
    """Build a property from a flat spec dict (CLI flags, JSON spec
    entries, and service request bodies all share this shape)."""
    sources = spec.get("sources")
    dest_prefix = spec.get("dest_prefix")
    dest_peer = spec.get("dest_peer")
    if kind == "reachability":
        return P.Reachability(
            sources=sources or "all",
            dest_prefix_text=dest_prefix,
            dest_peer=dest_peer,
        )
    if kind == "isolation":
        return P.Isolation(
            sources=sources or [],
            dest_prefix_text=dest_prefix,
            dest_peer=dest_peer,
        )
    if kind == "blackholes":
        return P.NoBlackHoles(
            allowed=spec.get("allowed", ()),
            dest_prefix_text=dest_prefix,
        )
    if kind == "loops":
        return P.NoForwardingLoops(dest_prefix_text=dest_prefix)
    if kind == "bounded-length":
        return P.BoundedPathLength(
            sources=sources or "all",
            bound=spec.get("bound", 4),
            dest_prefix_text=dest_prefix,
            dest_peer=dest_peer,
        )
    if kind == "waypoint":
        sources = sources or []
        if len(sources) != 1:
            raise ApiError(400, "waypoint needs exactly one sources router")
        return P.Waypointing(
            source=sources[0],
            waypoints=spec.get("waypoints", []),
            dest_prefix_text=dest_prefix,
            dest_peer=dest_peer,
        )
    if kind == "prefix-leak":
        return P.NoPrefixLeak(
            max_length=spec.get("max_leak_length", 24),
            dest_prefix_text=dest_prefix,
        )
    raise ApiError(
        400,
        f"unknown property {kind!r} "
        f"(choose from {', '.join(PROPERTY_CHOICES)})",
    )


def query_from_spec(spec: Any, index: int = 0) -> BatchQuery:
    """One :class:`BatchQuery` from one spec entry."""
    if not isinstance(spec, dict):
        raise ApiError(
            400,
            f"query {index}: expected an object, "
            f"got {type(spec).__name__}",
        )
    announced = spec.get("announced_by", [])
    if not isinstance(announced, list):
        raise ApiError(400, f"query {index}: announced_by must be a list")
    try:
        prop = property_from_spec(spec.get("property"), spec)
        max_failures = spec.get("max_failures")
        if max_failures is not None and (
            not isinstance(max_failures, int) or max_failures < 0
        ):
            raise ValueError("max_failures must be a non-negative integer")
        return BatchQuery(
            prop=prop,
            max_failures=max_failures,
            assumptions=tuple(P.announces(peer) for peer in announced),
            label=spec.get("label"),
        )
    except ApiError as exc:
        raise ApiError(exc.status, f"query {index}: {exc.message}") from exc
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"query {index}: {exc}") from exc


def parse_queries(doc: Any, batch: bool) -> List[BatchQuery]:
    """Queries from a ``/verify`` (one spec object) or ``/verify-batch``
    (``{"queries": [spec, ...]}``) request body."""
    if not isinstance(doc, dict):
        raise ApiError(400, "request body must be a JSON object")
    if not batch:
        return [query_from_spec(doc)]
    entries = doc.get("queries")
    if not isinstance(entries, list) or not entries:
        raise ApiError(
            400,
            'verify-batch body needs a non-empty "queries" list',
        )
    return [query_from_spec(entry, i) for i, entry in enumerate(entries)]


def parse_snapshot_body(
    doc: Any,
    local_dir_root: Optional[str] = None,
) -> Tuple[Dict[str, str], Optional[str]]:
    """``(config texts, optional snapshot name)`` from an ingest or
    refresh body: inline ``{"configs": {filename: text}}`` or a
    server-local ``{"directory": path}``.

    Directory mode is a server-side opt-in: it reads files the *daemon*
    can see, so an unrestricted form hands any HTTP client a
    local-file-disclosure primitive (parse errors and verify output
    echo config contents).  ``local_dir_root`` — ``repro serve
    --allow-local-dirs ROOT`` — enables it and confines every request
    to paths under ROOT after symlink resolution; without it the mode
    answers 403."""
    if not isinstance(doc, dict):
        raise ApiError(400, "request body must be a JSON object")
    name = doc.get("name")
    if name is not None:
        name = validate_label("snapshot name", name)
    configs = doc.get("configs")
    directory = doc.get("directory")
    if (configs is None) == (directory is None):
        raise ApiError(
            400,
            'ingest body needs exactly one of "configs" '
            '(inline texts) or "directory" (server-local '
            "path)",
        )
    if configs is not None:
        if (
            not isinstance(configs, dict)
            or not configs
            or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in configs.items()
            )
        ):
            raise ApiError(
                400,
                '"configs" must be a non-empty object of '
                "filename -> config text",
            )
        return dict(configs), name
    if not isinstance(directory, str) or not directory:
        raise ApiError(400, '"directory" must be a non-empty path string')
    if local_dir_root is None:
        raise ApiError(
            403,
            "directory ingest is disabled; start the server with "
            "--allow-local-dirs ROOT to enable it",
        )
    root = Path(local_dir_root).resolve()
    requested = Path(directory)
    if not requested.is_absolute():
        requested = root / requested
    base = requested.resolve()
    if base != root and root not in base.parents:
        raise ApiError(
            403,
            f"directory {directory!r} is outside the allowed root",
        )
    if not base.is_dir():
        raise ApiError(400, f"not a directory: {directory}")
    try:
        # A symlink inside the root must not read a file outside it.
        texts = load_config_texts(
            base, accept=lambda entry: root in entry.resolve().parents)
    except FileNotFoundError:
        raise ApiError(400, f"no config files in {directory}") from None
    return texts, name


def result_to_json(result) -> Dict[str, Any]:
    """Wire form of one :class:`VerificationResult`."""
    doc: Dict[str, Any] = {
        "property": result.property_name,
        "holds": result.holds,
        "cached": result.cached,
        "method": result.method,
        "message": result.message,
        "seconds": round(result.seconds, 6),
        "encode_seconds": round(result.encode_seconds, 6),
        "encode_shared_seconds": round(result.encode_shared_seconds, 6),
        "encode_query_seconds": round(result.encode_query_seconds, 6),
        "solve_seconds": round(result.solve_seconds, 6),
        "num_variables": result.num_variables,
        "num_clauses": result.num_clauses,
        "conflicts": result.conflicts,
    }
    if result.counterexample is not None:
        doc["counterexample"] = result.counterexample.summary()
    return doc
