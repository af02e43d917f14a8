"""JSON API schemas: request validation and response serialization.

Kept free of any HTTP machinery so both the daemon and the CLI share
one definition of a *query spec* — the flat JSON object (``{"property":
"reachability", "sources": [...], "dest_prefix": ...}``) accepted by
``repro verify-batch --spec``, ``repro diff --spec`` and the service's
``/verify`` / ``/verify-batch`` bodies.

Validation failures raise :class:`ApiError` carrying the HTTP status
the server should answer with; the CLI maps the same errors onto
``SystemExit`` messages.  A spec is checked before any query runs: field
types and prefix syntax by :func:`query_from_spec`, router names
against the network by :func:`check_routers`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core import BatchQuery, properties as P
from repro.net import ip as iplib, load_config_texts

__all__ = [
    "ApiError",
    "PROPERTY_CHOICES",
    "check_routers",
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


#: Spec fields that hold a list of names, and those that hold a
#: non-negative integer; any of them may be absent or null.
_NAME_LISTS = ("sources", "waypoints", "allowed", "announced_by")
_COUNTS = ("bound", "max_leak_length", "max_failures")


def _check_spec_types(spec: Dict[str, Any]) -> None:
    """Raise ValueError naming the first field of the wrong type (a
    string where a list belongs would otherwise be read as a list of
    one-letter names), or a ``dest_prefix`` that is no prefix."""
    for key in _NAME_LISTS:
        value = spec.get(key)
        if value is not None and not (
            isinstance(value, list)
            and all(isinstance(name, str) for name in value)
        ):
            raise ValueError(f"{key} must be a list of names")
    for key in _COUNTS:
        value = spec.get(key)
        # bool is an int subclass: true must not read as 1.
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < 0
        ):
            raise ValueError(f"{key} must be a non-negative integer")
    for key in ("dest_prefix", "dest_peer", "label"):
        value = spec.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
    prefix = spec.get("dest_prefix")
    if prefix is not None:
        try:
            iplib.parse_prefix(prefix)
        except ValueError:
            raise ValueError(
                f"dest_prefix {prefix!r} is not a prefix A.B.C.D/len"
            ) from None


def query_from_spec(spec: Any, index: int = 0) -> BatchQuery:
    """One :class:`BatchQuery` from one spec entry."""
    if not isinstance(spec, dict):
        raise ApiError(
            400,
            f"query {index}: expected an object, "
            f"got {type(spec).__name__}",
        )
    try:
        _check_spec_types(spec)
        prop = property_from_spec(spec.get("property"), spec)
        return BatchQuery(
            prop=prop,
            max_failures=spec.get("max_failures"),
            assumptions=tuple(
                P.announces(peer) for peer in spec.get("announced_by") or ()
            ),
            label=spec.get("label"),
        )
    except ApiError as exc:
        raise ApiError(exc.status, f"query {index}: {exc.message}") from exc
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"query {index}: {exc}") from exc


def check_routers(queries: List[BatchQuery], network) -> None:
    """Reject a query whose ``sources`` or ``waypoints`` name a router
    the network does not have (the encoder would fail on it with a
    ``KeyError``)."""
    routers = set(network.router_names())
    for index, query in enumerate(queries):
        prop = query.prop
        sources = getattr(prop, "sources", ())
        if hasattr(prop, "source"):
            sources = [prop.source]
        fields = (
            ("sources", () if sources == "all" else sources),
            ("waypoints", getattr(prop, "waypoints", ())),
        )
        for field, names in fields:
            unknown = sorted(set(names) - routers)
            if unknown:
                raise ApiError(
                    400,
                    f"query {index}: {field} names no router of the "
                    f"snapshot: {', '.join(unknown)}",
                )


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
