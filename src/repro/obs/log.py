"""Structured JSON logging with run correlation ids.

Every log record is one JSON object per line — machine-greppable the
way ``warnings.warn`` strings never were — carrying a ``run_id`` so all
records of one CLI invocation (and, later, one ``repro serve`` request)
correlate, **including records emitted inside process-pool workers**:
the batch engine ships the parent's run id to each worker, which calls
:func:`set_run_id` before doing any work.

Built on stdlib :mod:`logging` under the ``"repro"`` logger namespace:

* silent by default — a :class:`logging.NullHandler` is installed so
  library users who never call :func:`configure` see nothing, and
  nothing is ever written unless asked for;
* :func:`configure` attaches a JSON-formatting handler to a stream or
  file (the CLI's ``--log-json FILE`` flag, ``-`` for stderr);
* :func:`event` logs a structured event (``event`` + arbitrary fields);
* :func:`warn_event` logs the structured event **and** still raises the
  matching :class:`warnings.warn` — existing ``pytest.warns`` /
  ``filterwarnings`` contracts keep working while log pipelines get a
  parseable record (this is what the engine's pool fallback uses).
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
import uuid
import warnings
from typing import Any, Optional

__all__ = ["configure", "event", "warn_event", "get_logger",
           "new_run_id", "run_id", "set_run_id"]

_LOGGER = logging.getLogger("repro")
_LOGGER.addHandler(logging.NullHandler())

#: Process-wide correlation id of the current run; workers receive it
#: explicitly at spawn.  None until a run starts.  The serve daemon
#: additionally sets a *thread-scoped* id per request (see
#: :func:`set_run_id`), which shadows this one on that thread only —
#: ``ThreadingHTTPServer`` handles concurrent requests on separate
#: threads, and their records must not share one id.
_RUN_ID: Optional[str] = None
_THREAD_RUN = threading.local()

_RESERVED = frozenset(
    ("name", "msg", "args", "levelname", "levelno", "pathname",
     "filename", "module", "exc_info", "exc_text", "stack_info",
     "lineno", "funcName", "created", "msecs", "relativeCreated",
     "thread", "threadName", "processName", "process", "taskName",
     "message", "event", "run_id"))


def new_run_id() -> str:
    """A fresh 12-hex-char correlation id (collision-safe per ledger)."""
    return uuid.uuid4().hex[:12]


def set_run_id(value: Optional[str], *, thread_only: bool = False) -> None:
    """Install the current correlation id.

    With ``thread_only`` the id applies to the calling thread alone
    (and ``None`` clears it, falling back to the process-wide id) —
    this is how the serve daemon scopes ids to request threads without
    disturbing concurrent requests.
    """
    if thread_only:
        _THREAD_RUN.value = value
        return
    global _RUN_ID
    _RUN_ID = value


def run_id() -> Optional[str]:
    """The calling thread's id if one is set, else the process-wide."""
    return getattr(_THREAD_RUN, "value", None) or _RUN_ID


class JsonFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, event, run_id,
    message, plus any structured fields passed via ``extra``."""

    def format(self, record: logging.LogRecord) -> str:
        doc: dict = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": getattr(record, "event", record.name),
            "run_id": getattr(record, "run_id", None) or run_id(),
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_"):
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            doc[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            doc["exception"] = record.exc_info[0].__name__
        return json.dumps(doc, sort_keys=True)


def configure(target: Any = "-", level: int = logging.INFO,
              run: Optional[str] = None) -> logging.Handler:
    """Attach a JSON handler writing to ``target``.

    ``target`` is a path, ``"-"`` for stderr, or an open stream.
    Returns the handler so callers (tests, the CLI teardown) can detach
    it with :func:`logging.Logger.removeHandler` and close it.  Also
    installs ``run`` (or a fresh id) as the current run id.
    """
    if hasattr(target, "write"):
        handler: logging.Handler = logging.StreamHandler(target)
    elif target == "-":
        handler = logging.StreamHandler(sys.stderr)
    else:
        handler = logging.FileHandler(target)
    handler.setFormatter(JsonFormatter())
    _LOGGER.addHandler(handler)
    _LOGGER.setLevel(min(level, _LOGGER.level or level))
    set_run_id(run or new_run_id())
    return handler


def unconfigure(handler: logging.Handler) -> None:
    """Detach and close a handler installed by :func:`configure`."""
    _LOGGER.removeHandler(handler)
    handler.close()


def get_logger(name: Optional[str] = None) -> logging.Logger:
    return _LOGGER if not name else _LOGGER.getChild(name)


def event(name: str, message: str = "", *,
          level: int = logging.INFO, **fields: Any) -> None:
    """Log one structured event on the ``repro`` logger.

    ``fields`` must be JSON-serializable (anything that is not gets
    ``repr()``-ed by the formatter rather than raising mid-pipeline).
    """
    _LOGGER.log(level, message or name,
                extra={"event": name, "ts_mono": time.monotonic(),
                       **fields})


def warn_event(name: str, message: str, *,
               category: type = RuntimeWarning,
               stacklevel: int = 2, **fields: Any) -> None:
    """Structured WARNING event that also emits a real Python warning.

    The JSON record is for log pipelines; the ``warnings.warn`` keeps
    interactive users and the existing test contracts
    (``pytest.warns(RuntimeWarning)``) on the established channel.
    """
    event(name, message, level=logging.WARNING, **fields)
    warnings.warn(message, category, stacklevel=stacklevel + 1)
