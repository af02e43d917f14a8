"""One shared int object per literal value: ``_LITS[i] == i``.

CPython caches only ints up to 256, so without the table every literal
occurrence in an arena or store would be its own 32-byte object.  A
literal is taken from this table where it is computed and can be
stored: a loaded or added clause, a learnt clause's asserting literal,
the false literal propagation moves within a clause, and the variable
keys of the preprocessor's elimination store.  Everything else copies
objects already stored.  (Decision and assumption literals are never
stored: conflict analysis reorders only implied literals into their
reason clause.)

Process-wide, so a daemon's many encodings share one copy, and
grow-only: :func:`ensure_lits` grows it under the lock, and readers
need none (an index below the length they rely on is never rewritten).
"""

from __future__ import annotations

import threading
from typing import List

__all__ = ["ensure_lits"]

_LITS: List[int] = []
_LITS_LOCK = threading.Lock()


def ensure_lits(num_vars: int) -> None:
    """Make ``_LITS`` cover every literal of variables ``0..num_vars-1``."""
    if len(_LITS) < 2 * num_vars:
        with _LITS_LOCK:
            _LITS.extend(range(len(_LITS), 2 * num_vars))
