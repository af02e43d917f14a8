"""Shared benchmark utilities.

The harness reproduces every table and figure of the paper's §8.  Scale is
controlled by ``REPRO_SCALE``:

* ``quick`` (default) — a representative subset sized for minutes of wall
  clock on a laptop-grade pure-Python solver;
* ``full`` — the complete workloads (all 152 cloud networks, larger
  fat-trees); expect hours.

Every benchmark prints the paper-style rows it regenerates, so running
``python benchmarks/run_all.py`` rebuilds the data behind EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterable, List, Sequence

__all__ = ["SCALE", "OUT_DIR", "is_full", "cloud_indices",
           "fattree_pods", "out_path", "print_table", "timed"]

SCALE = os.environ.get("REPRO_SCALE", "quick")

#: Where smoke runs drop their artifacts (gitignored; uploaded by CI).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def out_path(filename: str) -> str:
    """Absolute path of an artifact in ``benchmarks/out/`` (created)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, filename)


def is_full() -> bool:
    return SCALE == "full"


def cloud_indices() -> List[int]:
    """Which of the 152 cloud networks to analyze."""
    if is_full():
        return list(range(152))
    # Quick subset: several networks per bug class — hijack (0..66),
    # drift (67..95), hole (96..119), clean (120..151) — restricted to
    # <= 9 routers so the four-check battery (fault-invariance included)
    # stays in pure-Python-solver range.
    return [0, 1, 3, 4, 5, 11,          # hijack class
            68, 69, 71, 75,             # equivalence-drift class
            97, 100, 101, 104,          # black-hole class
            120, 121, 127, 130]         # clean


def fattree_pods() -> List[int]:
    """Figure 8 x-axis (paper: 2..18 pods; scaled for pure Python)."""
    return [2, 4, 6] if is_full() else [2, 4]


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    print(f"\n== {title} ==")
    print(" | ".join(str(h) for h in header))
    for row in rows:
        print(" | ".join(str(c) for c in row))


@contextmanager
def timed():
    """Context manager yielding a mutable [seconds] cell."""
    cell = [0.0]
    start = time.perf_counter()
    try:
        yield cell
    finally:
        cell[0] = time.perf_counter() - start

