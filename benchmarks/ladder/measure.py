"""Pure measurement helpers: percentiles, span self time, layer rollups.

Nothing here touches the program under test; the workloads hand in
latency samples, span dicts (``Tracer.spans`` / ``Tracer.export()``
format) and Prometheus expositions, and get numbers back.
"""

from __future__ import annotations

import re
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (p90 needs 100 samples, p99 needs 1000).
MIN_BEYOND = 10

#: Pipeline layer of each program span, by exact name or dotted prefix,
#: first match wins.  Spans matching nothing (the ladder's own wrapper
#: spans included) count towards ``other_s``.
LAYERS = (
    ("lang.parse_s", ("parse",)),
    ("net.build_s", ("net.build",)),
    ("analysis.preflight_s", ("analysis",)),
    ("core.property_s", ("verify.property",)),
    ("core.model_s", ("verify.model",)),
    ("sat.search_s", ("verify.solve", "sat.solve", "sat.portfolio")),
    ("core.encode_s", ("verify", "encode")),
    ("smt.cnf_s", ("smt.add", "smt.assume")),
    ("sat.load_s", ("sat.load",)),
    ("sat.preprocess_s", ("sat.preprocess",)),
    ("engine.plan_s", ("batch",)),
)


@dataclass
class Run:
    """What one workload run measured, before it becomes metrics."""

    workload: str
    seed: int
    trace: bool
    setup_s: float = 0.0
    #: timed phase, start to the last operation's end
    wall_s: float = 0.0
    #: sum over clients of each client's phase time (= wall_s with one)
    client_s: float = 0.0
    #: latency of every query operation (verify call or HTTP request)
    latencies: List[float] = field(default_factory=list)
    #: latency of the query operations that ran the solver, i.e. were
    #: not answered entirely from a verdict cache
    fresh_latencies: List[float] = field(default_factory=list)
    #: operations attempted / failed (exception, non-2xx, timeout)
    attempted: int = 0
    failed: int = 0
    #: verification queries answered, and how many were solved fresh
    #: (not replayed from a verdict cache)
    answered: int = 0
    solved: int = 0
    unknown: int = 0
    #: known-answer comparisons made, and how many disagreed
    checks: int = 0
    wrong: int = 0
    peak_rss_mb: float = 0.0
    #: per-query results, named uniquely, for the run ledger
    results: List[Any] = field(default_factory=list)
    #: traced run: program spans of the timed phase and counter totals
    spans: List[Dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: workload-specific metrics, name -> (value, unit)
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: human-readable reasons for wrong verdicts or failures
    problems: List[str] = field(default_factory=list)


def timed_setup(build: Callable[[], Any], reps: int) -> Tuple[float, Any]:
    """Run ``build`` ``reps`` times; (median seconds, last result)."""
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: Sequence[float],
                    percent: int) -> Optional[float]:
    """Nearest-rank ``percent``-th percentile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    rank = -(-percent * n // 100)  # ceil(percent * n / 100), exact
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def layer_of(name: str) -> Optional[str]:
    """The layer metric a span name belongs to (None: unattributed)."""
    for layer, roots in LAYERS:
        for root in roots:
            if name == root or name.startswith(root + "."):
                return layer
    return None


def _covered(intervals: List[tuple]) -> float:
    """Total length of a union of ``(lo, hi)`` intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: Iterable[Mapping]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    Children are found through ``parent_id``.  Using the union of the
    children's intervals (not the sum of their durations) keeps the
    answer right for worker lanes merged under one parent, whose spans
    ran in parallel and overlap.
    """
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        children[span["parent_id"]].append(span)
    out = {}
    for span in spans:
        lo = span["start"]
        hi = lo + span["duration"]
        clipped = [(max(lo, c["start"]), min(hi, c["start"] + c["duration"]))
                   for c in children[span["span_id"]]]
        covered = _covered([iv for iv in clipped if iv[1] > iv[0]])
        out[span["span_id"]] = max(0.0, span["duration"] - covered)
    return out


def layer_seconds(spans: Iterable[Mapping]) -> Dict[str, float]:
    """Self time summed per layer (every layer present, zero if idle)."""
    spans = list(spans)
    own = self_times(spans)
    out = {layer: 0.0 for layer, _ in LAYERS}
    for span in spans:
        layer = layer_of(span["name"])
        if layer is not None:
            out[layer] += own[span["span_id"]]
    return out


def counter_name(name: str) -> str:
    """A registry metric name in Prometheus exposition form."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name.replace(".", "_"))
    return out if out.endswith("_total") else out + "_total"


def counters_from_exposition(families: Mapping) -> Dict[str, float]:
    """Counter totals (summed over labels, plus ``{module=...}`` splits
    as ``name{module}``) from ``promexport.parse_exposition`` output."""
    out: Dict[str, float] = defaultdict(float)
    for rows in families.values():
        for row in rows:
            if not row["name"].endswith("_total"):
                continue
            out[row["name"]] += row["value"]
            module = row["labels"].get("module")
            if module:
                out[f"{row['name']}{{{module}}}"] += row["value"]
    return dict(out)


def counter_delta(after: Mapping[str, float],
                  before: Mapping[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}
