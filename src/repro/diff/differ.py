"""Compute verdict diffs between two config trees.

The differ runs the same query list against the OLD and NEW networks
through the batch engine with a shared verdict cache.  Queries whose
dependency-slice hash is unchanged get the *same* cache key on both
sides, so one solve (or a warm-cache replay) covers both; only queries
whose slice the edit touched are re-verified per side.  Verdict flips
are read off the two result columns — counterexamples for new
violations always come from a fresh NEW-side solve, because a flip
implies the slice hashes differ and slice-changed queries are never
replayed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.analysis.deps import device_hash
from repro.core.encoder import EncoderOptions
from repro.core.engine import BatchEngine, BatchQuery
from repro.core.verifier import VerificationResult
from repro.net import load_network
from repro.net.topology import Network
from .cache import VerdictCache

__all__ = [
    "ConeStat",
    "DiffError",
    "DiffReport",
    "QueryDiff",
    "changed_devices",
    "diff_networks",
    "diff_trees",
]


class DiffError(Exception):
    """The diff could not be computed (unreadable/unparsable tree)."""


@dataclass
class ConeStat:
    """Size of one query's dependency slice on the NEW network.

    ``cacheable`` is False when the dependency analysis refuses the
    query entirely (unknown property class, unstable peer names);
    ``bounded`` is False when it falls back to the every-fragment cone.
    """

    name: str
    cacheable: bool
    bounded: bool = False
    devices: int = 0
    fragments: int = 0
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cacheable": self.cacheable,
            "bounded": self.bounded,
            "devices": self.devices,
            "fragments": self.fragments,
            "reason": self.reason,
        }


@dataclass
class QueryDiff:
    """One query's verdicts on both sides of the edit."""

    name: str
    old: VerificationResult
    new: VerificationResult

    @property
    def flipped(self) -> bool:
        return (
            self.old.holds is not None
            and self.new.holds is not None
            and self.old.holds != self.new.holds
        )

    @property
    def new_violation(self) -> bool:
        return self.new.holds is False and self.old.holds is not False

    @property
    def resolved(self) -> bool:
        return self.old.holds is False and self.new.holds is not False


@dataclass
class DiffReport:
    """Everything ``repro diff`` reports."""

    old_dir: str
    new_dir: str
    changed_devices: List[str] = field(default_factory=list)
    added_devices: List[str] = field(default_factory=list)
    removed_devices: List[str] = field(default_factory=list)
    queries: List[QueryDiff] = field(default_factory=list)
    cone_stats: List[ConeStat] = field(default_factory=list)
    seconds: float = 0.0
    #: content hashes of the two trees (canonical device forms), the
    #: run ledger's reproducibility anchor for diff invocations
    old_hash: str = ""
    new_hash: str = ""

    @property
    def flips(self) -> List[QueryDiff]:
        return [q for q in self.queries if q.flipped]

    @property
    def new_violations(self) -> List[QueryDiff]:
        return [q for q in self.queries if q.new_violation]

    @property
    def resolved(self) -> List[QueryDiff]:
        return [q for q in self.queries if q.resolved]

    def reverified(self) -> List[str]:
        """Queries that needed a fresh NEW-side solve."""
        return [q.name for q in self.queries if not q.new.cached]

    def replayed(self) -> List[str]:
        """Queries whose NEW-side verdict came from the cache."""
        return [q.name for q in self.queries if q.new.cached]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_violations else 0


def changed_devices(old: Network, new: Network):
    """Hostnames whose canonical config differs, plus added/removed."""
    changed, added, removed = [], [], []
    for name in sorted(set(old.devices) | set(new.devices)):
        dev_old = old.devices.get(name)
        dev_new = new.devices.get(name)
        if dev_old is None:
            added.append(name)
        elif dev_new is None:
            removed.append(name)
        elif device_hash(dev_old) != device_hash(dev_new):
            changed.append(name)
    return changed, added, removed


def diff_networks(
    old: Network,
    new: Network,
    queries: Sequence,
    *,
    options: Optional[EncoderOptions] = None,
    conflict_budget: Optional[int] = None,
    workers: int = 1,
    cache: Optional[VerdictCache] = None,
    old_dir: str = "<old>",
    new_dir: str = "<new>",
    cone_stats: bool = False,
) -> DiffReport:
    """Diff two already-built networks over a fixed query list.

    With ``cone_stats=True`` the report also records how large each
    query's dependency slice is on the NEW network (device and
    fragment counts), so the effect of the dataflow cone tightening is
    observable from the CLI.
    """
    start = time.perf_counter()
    if cache is None:
        cache = VerdictCache()
    batch = [
        q if isinstance(q, BatchQuery) else BatchQuery(prop=q)
        for q in queries
    ]
    changed, added, removed = changed_devices(old, new)
    from repro.obs.ledger import network_hash

    report = DiffReport(
        old_dir=old_dir,
        new_dir=new_dir,
        changed_devices=changed,
        added_devices=added,
        removed_devices=removed,
        old_hash=network_hash(old),
        new_hash=network_hash(new),
    )
    with obs.span(
        "diff.run", queries=len(batch), changed_devices=len(changed)
    ):
        # OLD side first: its solves warm the cache, so every query with
        # an unchanged slice replays instantly on the NEW side.
        with obs.span("diff.verify_old"):
            engine = BatchEngine(
                old,
                options=options,
                conflict_budget=conflict_budget,
                workers=workers,
                verdict_cache=cache,
            )
            old_results = engine.run(batch)
        with obs.span("diff.verify_new"):
            engine = BatchEngine(
                new,
                options=options,
                conflict_budget=conflict_budget,
                workers=workers,
                verdict_cache=cache,
            )
            new_results = engine.run(batch)
    for query, old_res, new_res in zip(batch, old_results, new_results):
        report.queries.append(
            QueryDiff(name=query.name(), old=old_res, new=new_res)
        )
    if cone_stats:
        report.cone_stats = _cone_stats(new, batch)
    report.seconds = time.perf_counter() - start
    return report


def _cone_stats(network: Network, batch: List[BatchQuery]) -> List[ConeStat]:
    from repro.analysis.deps import query_cone

    stats = []
    with obs.span("diff.cone_stats", queries=len(batch)):
        for query in batch:
            try:
                cone = query_cone(
                    network, query.prop, assumptions=query.assumptions
                )
            except Exception:  # mirror the engine: analysis never fatal
                cone = None
            if cone is None:
                stats.append(ConeStat(name=query.name(), cacheable=False))
                continue
            stats.append(
                ConeStat(
                    name=query.name(),
                    cacheable=True,
                    bounded=cone.bounded,
                    devices=sum(
                        1 for frags in cone.fragments.values() if frags
                    ),
                    fragments=cone.total_fragments(),
                    reason=cone.reason,
                )
            )
    return stats


def diff_trees(
    old_dir: str,
    new_dir: str,
    queries: Sequence,
    *,
    options: Optional[EncoderOptions] = None,
    conflict_budget: Optional[int] = None,
    workers: int = 1,
    cache: Optional[VerdictCache] = None,
    cone_stats: bool = False,
) -> DiffReport:
    """Parse both config trees and diff the query verdicts.

    Raises :class:`DiffError` when either tree cannot be read or
    parsed (the CLI maps this to exit code 2).
    """
    try:
        old = load_network(old_dir)
    except Exception as exc:
        raise DiffError(f"cannot load OLD tree {old_dir}: {exc}") from exc
    try:
        new = load_network(new_dir)
    except Exception as exc:
        raise DiffError(f"cannot load NEW tree {new_dir}: {exc}") from exc
    return diff_networks(
        old,
        new,
        queries,
        options=options,
        conflict_budget=conflict_budget,
        workers=workers,
        cache=cache,
        old_dir=str(old_dir),
        new_dir=str(new_dir),
        cone_stats=cone_stats,
    )
