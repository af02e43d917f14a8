"""Batch verification engine: many queries, shared work.

Minesweeper's headline workloads are many-query audits (the paper's §8.1
four-check battery over 152 networks; pairwise reachability fanning out
over every (source, destination-prefix) pair).  Running each query through
the full encode → bit-blast → Tseitin → fresh-CDCL pipeline repeats the
dominant cost — network constraint generation — once per query even when
queries only differ in the property term.

This engine exploits two levers:

* **Shared-encoding incremental solving.**  A *group* is a set of
  queries that share one encoding: the network is encoded once, at the
  largest effective failure bound K among the members, and loaded into
  one :class:`Solver`.  The §5 bound is one cardinality constraint over
  the failure bits, so a K encoding holds every smaller bound: a member
  with k < K is checked under the extra assumption "at most k links
  fail" (:meth:`EncodedNetwork.failures_at_most`).  The destination
  prefix is an assumption the same way: an encoding whose symbolic
  ``dstIp`` ranges over every address (§3) checks a query on prefix D
  under ``dstIp ∈ D``.  Only a group whose members all share one prefix
  D, and whose encoding is not cached, is encoded restricted to D, which
  enables the connected-route slice.  On the serial path, and whenever
  an encoding cache is in use, all of a run's undecided queries that
  need the same network copies (``prop.copies``) form one group.  Each
  property's instrumentation is asserted *guarded by a fresh activation
  literal* (``act → c`` for every instrumentation constraint ``c``) and
  the check
  runs under ``assumptions=[act, ¬P]``.  Guarding matters: property
  instrumentation such as path-length counters is not always a
  conservative extension (a multipath state with unequal branch lengths
  contradicts the hop-counter equations), so left unguarded it would
  silently shrink the state space seen by later queries in the group.
  The next query retires ``act`` with the root unit ``¬act`` (Eén &
  Sörensson, 2003), so spent instrumentation is satisfied at the root,
  and every answer is identical to a fresh per-query solve.

* **Process-pool parallelism across groups.**  With ``workers > 1`` and
  no encoding cache, the distinct prefixes are sorted and dealt
  round-robin into ``min(workers, prefixes)`` slots, one group per slot
  and copy layout.  Groups are
  independent (they share no solver), so they run under a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results are reordered
  to query order regardless of completion order, and any pool failure
  (spawn errors, pickling issues) falls back to the serial path.

:meth:`BatchEngine.run` is the one query pipeline: ``Verifier.verify``,
``Verifier.verify_batch``, the relational §5 checks, differential
verification and the serve registry all run their queries through it,
and inside it :meth:`GroupEncoding.solve_one` is the only code that
runs a query against a network encoding.  Lazy properties (``prop.lazy``,
e.g. :class:`LoadBalanced`) are ordinary group members: ``solve_one``
checks each stable state the solver finds concretely and blocks its
forwarding behind the query's activation literal, so the blocking
clauses retire with the query's instrumentation.

Before any of that, planning asks :func:`repro.analysis.stable.fixed_verdict`
whether the network already fixes a query's verdict (a loop query with
no pivot; reachability or black holes at k=0 on a prefix with one
stable state).  Such a query is answered from the simulated state with
``method="simulation"`` and joins no group: a batch answered whole so
builds no encoding, touches no encoding cache and ships nothing to a
worker.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import log as obslog
from repro.net import ip as iplib
from repro.net.topology import Network
from repro.smt import (SAT, Solver, Term, UNKNOWN, UNSAT, eq, implies,
                       not_, or_)
from .counterexample import extract_counterexample
from .encoder import EncodedNetwork, EncoderOptions, NetworkEncoder
from .policy_smt import fbm_const
from .properties import ONE_COPY, Copy, Property
from .verifier import (
    VerificationResult,
    _query_tracer,
    _result,
    _span_stats,
    effective_max_failures,
)

__all__ = ["BatchQuery", "BatchEngine", "GroupEncoding"]


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: a property plus per-query knobs.

    ``max_failures`` follows ``Verifier.verify`` semantics: an explicit
    value (including 0) overrides the engine-level option default, and
    ``prop.failures_needed`` wins only when larger.  ``assumptions`` are
    callables ``enc -> Term`` (e.g. :func:`repro.core.properties.announces`)
    applied per-check, so they never leak into sibling queries.
    """

    prop: Property
    max_failures: Optional[int] = None
    assumptions: Tuple = ()
    label: Optional[str] = None

    def name(self) -> str:
        return self.label or type(self.prop).__name__


_Members = List[Tuple[int, BatchQuery]]

# Stable states a lazy query may refine away before giving up UNKNOWN.
_LAZY_ITERATIONS = 200


class GroupEncoding:
    """The shared, reusable state of one query group: the encoded
    network plus an incremental solver loaded with its constraints.
    With ``dst_prefix`` the encoding is restricted to that prefix and
    answers only queries about it; without, it answers any prefix.

    ``copies`` are the network copies its queries need; ``enc`` is the
    first that takes the query's failure bound.

    This is the expensive artifact batch verification amortizes — and
    the unit a long-lived service (``repro serve``) caches across
    requests.  :meth:`solve_one` retires the previous query's
    activation literal (see the module docstring) before it adds its
    own, so a ``GroupEncoding`` can discharge any number of queries,
    in any order, across any number of requests, and every answer is
    identical to a fresh per-query solve.

    Thread safety: the CDCL solver is single-threaded state, so
    :meth:`solve_one` serializes on an internal lock — concurrent
    requests against one cached encoding queue up rather than corrupt
    the solver.
    """

    def __init__(self, network: Network, options: EncoderOptions,
                 conflict_budget: Optional[int] = None,
                 dst_prefix: Optional[Tuple[int, int]] = None,
                 tracer=None,
                 copies: Tuple[Copy, ...] = ONE_COPY) -> None:
        tracer = tracer if tracer is not None else obs.active()
        self.network = network
        self.options = options
        self.dst_prefix = dst_prefix
        self.copies = copies
        self.lock = threading.Lock()
        #: the last query's activation literal, retired by the next one
        self._spent_act = None
        with tracer.span("verify.encode", shared=True) as sp:
            self.encs, self.bounded = [], []
            for copy in copies:
                overrides = dict(copy.overrides)
                enc = NetworkEncoder(copy.network or network,
                                     replace(options, **overrides)).encode(
                    dst_prefix=dst_prefix, ns=copy.ns)
                self.encs.append(enc)
                if "max_failures" not in overrides:
                    self.bounded.append(enc)
            self.enc = self.bounded[0]
            self.solver = Solver(conflict_budget=conflict_budget,
                                 preprocess=options.preprocess)
            for enc in self.encs:
                self.solver.add(*enc.constraints, label="network")
            for other in self.encs[1:]:
                self.solver.add(*_equate(self.encs[0], other),
                                label="property")
            self.marks = [enc.checkpoint() for enc in self.encs]
        #: one-time cost of building this encoding (the cost a warm
        #: cache hit skips entirely)
        self.encode_seconds = sp.duration

    def cache_size(self) -> int:
        """Byte-size estimate for cache budgeting.

        Exact deep sizes of term graphs are unaffordable to compute;
        this estimate is linear in the CNF variables, the live problem
        clauses and the learnt clauses kept.  The constants were fitted
        to the bytes tracemalloc sees freed when a warm encoding is
        dropped, which include its term graph (the term table is weak,
        so terms no other live encoding shares die with it):
        restricted groups after one reachability query at failure
        bounds 0 and 1 (pods-2 fat-tree, cloud-corpus networks 0, 2,
        5, 11, 40 and 51; 2,110-10,630 vars, up to 10,900 learnt
        clauses, 2.5-18.0 MB), and prefix-free encodings of serve-mix's
        two snapshots after 1 to 112 queries (2,330-7,460 vars,
        3.2-11.9 MB).  Every estimate lies within 0.96-1.08x of its
        measurement.  Live clauses need their own term: a prefix-free
        encoding keeps 2.7-3.3 per variable, where a restricted one,
        simplified under its prefix, keeps 1.4-2.1.
        """
        stats = self.solver.stats
        return (4096 + 960 * self.solver.num_variables
                + 150 * stats["live_clauses"] + 480 * stats["learned"])

    def solve_one(self, query: "BatchQuery", tracer=None,
                  shared_share: float = 0.0) -> VerificationResult:
        """Discharge one query against the shared solver.

        ``shared_share`` is the slice of the one-time encoding cost
        attributed to this query's stats (0.0 when the encoding was
        reused from a cache — the query then paid no encode cost).

        The query's effective failure bound k may be below the
        encoding's bound K; it is then checked under the assumption
        that at most k links fail.  On an encoding not restricted to a
        prefix, the query's destination prefix D is one more
        assumption, ``dstIp ∈ D``: the same constraint a restricted
        encoding asserts at the root.
        """
        tracer = tracer if tracer is not None else obs.active()
        enc, solver, prop = self.enc, self.solver, query.prop
        lazy = getattr(prop, "lazy", False)
        bound = self.options.max_failures
        k = effective_max_failures(prop, query.max_failures, self.options)
        if k > bound:
            raise ValueError(f"query {query.name()} needs k={k}, "
                             f"but the encoding bounds failures at {bound}")
        if prop.copies != self.copies:
            raise ValueError(f"query {query.name()} needs other network "
                             f"copies than the encoding holds")
        prefix = prop.dst_prefix()
        if self.dst_prefix is not None and prefix != self.dst_prefix:
            raise ValueError(
                f"query {query.name()} is about {_prefix_text(prefix)}, "
                f"but the encoding is restricted to "
                f"{_prefix_text(self.dst_prefix)}")
        with self.lock:
            qspan = tracer.span("batch.query", query=query.name(),
                                max_failures=k)
            with qspan:
                with tracer.span("verify.property",
                                 property=query.name()) as sp_query:
                    if self._spent_act is not None:
                        # Retired here rather than after the last check,
                        # so the CNF buffer stays empty between queries.
                        solver.add(not_(self._spent_act),
                                   label="instrumentation")
                    prop_term = prop.encode(*self.encs)
                    instrumentation = [
                        c for copy, mark in zip(self.encs, self.marks)
                        for c in copy.rollback(mark)]
                    act = self._spent_act = enc.fresh_bool("batch.act")
                    solver.add(*[implies(act, c) for c in instrumentation],
                               label="instrumentation")
                    # A lazy property has no term to negate (it encodes
                    # to TRUE); it is checked on each model instead.
                    assumptions = [act] if lazy else [act, not_(prop_term)]
                    if k < bound:
                        for copy in self.bounded:
                            at_most = copy.failures_at_most(k)
                            if at_most.kind != "true":
                                assumptions.append(at_most)
                    if self.dst_prefix is None and prefix is not None:
                        inside = fbm_const(enc.dst_ip, *prefix)
                        if inside.kind != "true":
                            assumptions.append(inside)
                    for assumption in query.assumptions:
                        assumptions.append(assumption(enc))
                if lazy:
                    outcome, solves, unknown = self._refine(
                        prop, act, assumptions, tracer)
                else:
                    with tracer.span("verify.solve") as sp_solve:
                        outcome = solver.check(assumptions=assumptions)
                    solves = [(sp_solve, solver.last_check_stats["conflicts"])]
                    unknown = None
                result = _result(
                    query.name(), outcome, solver, tracer,
                    lambda model: (extract_counterexample(enc, model),
                                   prop.describe_violation(enc, model)),
                    unknown_message=unknown)
            return replace(result, **_span_stats(
                shared_share + qspan.duration, shared_share, sp_query,
                solves, solver))

    def _refine(self, prop: Property, act, assumptions, tracer):
        """The lazy refinement loop: solve, check the stable state's
        model concretely, and block its forwarding until one violates
        ``prop`` (SAT, the model still loaded) or none is left (UNSAT).

        Returns ``(outcome, solves, unknown_message)`` with ``solves``
        the ``(span, conflicts)`` of every iteration's check.
        """
        enc, solver = self.enc, self.solver
        solves = []
        for iteration in range(_LAZY_ITERATIONS):
            with tracer.span("verify.solve",
                             lazy_iteration=iteration) as sp_solve:
                outcome = solver.check(assumptions=assumptions)
            solves.append((sp_solve, solver.last_check_stats["conflicts"]))
            if outcome is not SAT:
                return outcome, solves, None
            model = solver.model()
            if prop.check_model(enc, model) is not None:
                return SAT, solves, None
            block = []
            for key in enc.fwd:
                term = enc.data_fwd(*key)
                block.append(not_(term) if model.eval(term) else term)
            if not block:
                # No forwarding edges: the state just checked is the
                # only forwarding behaviour there is.
                return UNSAT, solves, None
            solver.add(implies(act, or_(*block)), label="refinement")
        return UNKNOWN, solves, "lazy refinement budget exhausted"


class BatchEngine:
    """Plans and executes a batch of verification queries."""

    def __init__(self, network: Network,
                 options: Optional[EncoderOptions] = None,
                 conflict_budget: Optional[int] = None,
                 workers: int = 1,
                 verdict_cache=None,
                 encoding_cache=None,
                 encoding_scope: str = "") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.network = network
        self.options = options or EncoderOptions()
        self.conflict_budget = conflict_budget
        self.workers = workers
        # Any mapping-like object with .get(key) / .put(key, record)
        # (e.g. repro.diff.VerdictCache).  Records replay as results
        # with ``cached=True``; see repro.analysis.deps for the
        # soundness argument behind the keys.
        self.verdict_cache = verdict_cache
        # Cross-run reuse of the network's one prefix-free encoding: an
        # object with ``get(key)``, ``put(key, value, size_bytes)`` and
        # ``resize(key, value, size_bytes)`` (e.g.
        # ``repro.serve.TTLLRUCache``) holding :class:`GroupEncoding`
        # instances.  ``encoding_scope`` namespaces the keys (the
        # service uses ``{tenant}/{snapshot}/``) so unrelated networks
        # never collide.  Solvers cannot cross process boundaries, so
        # with a cache every run is serial, whatever ``workers`` says.
        self.encoding_cache = encoding_cache
        self.encoding_scope = encoding_scope
        #: per-run encoding-cache outcome, ``{"hits": n, "misses": m}``
        #: (reset by :meth:`run`) — lets a serving layer report whether
        #: a request skipped parse/build/encode without scraping the
        #: process-wide metrics
        self.last_encoding_stats = {"hits": 0, "misses": 0}

    # ------------------------------------------------------------------

    def run(self, queries: Sequence) -> List[VerificationResult]:
        """Execute all queries; results are returned in query order."""
        tracer = obs.active()
        self.last_encoding_stats = {"hits": 0, "misses": 0}
        with tracer.span("batch.run", queries=len(queries),
                         workers=self.workers) as root:
            batch = [q if isinstance(q, BatchQuery) else BatchQuery(prop=q)
                     for q in queries]
            results: List[Optional[VerificationResult]] = \
                [None] * len(batch)
            pending: _Members = []
            cache_keys: Dict[int, str] = {}
            metrics = obs.metrics()
            with tracer.span("batch.plan"):
                for index, query in enumerate(batch):
                    if self.verdict_cache is not None:
                        ckey = self._cache_key(query)
                        if ckey is not None:
                            hit = self.verdict_cache.get(ckey)
                            if hit is not None:
                                results[index] = VerificationResult(
                                    property_name=query.name(),
                                    holds=hit["holds"],
                                    message=hit.get("message", ""),
                                    method=hit.get("method", "sat"),
                                    cached=True)
                                metrics.counter("diff.cache_hit").inc()
                                continue
                            cache_keys[index] = ckey
                        metrics.counter("diff.reverified").inc()
                    # Pin the effective bound on the query: the group's
                    # options carry the group's bound, not the engine's.
                    k = effective_max_failures(query.prop,
                                               query.max_failures,
                                               self.options)
                    query = replace(query, max_failures=k)
                    results[index] = _decide(self.network, query, k)
                    if results[index] is None:
                        pending.append((index, query))
                # A live solver cannot cross a process boundary.
                pooled = self.workers > 1 and self.encoding_cache is None
                groups = self._groups(pending, pooled)
            root.set(groups=len(groups))
            metrics.counter("batch.queries").inc(len(batch))
            metrics.counter("batch.groups").inc(len(groups))

            done = (pooled and len(groups) > 1
                    and self._run_parallel(groups, results))
            if not done:
                for members in groups:
                    for index, result in self._run_group(members):
                        results[index] = result

            if self.verdict_cache is not None:
                for index, ckey in cache_keys.items():
                    result = results[index]
                    # UNKNOWN is budget-dependent, never cached.
                    if result is not None and result.holds is not None:
                        self.verdict_cache.put(ckey, {
                            "holds": result.holds,
                            "message": result.message,
                            "method": result.method,
                        })
        return results  # type: ignore[return-value]

    def _cache_key(self, query: BatchQuery) -> Optional[str]:
        """The verdict-cache key for one query, or None (not cacheable).

        Key computation is conservative: any analysis failure downgrades
        to a fresh solve rather than risking a stale verdict.
        """
        from repro.analysis.deps import cache_key

        try:
            return cache_key(self.network, query.prop,
                             max_failures=query.max_failures,
                             assumptions=query.assumptions,
                             options=self.options)
        except Exception as exc:
            obslog.warn_event(
                "engine.dep_analysis_failed",
                f"dependency analysis failed for "
                f"{query.name()} ({exc!r}); re-verifying",
                query=query.name(), error=repr(exc))
            return None

    # ------------------------------------------------------------------

    def _groups(self, pending: _Members, pooled: bool) -> List[_Members]:
        """Split the undecided queries into groups, each answered by
        one encoding.  Queries that need different network copies never
        share one; for the process pool (``pooled``) the distinct
        prefixes are also sorted and dealt round-robin into
        ``min(workers, prefixes)`` slots."""
        prefixes = sorted({query.prop.dst_prefix() for _, query in pending},
                          key=_prefix_order)
        count = min(self.workers, len(prefixes)) if pooled else 1
        slot = {prefix: i % count for i, prefix in enumerate(prefixes)}
        groups: Dict[Tuple, _Members] = {}
        for index, query in pending:
            key = (query.prop.copies, slot[query.prop.dst_prefix()])
            groups.setdefault(key, []).append((index, query))
        return list(groups.values())

    def _group_options(self, members: _Members) -> EncoderOptions:
        """The engine options at the group's bound: the largest
        effective bound among its (bound-pinned) members."""
        k = max(query.max_failures for _, query in members)
        options = self.options
        if k != options.max_failures:
            options = replace(options, max_failures=k)
        return options

    def encoding_cache_key(self) -> str:
        """The scoped cache key of the network's one shared encoding:
        ``{scope}enc/{options-digest}``.  Neither the destination prefix
        nor the failure bound is part of it: a cached encoding is
        restricted to no prefix, and an encoding at bound K answers any
        k <= K."""
        from repro.analysis.deps import options_digest

        return f"{self.encoding_scope}enc/{options_digest(self.options)}"

    def _cached_group(self, options: EncoderOptions
                      ) -> Tuple[Optional[GroupEncoding], bool]:
        """Fetch (or build and insert) the network's encoding via the
        encoding cache; ``(None, False)`` without one.  Returns
        ``(group, reused)``: a reused group already paid its encode
        cost in some earlier run, so stats for this run's queries
        attribute zero shared encoding time.

        A cached encoding at a bound below ``options.max_failures``
        cannot answer the group; it is rebuilt at the larger bound and
        replaced."""
        if self.encoding_cache is None:
            return None, False
        ckey = self.encoding_cache_key()
        old = self.encoding_cache.get(ckey)
        metrics = obs.metrics()
        if old is not None:
            if old.options.max_failures >= options.max_failures:
                self.last_encoding_stats["hits"] += 1
                metrics.counter("engine.encoding_cache_hit").inc()
                return old, True
            metrics.counter("engine.encoding_bound_raised").inc()
        self.last_encoding_stats["misses"] += 1
        metrics.counter("engine.encoding_cache_miss").inc()
        group = GroupEncoding(self.network, options, self.conflict_budget,
                              tracer=_query_tracer())
        self.encoding_cache.put(ckey, group, group.cache_size())
        return group, False

    def _run_group(self, members: _Members
                   ) -> List[Tuple[int, VerificationResult]]:
        """Discharge one group in this process: on the network's cached
        encoding when the engine has an encoding cache, else on a fresh
        one.  Only single-network groups are cached: the key names one
        copy."""
        options = self._group_options(members)
        group, reused = self._cached_group(options) \
            if members[0][1].prop.copies == ONE_COPY else (None, False)
        pairs, _ = _solve_group(self.network, options, self.conflict_budget,
                                _shared_prefix(members), members,
                                group=group, reused=reused)
        if group is not None:
            # This run's queries grew the encoding (learnt clauses,
            # Tseitin gates, retire units).  ``resize`` re-measures it
            # only while the key still holds it, so an encoding that was
            # replaced or evicted meanwhile is not put back.
            self.encoding_cache.resize(self.encoding_cache_key(), group,
                                       group.cache_size())
        return pairs

    def _run_parallel(self, groups, results) -> bool:
        """Run groups in a process pool.  Returns False (leaving
        ``results`` to be recomputed serially) if the pool cannot be
        spawned or any group fails to ship/execute.

        With tracing enabled, each worker buffers its own spans/metrics
        (the parent's tracer is invisible across the process boundary)
        and ships them back with its results; they are merged here, at
        join, each group on its own lane.
        """
        workers = min(self.workers, len(groups))
        tracer = obs.active()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_solve_group, self.network,
                                self._group_options(members),
                                self.conflict_budget,
                                _shared_prefix(members), members,
                                collect_trace=tracer.enabled,
                                run_id=obslog.run_id())
                    for members in groups]
                for future in as_completed(futures):
                    pairs, trace_payload = future.result()
                    for index, result in pairs:
                        results[index] = result
                    if trace_payload is not None:
                        tracer.merge(trace_payload)
        except Exception as exc:
            # A silent fallback hides real environment problems (broken
            # spawn method, unpicklable networks) behind a mysterious
            # serial slowdown — make it loud and countable.
            obs.metrics().counter("engine.pool_fallback").inc()
            obslog.warn_event(
                "engine.pool_fallback",
                f"batch process pool failed ({exc!r}); "
                f"re-running {len(groups)} groups serially",
                groups=len(groups), workers=workers, error=repr(exc))
            return False
        return True


def _decide(network: Network, query: BatchQuery,
            k: int) -> Optional[VerificationResult]:
    """The query's result when the network fixes its verdict without an
    encoding (:func:`repro.analysis.stable.fixed_verdict`), else None.

    ``k`` is the query's effective failure bound.  The check runs in a
    ``sim.decide`` span, whose duration is a decided result's
    ``seconds``; its encode and solve seconds, vars, clauses and
    conflicts are all zero.
    """
    from repro.analysis.stable import fixed_verdict

    with _query_tracer("decide").span("sim.decide",
                                      query=query.name()) as sp:
        decision = fixed_verdict(network, query.prop, k, query.assumptions)
        sp.set(decided=decision is not None)
    if decision is None:
        return None
    obs.metrics().counter("engine.simulation_decided").inc()
    return VerificationResult(property_name=query.name(),
                              holds=decision.holds,
                              counterexample=decision.counterexample,
                              message=decision.message,
                              seconds=sp.duration, method="simulation")


def _prefix_order(prefix: Optional[Tuple[int, int]]):
    return (prefix is not None, prefix or (0, 0))


def _prefix_text(prefix: Optional[Tuple[int, int]]) -> str:
    return iplib.format_prefix(*prefix) if prefix else "any-prefix"


def _shared_prefix(members: _Members) -> Optional[Tuple[int, int]]:
    """The prefix every member is about, or None when they differ: an
    uncached group's encoding is restricted to it."""
    prefixes = {query.prop.dst_prefix() for _, query in members}
    return prefixes.pop() if len(prefixes) == 1 else None


def _group_lane(members: _Members, k: int) -> str:
    """``group {first prefix}[+{more}] k={k}``; groups of different copy
    layouts may share a lane name."""
    prefixes = sorted({query.prop.dst_prefix() for _, query in members},
                      key=_prefix_order)
    more = f"+{len(prefixes) - 1}" if len(prefixes) > 1 else ""
    return f"group {_prefix_text(prefixes[0])}{more} k={k}"


def _solve_group(network: Network, options: EncoderOptions,
                 conflict_budget: Optional[int],
                 dst_prefix: Optional[Tuple[int, int]],
                 members: _Members,
                 group: Optional[GroupEncoding] = None,
                 reused: bool = False,
                 collect_trace: bool = False,
                 run_id: Optional[str] = None,
                 ) -> Tuple[List[Tuple[int, VerificationResult]],
                            Optional[Dict]]:
    """Discharge every query of a group against one encoding: ``group``
    when given (a cached encoding; ``reused`` when it paid its encode
    cost in an earlier run), else a fresh one at ``options`` over the
    copies the members need, restricted to ``dst_prefix`` (the prefix
    every member is about, if any).

    Module-level so it can be pickled to process-pool workers (the
    pool path never ships ``group`` — a live solver cannot cross a
    process boundary).  Returns the per-query results plus — with
    ``collect_trace`` (the process-pool path under an enabled tracer) —
    the worker-side span buffer for the parent to merge at join time.
    ``run_id`` carries the parent's log correlation id across the
    process boundary so worker log records join the same run.
    """
    if run_id is not None:
        obslog.set_run_id(run_id)
    if group is not None:
        options = group.options
    lane = _group_lane(members, options.max_failures)
    collector = obs.Tracer(lane=lane) if collect_trace else None
    with obs.use(collector) if collector is not None else nullcontext():
        tracer = _query_tracer(lane)
        with tracer.span("batch.group", queries=len(members),
                         max_failures=options.max_failures,
                         reused=reused, dst_prefix=lane):
            if group is None:
                group = GroupEncoding(network, options, conflict_budget,
                                      dst_prefix, tracer=tracer,
                                      copies=members[0][1].prop.copies)
            # The one-time shared encoding is amortized evenly; each
            # result carries its share in ``encode_shared_seconds`` so
            # batch totals sum to real wall time without
            # double-counting.  A reused (cache-hit) encoding paid
            # nothing this run: its queries carry a zero share, which is
            # exactly the parse/build/encode work the warm path skipped.
            share = 0.0 if reused else group.encode_seconds / len(members)
            pairs = [(index, group.solve_one(query, tracer=tracer,
                                             shared_share=share))
                     for index, query in members]
    return pairs, (collector.export() if collector is not None else None)


def _equate(a: EncodedNetwork, b: EncodedNetwork) -> List[Term]:
    """Two copies see one packet and one announcement per shared
    external peer.  A header field no ACL of a copy's network reads is
    the constant 0 there, so only fields both hold symbolically are
    equated: the other copy's field stays free."""
    out = [eq(fa, fb) for fa, fb in zip(vars(a.packet).values(),
                                        vars(b.packet).values())
           if fa.kind != "bvval" and fb.kind != "bvval"]
    for peer, rec_a in a.env.items():
        if peer in b.env:
            out.extend(a.factory.equate(rec_a, b.env[peer]))
    return out
