"""The public verification API.

``Verifier.verify(property)`` translates the network plus the negated
property into CNF and asks the CDCL core for a satisfying assignment:
SAT means some stable state violates the property (a counterexample is
extracted from the model), UNSAT means the property holds in every stable
state.  A single query is a batch of one: it runs
:meth:`~repro.core.engine.BatchEngine.run` on one query, the same
pipeline every batch query goes through (the simulation check that
answers a query the network already decides, the group encoding and
:meth:`~repro.core.engine.GroupEncoding.solve_one`, lazy load-balancing
refinement included).

Also implements the one-shot §5 checks — fault invariance (plain and
pairwise), full equivalence and local equivalence.  Each encodes two
network copies, or two isolated routers, over one shared packet and
environment and asserts that something differs between them; all of
them run through one runner, :func:`_check`, and both fault-invariance
forms share one two-copy comparison.  Every check, batch queries
included, maps its solver outcome to a :class:`VerificationResult`
through one helper, :func:`_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.net import ip as iplib
from repro.net.topology import Network
from repro.smt import (
    FALSE,
    Model,
    Solver,
    Term,
    UNKNOWN,
    UNSAT,
    and_,
    iff,
    not_,
    or_,
)
from .counterexample import Counterexample, extract_counterexample
from .encoder import EncodedNetwork, EncoderOptions, NetworkEncoder
from .properties import Property, reach_instrumentation

__all__ = ["Verifier", "VerificationResult", "effective_max_failures"]


def effective_max_failures(prop: Property,
                           max_failures: Optional[int],
                           options: EncoderOptions) -> int:
    """Resolve the failure bound for one query.

    An explicit per-query ``max_failures`` overrides the verifier-level
    ``options.max_failures`` default (so an explicit 0 is expressible);
    ``prop.failures_needed`` wins only when larger than the explicit
    value, since the property cannot be encoded below it.
    """
    if max_failures is not None:
        if max_failures < 0:
            raise ValueError("max_failures must be >= 0")
        return max(max_failures, prop.failures_needed)
    return max(options.max_failures, prop.failures_needed)


def _query_tracer(lane: str = "verify"):
    """The globally installed tracer, or a throwaway local one on
    ``lane``.

    Every query is timed through span objects either way, so result
    statistics are always a view over the same telemetry that feeds
    trace files; the throwaway tracer just never gets exported.
    """
    tracer = obs.active()
    return tracer if tracer.enabled else obs.Tracer(lane=lane)


def _span_stats(seconds: float, shared_seconds: float, sp_query, solves,
                solver: Solver) -> Dict:
    """Result statistics derived from the query's closed spans.

    ``shared_seconds`` is the network-encoding cost attributed to the
    query; ``solves`` holds one ``(verify.solve span, conflicts)`` pair
    per check the query ran (several for the lazy refinement loop).
    """
    return dict(
        seconds=seconds,
        num_variables=solver.num_variables,
        num_clauses=solver.num_clauses,
        encode_seconds=shared_seconds + sp_query.duration,
        encode_shared_seconds=shared_seconds,
        encode_query_seconds=sp_query.duration,
        solve_seconds=sum(sp.duration for sp, _ in solves),
        conflicts=sum(conflicts for _, conflicts in solves))


def _budget_message(solver: Solver) -> str:
    """UNKNOWN diagnostics: this check's own search counters."""
    stats = solver.last_check_stats
    return (f"conflict budget exhausted after {stats['conflicts']} "
            f"conflicts ({stats['decisions']} decisions, "
            f"{stats['propagations']} propagations, "
            f"{stats['restarts']} restarts)")


@dataclass
class VerificationResult:
    """Outcome of one verification query.

    Timing fields are views over the span telemetry recorded while the
    query ran (see :mod:`repro.obs`): ``seconds`` is total wall time and
    ``encode_seconds``/``solve_seconds`` split it into constraint
    generation (network encoding, property instrumentation and CNF
    translation) and SAT search.

    Encoding cost is further split so batch accounting is explicit:
    ``encode_shared_seconds`` is the network-encoding cost attributed to
    this query — the full cost for a standalone :meth:`Verifier.verify`,
    or this query's even share of its group's one-time shared encoding
    in batch mode — and ``encode_query_seconds`` is the cost specific to
    this query (property instrumentation plus its CNF translation).
    ``encode_seconds`` is always their sum, so summing it across a batch
    reflects the real total encoding time without double-counting.
    """

    property_name: str
    holds: Optional[bool]            # None = unknown (budget exhausted)
    counterexample: Optional[Counterexample] = None
    message: str = ""
    seconds: float = 0.0
    num_variables: int = 0
    num_clauses: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    conflicts: int = 0
    encode_shared_seconds: float = 0.0
    encode_query_seconds: float = 0.0
    #: True when the verdict was replayed from a verdict cache (the
    #: query's dependency slice was untouched) instead of solved fresh.
    cached: bool = False
    #: How the verdict was decided: ``"sat"`` (the encoding and the
    #: CDCL search) or ``"simulation"`` (the network fixes the verdict;
    #: see :func:`repro.analysis.stable.fixed_verdict`).  A replayed
    #: verdict keeps the method that first decided it.
    method: str = "sat"

    def __bool__(self) -> bool:
        return bool(self.holds)

    def __repr__(self) -> str:
        status = {True: "HOLDS", False: "VIOLATED", None: "UNKNOWN"}
        text = status[self.holds]
        if self.message:
            text += f": {self.message}"
        if self.cached:
            text += " [cached]"
        return f"<{self.property_name} {text} ({self.seconds * 1e3:.1f} ms)>"


def _result(name: str, outcome, solver: Solver, tracer,
            explain: Callable[[Model], Tuple[Optional[Counterexample], str]],
            unknown_message: Optional[str] = None) -> VerificationResult:
    """The verdict of one check, before its cost statistics are known.

    UNSAT means the property holds and UNKNOWN that the search gave up
    (``unknown_message``, by default the conflict-budget diagnostics).
    SAT reads ``explain(model) -> (counterexample, message)`` off the
    solver's model inside a ``verify.model`` span, so the caller must
    still be inside its root span.
    """
    if outcome is UNSAT:
        return VerificationResult(property_name=name, holds=True)
    if outcome is UNKNOWN:
        return VerificationResult(
            property_name=name, holds=None,
            message=unknown_message or _budget_message(solver))
    with tracer.span("verify.model"):
        counterexample, message = explain(solver.model())
    return VerificationResult(property_name=name, holds=False,
                              counterexample=counterexample,
                              message=message)


def _check(name: str, span: str, attrs: Dict,
           encode: Callable[[], Tuple[Solver, object]],
           instrument: Callable[[Solver, object],
                                Tuple[Term, Callable]]
           ) -> VerificationResult:
    """Run one one-shot check under a root span named ``span``.

    ``encode() -> (solver, state)`` builds the loaded solver (span
    ``verify.encode``); ``instrument(solver, state) -> (term, explain)``
    adds the check's instrumentation and returns the property term,
    asserted with label ``property`` (span ``verify.property``), plus the
    ``explain`` callback :func:`_result` reads a counterexample with.
    The solve runs under ``verify.solve``.
    """
    tracer = _query_tracer()
    root = tracer.span(span, **attrs)
    with root:
        with tracer.span("verify.encode") as sp_shared:
            solver, state = encode()
        with tracer.span("verify.property", property=name) as sp_query:
            term, explain = instrument(solver, state)
            solver.add(term, label="property")
        with tracer.span("verify.solve") as sp_solve:
            outcome = solver.check()
        result = _result(name, outcome, solver, tracer, explain)
    return replace(result, **_span_stats(
        root.duration, sp_shared.duration, sp_query,
        [(sp_solve, solver.last_check_stats["conflicts"])], solver))


class Verifier:
    """Verify §5 properties of a network's configurations.

    With ``preflight=True`` (the default) the syntactic lint rules run
    over the network at construction time: errors (dangling references,
    session mismatches, ...) are surfaced as a
    :class:`~repro.analysis.ConfigAnalysisWarning` — or, with
    ``strict=True``, raise :class:`~repro.analysis.AnalysisError` before
    any formula is built, since such defects silently skew verification
    results.  The report is kept on ``preflight_report``.
    """

    def __init__(self, network: Network,
                 options: Optional[EncoderOptions] = None,
                 conflict_budget: Optional[int] = None,
                 preflight: bool = True,
                 strict: bool = False) -> None:
        self.network = network
        self.options = options or EncoderOptions()
        self.conflict_budget = conflict_budget
        self.preflight_report = None
        if preflight or strict:
            self.preflight_report = self._preflight(strict)

    def _preflight(self, strict: bool):
        import warnings as _warnings

        from repro.analysis import (
            AnalysisError,
            ConfigAnalysisWarning,
            Severity,
        )
        from repro.analysis.engine import analyze_network

        # Syntactic rules only: the SMT-backed shadow checks are opt-in
        # via the analyze CLI — construction must stay cheap.
        with obs.span("analysis.preflight", strict=strict) as sp:
            report = analyze_network(self.network, smt=False)
            sp.set(diagnostics=len(report.diagnostics))
        errors = report.count(Severity.ERROR)
        if errors and strict:
            raise AnalysisError(report)
        if errors or report.count(Severity.WARNING):
            worst = report.max_severity
            _warnings.warn(
                f"configuration analysis found "
                f"{len(report.diagnostics)} issue(s), worst: {worst} "
                f"(see Verifier.preflight_report)",
                ConfigAnalysisWarning, stacklevel=3)
        return report

    # ------------------------------------------------------------------

    def verify(self, prop: Property,
               max_failures: Optional[int] = None,
               assumptions: Sequence = ()) -> VerificationResult:
        """Check a property over all stable states (and, with
        ``max_failures=k``, all environments with at most k link failures
        — the §5 fault-tolerance form).

        ``assumptions`` are callables ``enc -> Term`` restricting the
        environments considered (e.g. :func:`announces` to require that
        some external peer advertises the destination).

        An explicit ``max_failures`` wins over the verifier's configured
        ``options.max_failures`` (so ``max_failures=0`` expresses a
        zero-failure query on a verifier configured with a failure
        bound); ``prop.failures_needed`` still raises the bound when the
        property structurally requires more failures than requested.
        """
        from .engine import BatchEngine, BatchQuery

        tracer = _query_tracer()
        k = effective_max_failures(prop, max_failures, self.options)
        root = tracer.span("verify", property=type(prop).__name__,
                           max_failures=k)
        with root:
            [result] = BatchEngine(
                self.network, options=self.options,
                conflict_budget=self.conflict_budget,
            ).run([BatchQuery(prop=prop, max_failures=max_failures,
                              assumptions=tuple(assumptions))])
        result.seconds = root.duration
        return result

    def verify_batch(self, queries: Sequence,
                     workers: int = 1) -> List[VerificationResult]:
        """Verify many queries, exploiting cross-query sharing.

        ``queries`` is a sequence of :class:`Property` instances or
        :class:`repro.core.engine.BatchQuery` objects (which add a
        per-query failure bound, assumptions and a label).  The network
        is encoded once, at the largest effective failure bound among
        the queries, and every property is discharged via
        assumption-based incremental checks: a smaller bound k is one
        more assumption, "at most k links fail", and so is the query's
        destination prefix.  With ``workers > 1`` the distinct prefixes
        are dealt into at most ``workers`` groups, one encoding each,
        run in a process pool; results always come back in query order,
        identical to per-query :meth:`verify` answers.

        Verdict and encoding caches are :class:`BatchEngine` arguments
        (the serve registry and differential verification pass them).
        """
        from .engine import BatchEngine

        return BatchEngine(self.network, options=self.options,
                           conflict_budget=self.conflict_budget,
                           workers=workers).run(queries)

    # ------------------------------------------------------------------
    # Fault-invariance (§5): P holds with no failures iff it holds with k
    # ------------------------------------------------------------------

    def verify_fault_invariance(self, prop: Property,
                                k: int = 1) -> VerificationResult:
        """Check that ``prop`` holds in the failure-free network exactly
        when it holds under any ``k`` failures (two encoding copies with a
        shared environment)."""
        name = f"FaultInvariance[{type(prop).__name__}, k={k}]"
        return self._compare_under_failures(
            name, "verify.fault_invariance", k,
            replace(self.options, max_failures=k), prop.dst_prefix(),
            lambda enc, tag: {name: prop.encode(enc)},
            "behaviour differs when links {failed} fail")

    def verify_pairwise_fault_invariance(self, k: int = 1,
                                         dest_prefix: Optional[str] = None,
                                         ) -> VerificationResult:
        """All router pairs are reachable exactly when they are reachable
        after any single failure (the paper's fourth real-network check,
        §8.1).

        One query: reach bits are instrumented in both copies and required
        to agree for every source.
        """
        # Failures range over internal links: an external session flap
        # changes the environment, not the network, and both copies
        # share one environment (matching the paper's zero-violation
        # finding).
        return self._compare_under_failures(
            f"PairwiseFaultInvariance[k={k}]",
            "verify.pairwise_fault_invariance", k,
            replace(self.options, max_failures=k, fail_external=False),
            iplib.parse_prefix(dest_prefix) if dest_prefix else None,
            lambda enc, tag: reach_instrumentation(
                enc, {r: enc.local_deliver.get(r, FALSE)
                      for r in enc.routers()}, tag=tag),
            "reachability of {diff} changes under failure")

    def _compare_under_failures(
            self, name: str, span: str, k: int, failing: EncoderOptions,
            dst_prefix, observe: Callable[[EncodedNetwork, str],
                                          Dict[str, Term]],
            message: str) -> VerificationResult:
        """The two-copy fault-invariance comparison: a failure-free copy
        and a copy encoded with ``failing``, over one packet and one
        environment, differ on some key of their observations
        ``observe(enc, tag) -> {key: term}``.  ``message`` is formatted
        with the links that failed (``failed``) and the keys that
        differ (``diff``)."""
        base = replace(self.options, max_failures=0)

        def encode():
            enc0 = NetworkEncoder(self.network, base).encode(
                dst_prefix, ns="c0.")
            enc1 = NetworkEncoder(self.network, failing).encode(
                dst_prefix, ns="c1.")
            solver = self._load_copies(enc0, enc1)
            return solver, (enc0, enc1)

        def instrument(solver, copies):
            enc0, enc1 = copies
            mark0, mark1 = enc0.checkpoint(), enc1.checkpoint()
            obs0, obs1 = observe(enc0, "fi0"), observe(enc1, "fi1")
            solver.add(*enc0.constraints_since(mark0),
                       label="instrumentation")
            solver.add(*enc1.constraints_since(mark1),
                       label="instrumentation")

            def explain(model):
                failed = [key for key, term in enc1.failed.items()
                          if model.eval(term)]
                failed += [key for key, term in enc1.failed_ext.items()
                           if model.eval(term)]
                diff = [key for key in obs0
                        if model.eval(obs0[key]) != model.eval(obs1[key])]
                return (extract_counterexample(enc1, model),
                        message.format(failed=failed, diff=diff))

            return or_(*[not_(iff(obs0[key], obs1[key]))
                         for key in obs0]), explain

        return _check(name, span, {"property": name, "k": k}, encode,
                      instrument)

    # ------------------------------------------------------------------
    # Local equivalence (§5): isolated routers on symbolic inputs
    # ------------------------------------------------------------------

    def verify_local_equivalence(self, router_a: str, router_b: str,
                                 iface_pairing: str = "sorted",
                                 ) -> VerificationResult:
        """Do two routers make identical decisions given identical
        environments?  Encodes each router in isolation with shared
        symbolic session inputs and a shared symbolic packet, then compares
        forwarding decisions and exports pairwise (paper §5).

        ``iface_pairing="by-name"`` restricts the ACL comparison to
        same-named interfaces (role checks over asymmetric topologies).
        """
        from .equivalence import check_local_equivalence

        return check_local_equivalence(
            self.network, router_a, router_b,
            options=self.options, conflict_budget=self.conflict_budget,
            iface_pairing=iface_pairing)

    # ------------------------------------------------------------------
    # Full equivalence of two networks (§5)
    # ------------------------------------------------------------------

    def verify_full_equivalence(self, other: Network,
                                ) -> VerificationResult:
        """Are two whole networks behaviourally equivalent?  External
        peers are paired by name; all data-plane forwarding decisions and
        exports to externals must agree."""
        def encode():
            enc_a = NetworkEncoder(self.network, self.options).encode(ns="A.")
            enc_b = NetworkEncoder(other, self.options).encode(ns="B.")
            return self._load_copies(enc_a, enc_b), (enc_a, enc_b)

        def instrument(solver, copies):
            enc_a, enc_b = copies
            # Sorted, so term ids (and the search) never follow the
            # string-hash order.
            differences: List[Term] = [
                not_(iff(enc_a.data_fwd(*key), enc_b.data_fwd(*key)))
                for key in sorted(set(enc_a.fwd) | set(enc_b.fwd))]
            for key in sorted(set(enc_a.export_to_ext)
                              & set(enc_b.export_to_ext)):
                differences.append(not_(and_(*enc_a.factory.equate(
                    enc_a.export_to_ext[key], enc_b.export_to_ext[key]))))
            return (or_(*differences) if differences else FALSE,
                    lambda model: (
                        extract_counterexample(enc_a, model),
                        "networks diverge on some packet/environment"))

        return _check("FullEquivalence", "verify.full_equivalence", {},
                      encode, instrument)

    # ------------------------------------------------------------------

    def _load_copies(self, enc_a: EncodedNetwork,
                     enc_b: EncodedNetwork) -> Solver:
        """A fresh solver loaded with two encoding copies that see the
        same packet and the same external announcements."""
        solver = Solver(conflict_budget=self.conflict_budget,
                        preprocess=self.options.preprocess)
        solver.add(*enc_a.constraints, label="network")
        solver.add(*enc_b.constraints, label="network")
        solver.add(*_equate_packets(enc_a, enc_b), label="property")
        solver.add(*_equate_environments(enc_a, enc_b), label="property")
        return solver


def _equate_packets(a: EncodedNetwork, b: EncodedNetwork) -> List[Term]:
    from repro.smt import eq

    out = [eq(a.packet.dst_ip, b.packet.dst_ip)]
    for fa, fb in ((a.packet.src_ip, b.packet.src_ip),
                   (a.packet.protocol, b.packet.protocol),
                   (a.packet.dst_port, b.packet.dst_port),
                   (a.packet.src_port, b.packet.src_port)):
        if fa.kind != "bvval" or fb.kind != "bvval":
            if fa.sort == fb.sort:
                out.append(eq(fa, fb))
    return out


def _equate_environments(a: EncodedNetwork,
                         b: EncodedNetwork) -> List[Term]:
    out: List[Term] = []
    for peer, rec_a in a.env.items():
        rec_b = b.env.get(peer)
        if rec_b is not None:
            out.extend(a.factory.equate(rec_a, rec_b))
    return out
