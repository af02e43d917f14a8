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

The relational §5 checks (fault invariance, full equivalence) are
two-copy properties run the same way; local equivalence compares two
isolated routers in :mod:`repro.core.equivalence`.  Every check maps
its solver outcome to a :class:`VerificationResult` through
:func:`_result`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.net.topology import Network
from repro.smt import Model, Solver, UNKNOWN, UNSAT
from . import properties as P
from .counterexample import Counterexample
from .encoder import EncoderOptions
from .properties import Property

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
        return self._verify_one(prop, max_failures, tuple(assumptions))

    def _verify_one(self, prop: Property, max_failures: Optional[int],
                    assumptions: Tuple = (),
                    label: Optional[str] = None) -> VerificationResult:
        """One query as a batch of one; its root ``verify`` span's
        duration is the result's ``seconds``."""
        from .engine import BatchEngine, BatchQuery

        tracer = _query_tracer()
        k = effective_max_failures(prop, max_failures, self.options)
        root = tracer.span("verify", property=type(prop).__name__,
                           max_failures=k)
        with root:
            [result] = BatchEngine(
                self.network, options=self.options,
                conflict_budget=self.conflict_budget,
            ).run([BatchQuery(prop, max_failures, assumptions, label)])
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
        are dealt into at most ``workers`` slots, one encoding per slot
        and copy layout, run in a process pool; results always come
        back in query order, identical to per-query :meth:`verify`
        answers.

        Verdict and encoding caches are :class:`BatchEngine` arguments
        (the serve registry and differential verification pass them).
        """
        from .engine import BatchEngine

        return BatchEngine(self.network, options=self.options,
                           conflict_budget=self.conflict_budget,
                           workers=workers).run(queries)

    # ------------------------------------------------------------------
    # The §5 relational checks: one-query runs at failure bound k
    # ------------------------------------------------------------------

    def verify_fault_invariance(self, prop: Property,
                                k: int = 1) -> VerificationResult:
        """Check that ``prop`` holds in the failure-free network exactly
        when it holds under any ``k`` failures (two encoding copies with a
        shared environment)."""
        return self._verify_one(
            P.FaultInvariance(prop, k), k,
            label=f"FaultInvariance[{type(prop).__name__}, k={k}]")

    def verify_pairwise_fault_invariance(self, k: int = 1,
                                         dest_prefix: Optional[str] = None,
                                         ) -> VerificationResult:
        """All router pairs are reachable exactly when they are reachable
        after any ``k`` internal link failures (the paper's fourth
        real-network check, §8.1): reach bits are instrumented in both
        copies and required to agree for every source."""
        return self._verify_one(P.PairwiseFaultInvariance(k, dest_prefix),
                                k, label=f"PairwiseFaultInvariance[k={k}]")

    def verify_full_equivalence(self, other: Network,
                                ) -> VerificationResult:
        """Are two whole networks behaviourally equivalent?  External
        peers are paired by name; all data-plane forwarding decisions and
        exports to externals must agree."""
        return self._verify_one(P.FullEquivalence(other),
                                self.options.max_failures,
                                label="FullEquivalence")

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
