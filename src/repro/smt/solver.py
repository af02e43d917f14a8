"""User-facing SMT solver facade.

Couples the term language, bit-blaster, Tseitin transform and CDCL core into
a small Z3-like API::

    s = Solver()
    s.add(eq(x, bv_val(3, 8)))
    if s.check() == SAT:
        print(s.model().eval(x))

Checks are incremental in the clause-adding sense: terms asserted after a
``check`` extend the same CNF (the CDCL core supports adding clauses between
calls), which the lazy load-balancing refinement loop relies on.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from .bitblast import Blaster
from .evaluator import evaluate
from .sat import SatSolver
from .sat.preprocess import MIN_CLAUSES, Preprocessor
from .terms import Term
from .tseitin import CnfBuilder

__all__ = ["Solver", "Model", "Result", "SAT", "UNSAT", "UNKNOWN"]


class Result:
    """Tri-state check outcome, compares equal to itself only.

    Truthiness is deliberately partial: ``bool(SAT)`` is True and
    ``bool(UNSAT)`` is False, but ``bool(UNKNOWN)`` raises — a
    budget-exhausted check is not evidence of anything, and treating it
    as falsy silently conflates "no violation found" with "gave up".
    Compare outcomes with ``is SAT`` / ``is UNSAT`` / ``is UNKNOWN``.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        if self.name == "unknown":
            raise TypeError(
                "UNKNOWN check result has no truth value; compare with "
                "`is SAT` / `is UNSAT` / `is UNKNOWN` instead of bool()")
        return self.name == "sat"


_gc_lock = threading.Lock()
_gc_depth = 0
_gc_owned = False


@contextmanager
def _gc_paused():
    """Keep the cycle collector off while CNF and SAT state are built.

    Bit-blasting, Tseitin, clause loading and preprocessing allocate
    hundreds of thousands of small lists and tuples, none of them in a
    reference cycle; every collection triggered meanwhile rescans the
    whole (growing) heap for nothing.  The collector is process state,
    so nested regions and overlapping regions in other threads share
    one module-level count; collection comes back when the last region
    exits, and only if the first one turned it off.
    """
    global _gc_depth, _gc_owned
    with _gc_lock:
        if _gc_depth == 0:
            _gc_owned = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_owned:
                _gc_owned = False
                gc.enable()


SAT = Result("sat")
UNSAT = Result("unsat")
UNKNOWN = Result("unknown")


class Model:
    """A satisfying assignment, queried by variable or by term."""

    def __init__(self, env: Dict[str, Union[bool, int]]) -> None:
        self._env = env

    def value(self, name: str, default=None):
        """Raw value of a named variable (bool or int), or ``default``."""
        return self._env.get(name, default)

    def eval(self, term: Term) -> Union[bool, int]:
        """Evaluate an arbitrary term under this model."""
        return evaluate(term, self._env)

    def env(self) -> Dict[str, Union[bool, int]]:
        """A copy of the raw name → value map (only constrained vars)."""
        return dict(self._env)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._env.items()))
        return f"<Model {items}>"


class Solver:
    """Assert terms, check satisfiability, extract models.

    Args:
        conflict_budget: optional per-check CDCL conflict cap; exceeded
            checks return :data:`UNKNOWN`.
        preprocess: run the SatELite-style CNF simplification pipeline
            (subsumption, self-subsuming resolution, pure-literal and
            bounded variable elimination) before search.  The facade
            freezes every assumption literal, and the solver's
            reconstruction stack rebuilds eliminated variables for
            model extraction, so results and models are identical
            with it on or off.
    """

    def __init__(self, conflict_budget: Optional[int] = None,
                 preprocess: bool = True) -> None:
        self._blaster = Blaster()
        self._cnf = CnfBuilder()
        self._sat = SatSolver()
        self._sat.preprocess_enabled = preprocess
        self.preprocess = preprocess
        self._num_clauses_loaded = 0
        self._assertions: List[Term] = []
        # Assumption terms keep their definitional literal across checks so
        # repeated assumption-based checks (the batch engine's pattern)
        # don't re-blast or re-emit gate clauses per call.
        self._assumption_lit_cache: Dict[int, int] = {}
        self.conflict_budget = conflict_budget
        self.last_check_seconds = 0.0
        # This check's own CDCL counters (conflicts, decisions,
        # propagations, restarts), not the solver's lifetime totals —
        # the data behind the diagnostics of an UNKNOWN answer.
        self.last_check_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def add(self, *terms: Term, label: str = "") -> None:
        """Assert one or more boolean terms.

        ``label`` attributes the CNF growth (variables/clauses) of this
        batch of assertions to a pipeline module — ``network``,
        ``property``, ``instrumentation``, ... — in the telemetry layer.
        """
        with obs.span("smt.add", module=label, terms=len(terms)) as sp:
            vars_before = self._cnf.num_vars
            clauses_before = self._cnf.num_clauses
            with _gc_paused():
                for term in terms:
                    if not term.is_bool:
                        raise TypeError("assertions must be boolean terms")
                    self._assertions.append(term)
                    blasted = self._blaster.blast(term)
                    self._cnf.assert_term(blasted)
            dv = self._cnf.num_vars - vars_before
            dc = self._cnf.num_clauses - clauses_before
            sp.set(vars=dv, clauses=dc)
            if dv or dc:
                metrics = obs.metrics()
                metrics.counter("cnf.vars",
                                module=label or "unattributed").inc(dv)
                metrics.counter("cnf.clauses",
                                module=label or "unattributed").inc(dc)

    def assertions(self) -> List[Term]:
        return list(self._assertions)

    def check(self, assumptions: Sequence[Term] = ()) -> Result:
        """Solve the current assertions (optionally under assumptions).

        Assumptions hold for this call only: the solver stays reusable for
        later checks with different (or no) assumptions, and clauses added
        between checks extend the same CNF incrementally.  Each assumption
        term is mapped to a definitional literal emitted for both
        polarities (it may be assumed either way across calls); the
        mapping is cached per term so repeated batch checks are cheap.
        """
        sat = self._sat
        with _gc_paused():
            with obs.span("smt.assume", terms=len(assumptions)):
                assumption_lits = []
                for term in assumptions:
                    lit = self._assumption_lit_cache.get(term.tid)
                    if lit is None:
                        blasted = self._blaster.blast(term)
                        lit = self._cnf.literal_for(blasted)
                        self._assumption_lit_cache[term.tid] = lit
                    assumption_lits.append(lit)
            with obs.span("sat.load") as sp_load:
                loaded_from = self._num_clauses_loaded
                loaded = self._load_clauses()
                sp_load.set(clauses=self._num_clauses_loaded - loaded_from)
            if self.preprocess:
                # Freeze everything the outside world may still
                # reference, then run the (once-only) simplification
                # pipeline under its own span so per-technique
                # reductions are attributable.
                self._freeze_protected(assumption_lits)
                with obs.span("sat.preprocess") as sp_pp:
                    before_pp = sat.stats()
                    sat.simplify(loaded=loaded)
                    self._record_preprocess(sp_pp, before_pp, sat.stats())
        with obs.span("sat.solve", assumptions=len(assumption_lits)) as sp:
            before = sat.stats()
            start = time.perf_counter()
            outcome = sat.solve(assumption_lits,
                                conflict_budget=self.conflict_budget)
            self.last_check_seconds = time.perf_counter() - start
            after = sat.stats()
            delta = self.last_check_stats = {
                key: after[key] - before[key]
                for key in ("conflicts", "decisions", "propagations",
                            "restarts")}
            result = (UNKNOWN if outcome is None
                      else SAT if outcome else UNSAT)
            sp.set(outcome=result.name, **delta)
            metrics = obs.metrics()
            if metrics.enabled:
                for key in ("conflicts", "decisions", "propagations",
                            "restarts", "learned_deleted"):
                    metrics.counter(f"sat.{key}").inc(after[key]
                                                      - before[key])
                metrics.gauge("sat.learned").set(after["learned"])
                metrics.histogram("sat.solve_seconds").observe(
                    self.last_check_seconds)
        return result

    def model(self) -> Model:
        """Model of the most recent :data:`SAT` check."""
        env: Dict[str, Union[bool, int]] = {}
        bv_parts: Dict[str, int] = {}
        for var, leaf in self._cnf.leaf_of_var.items():
            val = self._sat.model_value(var)
            if leaf.kind == "boolvar":
                env[leaf.payload] = val
            else:  # bit(bvvar, i)
                name = leaf.args[0].payload
                if val:
                    bv_parts[name] = (bv_parts.get(name, 0)
                                      | (1 << leaf.payload))
                else:
                    bv_parts.setdefault(name, 0)
        env.update(bv_parts)
        return Model(env)

    # ------------------------------------------------------------------
    # Introspection used by benchmarks and tests
    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._cnf.num_vars

    @property
    def num_clauses(self) -> int:
        return self._cnf.num_clauses

    @property
    def stats(self) -> Dict[str, int]:
        out = {"vars": self._cnf.num_vars,
               "clauses": self._cnf.num_clauses}
        out.update(self._sat.stats())
        return out

    def _load_clauses(self) -> Optional[Preprocessor]:
        """Hand the CNF buffer to the SAT core and drop it.

        The first load of a preprocessing solver, if it has at least
        ``MIN_CLAUSES`` clauses, skips the arena: it becomes the
        preprocessor's working set, returned for
        :meth:`SatSolver.simplify` to preprocess and install once the
        caller has frozen the assumption variables.  Every other load
        goes clause by clause through ``add_clause``.  Either way a
        clause's only copy is in the SAT core once it is loaded.
        """
        cnf = self._cnf
        sat = self._sat
        sat.ensure_vars(cnf.num_vars)
        clauses = cnf.clauses
        cnf.clauses = []
        first = self._num_clauses_loaded == 0
        self._num_clauses_loaded += len(clauses)
        if self.preprocess and first and len(clauses) >= MIN_CLAUSES:
            loaded = Preprocessor(sat)
            loaded.load(clauses)
            return loaded
        add_clause = sat.add_clause
        for clause in clauses:
            add_clause(clause)
        return None

    # ------------------------------------------------------------------
    # CNF preprocessing plumbing
    # ------------------------------------------------------------------

    def _freeze_protected(self, assumption_lits: Sequence[int]) -> None:
        """Freeze the SAT variables the preprocessor must not touch.

        Only assumption literals need freezing — that covers the batch
        engine's activation literals, which arrive here as assumptions.
        Model-readable variables (the CNF leaves) do *not* need it: the
        solver's reconstruction stack answers ``model_value`` exactly
        for eliminated variables, and clauses or assumptions that later
        mention one transparently restore it.  Leaving leaves free is
        what lets elimination reach the encoder's single-use
        definitional gates.
        """
        sat = self._sat
        for lit in assumption_lits:
            sat.freeze(abs(lit))

    @staticmethod
    def _record_preprocess(sp, before: Dict[str, int],
                           after: Dict[str, int]) -> None:
        sp.set(runs=after["pp_runs"] - before["pp_runs"],
               live_clauses=after["live_clauses"],
               removed=(after["pp_removed_clauses"]
                        - before["pp_removed_clauses"]),
               subsumed=after["pp_subsumed"] - before["pp_subsumed"],
               strengthened=(after["pp_strengthened"]
                             - before["pp_strengthened"]),
               eliminated=(after["pp_eliminated_vars"]
                           - before["pp_eliminated_vars"]),
               pure=(after["pp_pure_literals"]
                     - before["pp_pure_literals"]))
        metrics = obs.metrics()
        if metrics.enabled and after["pp_runs"] > before["pp_runs"]:
            for key in ("pp_units", "pp_pure_literals", "pp_subsumed",
                        "pp_strengthened", "pp_eliminated_vars",
                        "pp_resolvents", "pp_removed_clauses"):
                metrics.counter(f"sat.{key}").inc(after[key] - before[key])
            metrics.gauge("sat.live_clauses").set(after["live_clauses"])

    def run_preprocess(self) -> Dict[str, int]:
        """Force one preprocessing run now; returns per-technique deltas.

        Loads any pending clauses, freezes the protected variables and
        runs the pipeline unconditionally (bypassing the once rule).
        Used by benchmarks and tests to measure clause reduction without
        a full :meth:`check`.  ``live_clauses_before`` counts the
        clauses the pipeline started from: the arena's, or a first
        load's working set as converted.
        """
        sat = self._sat
        with _gc_paused(), obs.span("sat.preprocess", forced=True) as sp_pp:
            loaded = self._load_clauses()
            self._freeze_protected(())
            before = sat.stats()
            if loaded is not None:
                before["live_clauses"] = len(loaded.clauses)
            sat.simplify(force=True, loaded=loaded)
            after = sat.stats()
            self._record_preprocess(sp_pp, before, after)
        delta = {key: after[key] - before[key]
                 for key in after if key.startswith("pp_")}
        delta["live_clauses_before"] = before["live_clauses"]
        delta["live_clauses_after"] = after["live_clauses"]
        return delta
