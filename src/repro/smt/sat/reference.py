"""The list-based CDCL core, kept as a differential baseline.

This is the pre-arena representation of :class:`~.solver.SatSolver`:
clauses are Python lists of internal literals, watch lists hold
``[clause, blocker]`` pair objects, and clause activities live in a side
table keyed by ``id(clause)``.  The arena solver in :mod:`.solver` must
perform the *same operations in the same order* as this class — the
randomized differential suite asserts equal verdicts, models and
conflict/decision/propagation counters between the two.

Both solvers expose the same accessor contract consumed by
:mod:`.preprocess` (``clause_lists`` / ``learnt_lists`` /
``install_clauses``), so one preprocessing implementation serves both
representations.  See docs/SOLVER.md for the contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .lits import ensure_lits
from .preprocess import (
    INPROCESS_MIN_UNITS,
    MIN_CLAUSES,
    Preprocessor,
    extend_model,
    root_simplify,
    stored_clauses,
)
from .solver import _UNDEF, _luby_sequence, _VarOrder

__all__ = ["ReferenceSatSolver"]


class ReferenceSatSolver:
    """CDCL solver over variables numbered from 1 (DIMACS convention)."""

    def __init__(self) -> None:
        self.num_vars = 0
        self._assign: List[int] = []      # per var: 0 false, 1 true, -1 undef
        self._level: List[int] = []       # per var: decision level
        self._reason: List[Optional[list]] = []
        self._phase: List[int] = []       # saved phase per var (0/1)
        self._activity: List[float] = []
        self._var_inc = 1.0
        # watches[lit]: clauses to inspect when ``lit`` becomes true
        # (i.e. clauses watching ``lit ^ 1``), as [clause, blocker] pairs.
        self._watches: List[List[list]] = [[], []]
        # binary[lit]: (implied, clause) pairs — two-literal clauses get a
        # dedicated implication list and never move watches.
        self._binary: List[List[tuple]] = [[], []]
        self._clauses: List[list] = []    # problem clauses
        self._learnts: List[list] = []
        self._cla_inc = 1.0
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order = _VarOrder(self._activity)
        self._unsat = False
        self._seen: List[int] = []
        self._clause_act: dict = {}
        # --- preprocessing state (see preprocess.py) -------------------
        self.preprocess_enabled = False
        self._frozen: Set[int] = set()        # internal var indices
        self._eliminated: Set[int] = set()
        self._elim_clauses: Dict[int, bytes] = {}
        self._reconstruction: List[int] = []
        self._model: Optional[List[int]] = None
        self._last_root_size = 0
        # Statistics (exposed for benchmarks and tests).
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_deleted = 0
        self.pp_runs = 0
        self.pp_units = 0
        self.pp_pure_literals = 0
        self.pp_subsumed = 0
        self.pp_strengthened = 0
        self.pp_eliminated_vars = 0
        self.pp_resolvents = 0
        self.pp_removed_clauses = 0
        self.pp_restored_vars = 0
        self.inprocess_runs = 0
        self.inprocess_removed = 0

    def stats(self) -> Dict[str, int]:
        """Snapshot of the search and preprocessing counters."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": len(self._learnts),
            "learned_deleted": self.learned_deleted,
            "live_clauses": len(self._clauses),
            "eliminated": len(self._eliminated),
            "pp_runs": self.pp_runs,
            "pp_units": self.pp_units,
            "pp_pure_literals": self.pp_pure_literals,
            "pp_subsumed": self.pp_subsumed,
            "pp_strengthened": self.pp_strengthened,
            "pp_eliminated_vars": self.pp_eliminated_vars,
            "pp_resolvents": self.pp_resolvents,
            "pp_removed_clauses": self.pp_removed_clauses,
            "pp_restored_vars": self.pp_restored_vars,
            "inprocess_runs": self.inprocess_runs,
            "inprocess_removed": self.inprocess_removed,
        }

    # ------------------------------------------------------------------
    # Variables and clauses
    # ------------------------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        """Grow the variable pool so DIMACS vars ``1..n`` are usable."""
        ensure_lits(n)
        while self.num_vars < n:
            self.num_vars += 1
            self._assign.append(_UNDEF)
            self._level.append(0)
            self._reason.append(None)
            self._phase.append(0)
            self._activity.append(0.0)
            self._seen.append(0)
            self._watches.append([])
            self._watches.append([])
            self._binary.append([])
            self._binary.append([])
            self._order.grow(self.num_vars - 1)
            self._order.push(self.num_vars - 1)

    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals).  Returns False iff now trivially
        unsatisfiable.  May be called between :meth:`solve` calls."""
        if self._unsat:
            return False
        self._cancel_until(0)
        dimacs = list(dimacs_lits)
        if self._eliminated:
            for dl in dimacs:
                internal = abs(dl) - 1
                if internal in self._eliminated:
                    self._restore(internal)
            if self._unsat:
                return False
        lits = []
        seen = set()
        for dl in dimacs:
            var = abs(dl)
            self.ensure_vars(var)
            lit = (var - 1) * 2 + (0 if dl > 0 else 1)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self._lit_value(lit)
            if val == 1 and self._level[lit >> 1] == 0:
                return True  # already satisfied at root
            if val == 0 and self._level[lit >> 1] == 0:
                continue  # falsified at root; drop literal
            seen.add(lit)
            lits.append(lit)
        if not lits:
            self._unsat = True
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self._unsat = True
                return False
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        self._attach(lits)
        self._clauses.append(lits)
        return True

    def _attach(self, clause: list) -> None:
        if len(clause) == 2:
            a, b = clause
            self._binary[a ^ 1].append((b, clause))
            self._binary[b ^ 1].append((a, clause))
            return
        self._watches[clause[0] ^ 1].append([clause, clause[1]])
        self._watches[clause[1] ^ 1].append([clause, clause[0]])

    # ------------------------------------------------------------------
    # Preprocessing interface (accessor contract — see docs/SOLVER.md)
    # ------------------------------------------------------------------

    def clause_lists(self) -> List[List[int]]:
        """Live problem clauses as lists of internal literals."""
        return self._clauses

    def learnt_lists(self) -> List[Tuple[List[int], Optional[float]]]:
        """Live learnt clauses with their activities (None if unbumped)."""
        act = self._clause_act
        return [(clause, act.get(id(clause))) for clause in self._learnts]

    def install_clauses(self, problem: List[List[int]],
                        learnts: List[Tuple[List[int], Optional[float]]],
                        ) -> None:
        """Replace the clause database wholesale and rebuild the watches.

        Root-level only.  Clears propagation state (``qhead`` back to 0,
        trail reasons dropped) so the caller's root trail re-propagates
        through the new structures.  Clause activities not carried in
        ``learnts`` are discarded — which also drops any stale entries
        keyed by dead clauses, keeping later DB reductions deterministic.
        """
        self._clauses = problem
        self._learnts = [lits for lits, _ in learnts]
        self._clause_act = {id(lits): activity
                            for lits, activity in learnts
                            if activity is not None}
        size = 2 * self.num_vars + 2
        self._watches = [[] for _ in range(size)]
        self._binary = [[] for _ in range(size)]
        for clause in self._clauses:
            self._attach(clause)
        for clause in self._learnts:
            self._attach(clause)
        self._qhead = 0
        for lit in self._trail:
            self._reason[lit >> 1] = None

    def freeze(self, dimacs_var: int) -> None:
        """Protect a variable from elimination by the preprocessor."""
        self.ensure_vars(dimacs_var)
        var = dimacs_var - 1
        self._frozen.add(var)
        if var in self._eliminated:
            self._restore(var)

    def _restore(self, var: int) -> None:
        worklist = [var]
        while worklist:
            v = worklist.pop()
            if v not in self._eliminated:
                continue
            self._eliminated.discard(v)
            self.pp_restored_vars += 1
            self._order.push(v)
            for clause in stored_clauses(self._elim_clauses.pop(v, b"")):
                for lit in clause:
                    other = lit >> 1
                    if other in self._eliminated:
                        worklist.append(other)
                self._add_internal(clause)
        if not self._unsat and self._propagate() is not None:
            self._unsat = True

    def _add_internal(self, lits: Sequence[int]) -> None:
        if self._unsat:
            return
        out = []
        for lit in lits:
            val = self._lit_value(lit)
            if val == 1:
                return  # satisfied at root
            if val == 0:
                continue
            out.append(lit)
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._unsat = True
            return
        self._attach(out)
        self._clauses.append(out)

    def simplify(self, force: bool = False,
                 loaded: Optional[Preprocessor] = None) -> bool:
        """Run the preprocessing pipeline at the root level, once."""
        if self._unsat:
            return False
        if loaded is not None:
            return loaded.run()
        if not self._clauses and not self._learnts:
            return True
        if not force and (self.pp_runs
                          or len(self._clauses) < MIN_CLAUSES):
            return True
        return Preprocessor(self).run()

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        v = self._assign[lit >> 1]
        if v == _UNDEF:
            return _UNDEF
        return v ^ (lit & 1)

    def _enqueue(self, lit: int, reason: Optional[list]) -> bool:
        val = self._lit_value(lit)
        if val != _UNDEF:
            return val == 1
        var = lit >> 1
        self._assign[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        phase = self._phase
        order = self._order
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            var = lit >> 1
            phase[var] = assign[var]
            assign[var] = _UNDEF
            self._reason[var] = None
            order.push(var)
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # VSIDS order
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        order = self._order
        assign = self._assign
        eliminated = self._eliminated
        while order:
            var = order.pop()
            if assign[var] == _UNDEF and var not in eliminated:
                return var
        return _UNDEF

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            inv = 1e-100
            for i in range(self.num_vars):
                self._activity[i] *= inv
            self._var_inc *= inv
        self._order.bump(var)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[list]:
        """Unit propagation; returns a conflicting clause or None."""
        watches = self._watches
        binary = self._binary
        assign = self._assign
        trail = self._trail
        level = self._level
        reason = self._reason
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            self.propagations += 1
            level_now = len(self._trail_lim)
            # Binary implications first (cheap, cache-friendly).
            for implied, clause in binary[lit]:
                var = implied >> 1
                value = assign[var]
                if value == _UNDEF:
                    assign[var] = 1 - (implied & 1)
                    level[var] = level_now
                    reason[var] = clause
                    trail.append(implied)
                elif (value ^ (implied & 1)) == 0:
                    self._qhead = len(trail)
                    return clause
            false_lit = lit ^ 1
            watch_list = watches[lit]
            i = 0
            j = 0
            n = len(watch_list)
            while i < n:
                entry = watch_list[i]
                i += 1
                blocker = entry[1]
                vb = assign[blocker >> 1]
                if vb != _UNDEF and (vb ^ (blocker & 1)) == 1:
                    watch_list[j] = entry
                    j += 1
                    continue
                clause = entry[0]
                # Normalize: the false literal goes to slot 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                v0 = assign[first >> 1]
                if v0 != _UNDEF and (v0 ^ (first & 1)) == 1:
                    entry[1] = first
                    watch_list[j] = entry
                    j += 1
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    vk = assign[lk >> 1]
                    if vk == _UNDEF or (vk ^ (lk & 1)) == 1:
                        clause[1] = lk
                        clause[k] = false_lit
                        entry[1] = first
                        watches[lk ^ 1].append(entry)
                        found = True
                        break
                if found:
                    continue
                entry[1] = first
                watch_list[j] = entry
                j += 1
                if v0 != _UNDEF:  # first is false: conflict
                    while i < n:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                    del watch_list[j:]
                    self._qhead = len(trail)
                    return clause
                # Unit: enqueue first.
                var = first >> 1
                assign[var] = 1 - (first & 1)
                level[var] = level_now
                reason[var] = clause
                trail.append(first)
            del watch_list[j:]
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: list) -> tuple:
        """First-UIP learning.  Returns (learnt_clause, backtrack_level)."""
        seen = self._seen
        trail = self._trail
        level = self._level
        cur_level = len(self._trail_lim)
        learnt = [0]  # slot 0 for the asserting literal
        counter = 0
        lit = -1
        index = len(trail) - 1
        reason = conflict
        while True:
            self._bump_clause(reason)
            start = 1 if lit != -1 else 0
            for k in range(start, len(reason)):
                q = reason[k]
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var]
            # Reorder the reason clause so its asserting literal is first.
            if reason[0] != lit:
                for k in range(1, len(reason)):
                    if reason[k] == lit:
                        reason[0], reason[k] = reason[k], reason[0]
                        break
        learnt[0] = lit ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = 1
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if not self._redundant(q):
                minimized.append(q)
        for q in learnt[1:]:
            seen[q >> 1] = 0
        learnt = minimized
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level

    def _redundant(self, lit: int) -> bool:
        """Local minimization: drop literals implied by the others."""
        reason = self._reason[lit >> 1]
        if reason is None:
            return False
        seen = self._seen
        level = self._level
        for q in reason:
            if q == (lit ^ 1) or q == lit:
                continue
            var = q >> 1
            if not seen[var] and level[var] > 0:
                return False
        return True

    def _bump_clause(self, clause: list) -> None:
        act = self._clause_act.get(id(clause), 0.0) + self._cla_inc
        self._clause_act[id(clause)] = act
        if act > 1e20:
            inv = 1e-20
            for key in self._clause_act:
                self._clause_act[key] *= inv
            self._cla_inc *= inv

    # ------------------------------------------------------------------
    # Learned clause management
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        learnts = self._learnts
        act = self._clause_act
        locked = set()
        for var in range(self.num_vars):
            r = self._reason[var]
            if r is not None:
                locked.add(id(r))
        learnts.sort(key=lambda c: act.get(id(c), 0.0))
        keep_from = len(learnts) // 2
        removed = []
        kept = []
        for i, clause in enumerate(learnts):
            if i < keep_from and len(clause) > 2 and id(clause) not in locked:
                removed.append(clause)
            else:
                kept.append(clause)
        for clause in removed:
            self._detach(clause)
            act.pop(id(clause), None)
        self._learnts = kept
        self.learned_deleted += len(removed)

    def _detach(self, clause: list) -> None:
        for lit in (clause[0], clause[1]):
            lst = self._watches[lit ^ 1]
            for idx, entry in enumerate(lst):
                if entry[0] is clause:
                    lst[idx] = lst[-1]
                    lst.pop()
                    break

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> Optional[bool]:
        """Search for a model; True/False/None (budget exhausted)."""
        self._model = None
        if self._unsat:
            return False
        self._cancel_until(0)
        assumed = []
        for dl in assumptions:
            var = abs(dl)
            self.ensure_vars(var)
            internal = var - 1
            if internal in self._eliminated:
                self._restore(internal)
            self._frozen.add(internal)
            assumed.append(internal * 2 + (0 if dl > 0 else 1))
        if self._unsat:
            return False
        if self.preprocess_enabled and not self.simplify():
            return False
        if self._propagate() is not None:
            self._unsat = True
            return False

        budget_left = conflict_budget
        restart_index = 0
        restart_limit = 128 * _luby_sequence(restart_index)
        conflicts_here = 0
        max_learnts = max(2000, len(self._clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._cancel_until(0)
                        return None
                if not self._trail_lim:
                    self._unsat = True
                    return False
                if len(self._trail_lim) <= len(assumed):
                    self._cancel_until(0)
                    return False
                learnt, back_level = self._analyze(conflict)
                back_level = max(back_level, 0)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        return False
                else:
                    self._attach(learnt)
                    self._learnts.append(learnt)
                    self._clause_act[id(learnt)] = self._cla_inc
                    self._enqueue(learnt[0], learnt)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(self._learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_index += 1
                    restart_limit = 128 * _luby_sequence(restart_index)
                    self.restarts += 1
                    self._cancel_until(0)
                    if (self.preprocess_enabled
                            and len(self._trail) - self._last_root_size
                            >= INPROCESS_MIN_UNITS):
                        self.inprocess_runs += 1
                        self.inprocess_removed += root_simplify(self)
                        self._last_root_size = len(self._trail)
                        if self._unsat:
                            return False
                continue
            if len(self._trail_lim) < len(assumed):
                lit = assumed[len(self._trail_lim)]
                val = self._lit_value(lit)
                if val == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == 0:
                    self._cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var == _UNDEF:
                self._model = extend_model(self)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            lit = var * 2 + (1 - self._phase[var])
            self._enqueue(lit, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, dimacs_var: int) -> bool:
        """Value of a variable in the most recent satisfying assignment."""
        var = dimacs_var - 1
        if var >= self.num_vars:
            return False
        source = self._model if self._model is not None else self._assign
        val = source[var]
        if val == _UNDEF:
            return False
        return val == 1
