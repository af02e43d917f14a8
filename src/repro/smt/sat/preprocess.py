"""CNF preprocessing and inprocessing for the CDCL core.

The encoder's Tseitin output is highly redundant: thousands of
single-use definitional gates, clauses subsumed by stronger siblings,
and variables whose resolution closure is smaller than their occurrence
lists.  Industrial solvers recover most of their speed on such formulas
with SatELite-style simplification (Eén & Biere 2005) before search;
this module implements that layer for :class:`~.solver.SatSolver`.

Techniques, applied to fixpoint under effort bounds:

* **root unit propagation** — units found while simplifying are fixed
  at decision level 0 and propagated through the occurrence lists;
* **subsumption** — a clause C removes every clause D with C ⊆ D,
  located through occurrence lists and rejected early by 64-bit
  variable signatures;
* **self-subsuming resolution** — when C ⊆ D except for one literal
  appearing with opposite polarity, that literal is deleted from D;
* **pure-literal elimination** — a variable occurring with one
  polarity only is removed together with its (satisfiable) clauses;
* **bounded variable elimination** — NiVER-style: a variable is
  resolved away when its non-tautological resolvents do not outnumber
  the clauses they replace.

Correctness contract with the incremental solver:

* **Frozen variables are never eliminated.**  The SMT facade freezes
  every assumption literal — including the batch engine's activation
  literals — via :meth:`SatSolver.freeze`; ``solve()`` additionally
  freezes its assumption variables itself.  Model-readable leaves are
  deliberately *not* frozen: the reconstruction stack (below) answers
  for them, and leaving them free is what lets elimination reach the
  encoder's single-use definitional gates.
* **A reconstruction stack extends models over eliminated variables.**
  Each elimination stores the variable's removed clauses as one flat
  record (witness clauses first) and pushes its witness literal; after
  a satisfying search :func:`extend_model` replays the stack in
  reverse, setting each eliminated variable so its original clauses
  hold, which keeps :meth:`SatSolver.model_value` exact for every
  variable.  Each run first drops the entries of restored variables,
  so the stack holds one entry per eliminated variable.
* **Eliminated variables are restored on reuse.**  If a new clause or
  assumption mentions an eliminated variable, the solver re-adds the
  clauses saved at elimination time (cascading through any eliminated
  variables they mention), so live clauses never reference eliminated
  variables and incremental solving stays sound.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence

from .lits import _LITS

__all__ = [
    "INPROCESS_MIN_UNITS",
    "MIN_CLAUSES",
    "Preprocessor",
    "extend_model",
    "root_simplify",
    "stored_clauses",
]

_UNDEF = -1


class _Unsat(Exception):
    """Internal: the pipeline derived a root-level contradiction."""


# Effort bounds for the pipeline.  They favor predictable polynomial
# work over maximal reduction: occurrence/product caps keep bounded
# variable elimination near-linear, and the round cap bounds the
# subsume/eliminate interleaving.

# Two rounds reach most of the fixpoint: round one does the bulk,
# round two mops up what the first round's eliminations exposed
# (later rounds chase diminishing tails at full pass cost).
MAX_ROUNDS = 2
# Below this many clauses the pipeline is skipped outright (unless
# forced): such formulas solve in less time than a pass costs.
MIN_CLAUSES = 512
# Per-polarity occurrence cap and pos*neg resolution cap for BVE.
# Deliberately tight (NiVER-grade rather than SatELite-grade): on the
# router encodings the extra reduction from looser caps is a couple of
# percentage points while the pass cost and end-to-end solve time both
# worsen measurably.
ELIM_OCC_LIMIT = 4
ELIM_PRODUCT_LIMIT = 12
# Abort an elimination producing a resolvent longer than this.
ELIM_RESOLVENT_LIMIT = 12
# Clauses longer than this are not used as subsumers, and occurrence
# lists longer than this are not scanned.
SUBSUME_SIZE_LIMIT = 24
SUBSUME_OCC_LIMIT = 600
# Light inprocessing between restarts runs once this many new root
# units have accumulated since the last clean.
INPROCESS_MIN_UNITS = 32


def _signature(clause: List[int]) -> int:
    """64-bit variable hash: superset clauses have superset signatures."""
    mask = 0
    for lit in clause:
        mask |= 1 << ((lit >> 1) & 63)
    return mask


def stored_clauses(record: bytes) -> Iterator[Sequence[int]]:
    """The clauses of one flat elimination record, in stored order.

    A record is the int32 sequence ``len, lits..., len, lits..., ...``:
    every clause removed when its variable was eliminated, the clauses
    holding the witness literal first.  It is stored as the ``bytes``
    of an ``array('i')``: one allocation of 4 bytes a literal, which
    the cycle collector never tracks (an ``array`` object it would).
    A read boxes a fresh int, so a caller that stores a literal maps it
    through ``_LITS`` (the solver's restore path does).
    """
    lits = memoryview(record).cast("i")
    i = 0
    size = len(lits)
    while i < size:
        stop = i + 1 + lits[i]
        yield lits[i + 1 : stop]
        i = stop


def extend_model(solver) -> List[int]:
    """The solver's assignment, extended over eliminated variables.

    Replays the reconstruction stack in reverse: each witness defaults
    to false and flips to true iff one of the clauses holding it,
    removed at its elimination, is otherwise unsatisfied — exactly the
    NiVER model-extension argument.  Non-witness literals in those
    clauses are final when the witness is processed (their own
    eliminations, if any, are deeper in the stack).
    """
    model = list(solver._assign)
    eliminated = solver._eliminated
    elim_clauses = solver._elim_clauses
    for witness in reversed(solver._reconstruction):
        var = witness >> 1
        if var not in eliminated:
            continue  # restored since; search assigned it directly
        value = witness & 1  # witness-false default
        for clause in stored_clauses(elim_clauses[var]):
            if witness not in clause:
                break  # past the witness clauses
            satisfied = False
            for lit in clause:
                if lit == witness:
                    continue
                if model[lit >> 1] ^ (lit & 1) == 1:
                    satisfied = True
                    break
            if not satisfied:
                value = 1 - (witness & 1)
                break
        model[var] = value
    return model


class Preprocessor:
    """One run of the simplification pipeline over a solver at root level.

    Operates detached: the problem clauses are held in a working set
    with occurrence lists, simplified, and the solver's watch
    structures are rebuilt from the survivors.  The working set comes
    either from the solver's clause database (copied out) or, for a
    solver that holds no clauses yet, straight from the DIMACS clauses
    of its first load (:meth:`load`), so that load never builds an
    arena only to throw it away.  Learned clauses are kept unless they
    mention an eliminated variable (they are consequences, so dropping
    them is always sound).  Each eliminated variable leaves one flat
    record in ``solver._elim_clauses`` (see :func:`stored_clauses`) and
    its witness literal on ``solver._reconstruction``.
    """

    def __init__(self, solver):
        self.solver = solver
        self.loaded = False  # working set built by load()
        self.clauses: List[Optional[List[int]]] = []
        self.occ: List[List[int]] = []
        self.sig: List[int] = []
        self.units: List[int] = []
        # Worklists: clause indices to (re)try as subsumers, and
        # variables whose occurrence lists changed (elimination may
        # newly apply).  Seeded with everything on the first round;
        # later rounds only revisit what the previous round altered.
        self.dirty: List[int] = []
        self.touched: set = set()
        self.stats = {
            "units": 0,
            "pure_literals": 0,
            "subsumed": 0,
            "strengthened": 0,
            "eliminated_vars": 0,
            "resolvents": 0,
            "removed_clauses": 0,
        }

    # ------------------------------------------------------------------

    def load(self, dimacs: List[Optional[List[int]]]) -> None:
        """Turn the first load of a solver into the working set.

        The solver must hold no clauses yet.  Each DIMACS clause gets
        the rules of ``add_clause``: shared literal objects, a repeated
        literal kept once, tautologies and root-true clauses dropped,
        root-false literals deleted, a unit asserted at the root and an
        empty clause making the solver unsatisfiable.  Units are not
        propagated here (there are no watches yet): :meth:`run`
        propagates them over the lists.  Each entry of
        ``dimacs`` is set to None once converted, so the caller's buffer
        frees as the working set grows.
        """
        solver = self.solver
        assign = solver._assign
        clauses = self.clauses
        self.loaded = True
        for i, dimacs_clause in enumerate(dimacs):
            dimacs[i] = None
            if solver._unsat:
                continue
            lits = []
            seen = set()
            for dl in dimacs_clause:
                var = abs(dl)
                if var > solver.num_vars:
                    solver.ensure_vars(var)
                lit = _LITS[(var - 1) * 2 + (0 if dl > 0 else 1)]
                if lit ^ 1 in seen:
                    break  # tautology
                if lit in seen:
                    continue
                value = assign[var - 1]
                if value != _UNDEF:
                    if value ^ (lit & 1) == 1:
                        break  # true at the root
                    continue  # false at the root: drop the literal
                seen.add(lit)
                lits.append(lit)
            else:
                if len(lits) > 1:
                    clauses.append(lits)
                elif not lits:
                    solver._unsat = True
                else:
                    self._assert(lits[0])

    def run(self) -> bool:
        """Simplify; returns False iff the formula is now known UNSAT.

        Counts as one of the solver's preprocessing runs and adds this
        run's tallies to its ``pp_*`` counters.
        """
        ok = self._simplify()
        solver = self.solver
        solver.pp_runs += 1
        for key, value in self.stats.items():
            setattr(solver, "pp_" + key, getattr(solver, "pp_" + key) + value)
        solver._last_root_size = len(solver._trail)
        return ok

    def _simplify(self) -> bool:
        solver = self.solver
        if not self.loaded:
            solver._cancel_until(0)
            if solver._propagate() is not None:
                solver._unsat = True
                return False
        # Entries of variables restored since the last run are stale.
        # Variables are eliminated only inside a run, so this leaves one
        # entry per eliminated variable, and the run appends one more
        # per variable it eliminates.
        eliminated = solver._eliminated
        solver._reconstruction = [
            witness
            for witness in solver._reconstruction
            if witness >> 1 in eliminated
        ]
        try:
            if self.loaded:
                self._propagate_loaded()
            else:
                self._collect()
            self._index()
            self._flush_units()
            self.dirty = list(range(len(self.clauses)))
            self.touched = set(_LITS[: solver.num_vars])
            for _ in range(MAX_ROUNDS):
                changed = self._subsumption_pass()
                changed |= self._elimination_pass()
                if self.units:
                    changed |= self._flush_units()
                if not changed:
                    break
            self._rebuild()
        except _Unsat:
            solver._unsat = True
            return False
        return True

    # ------------------------------------------------------------------
    # Working-set plumbing
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self.solver._assign[lit >> 1]
        if value == _UNDEF:
            return _UNDEF
        return value ^ (lit & 1)

    def _reduced(self, clause: List[int]) -> Optional[List[int]]:
        """``clause`` less its root-false literals; None if root-true."""
        out = []
        for lit in clause:
            value = self._value(lit)
            if value == 1:
                return None
            if value == _UNDEF:
                out.append(lit)
        return out

    def _collect(self) -> None:
        """Copy live problem clauses, reduced against root assignments."""
        clauses: List[Optional[List[int]]] = []
        for clause in self.solver.clause_lists():
            out = self._reduced(clause)
            if out is None:
                self.stats["removed_clauses"] += 1
                continue
            if not out:
                raise _Unsat
            if len(out) == 1:
                self.stats["removed_clauses"] += 1
                self._fix(out[0])
                continue
            clauses.append(out)
        self.clauses = clauses

    def _propagate_loaded(self) -> None:
        """Propagate a loaded working set's root units, then compact it.

        The reduction :meth:`_collect` makes against the arena's already
        propagated root: root-true clauses go (tallied as removed),
        root-false literals are deleted, and a clause left with one
        literal asserts it in turn.  A throwaway literal index finds the
        clauses.  The occurrence lists are built only after compaction:
        built before, they would keep entries of removed and shortened
        clauses, whose counts reorder the elimination candidates.
        """
        clauses = self.clauses
        units = self.units
        if units:
            index: List[List[int]] = [
                [] for _ in range(2 * self.solver.num_vars)
            ]
            for idx, clause in enumerate(clauses):
                for lit in clause:
                    index[lit].append(idx)
            while units:
                lit = units.pop()
                for idx in index[lit]:
                    if clauses[idx] is not None:
                        clauses[idx] = None
                        self.stats["removed_clauses"] += 1
                for idx in index[lit ^ 1]:
                    clause = clauses[idx]
                    if clause is None:
                        continue
                    out = self._reduced(clause)
                    if out is not None and len(out) > 1:
                        clauses[idx] = out
                        continue
                    clauses[idx] = None
                    self.stats["removed_clauses"] += 1
                    if out is not None:
                        if not out:
                            raise _Unsat
                        self._assert(out[0])
        self.clauses = [clause for clause in clauses if clause is not None]

    def _index(self) -> None:
        """Occurrence lists and signatures of the working set."""
        occ: List[List[int]] = [[] for _ in range(2 * self.solver.num_vars)]
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                occ[lit].append(idx)
        self.occ = occ
        self.sig = [_signature(clause) for clause in self.clauses]

    def _assert(self, lit: int) -> None:
        """Assert an unassigned ``lit`` at the root and queue it."""
        self.solver._enqueue(lit, None)
        self.units.append(lit)

    def _fix(self, lit: int) -> None:
        """Assert ``lit`` at the root; queued for occurrence propagation."""
        value = self._value(lit)
        if value == 1:
            return
        if value == 0:
            raise _Unsat
        self._assert(lit)
        self.stats["units"] += 1

    def _flush_units(self) -> bool:
        """Propagate queued root units through the occurrence lists."""
        changed = False
        while self.units:
            lit = self.units.pop()
            changed = True
            for idx in self.occ[lit]:
                self._remove_clause(idx)
            self.occ[lit] = []
            for idx in list(self.occ[lit ^ 1]):
                self._strengthen(idx, lit ^ 1, tally=False)
            self.occ[lit ^ 1] = []
        return changed

    def _remove_clause(self, idx: int) -> None:
        clause = self.clauses[idx]
        if clause is None:
            return
        self.clauses[idx] = None
        self.stats["removed_clauses"] += 1
        for lit in clause:
            self.touched.add(lit >> 1)

    def _strengthen(self, idx: int, lit: int, tally: bool = True) -> None:
        """Delete ``lit`` from clause ``idx`` (stale entries ignored)."""
        clause = self.clauses[idx]
        if clause is None or lit not in clause:
            return
        if tally:
            self.stats["strengthened"] += 1
        for other in clause:
            self.touched.add(other >> 1)
        out = [other for other in clause if other != lit]
        if len(out) == 1:
            self.clauses[idx] = None
            self.stats["removed_clauses"] += 1
            self._fix(out[0])
            return
        self.clauses[idx] = out
        self.sig[idx] = _signature(out)
        self.dirty.append(idx)

    def _occurrences(self, lit: int) -> List[int]:
        """Compact and return the valid occurrence list of ``lit``."""
        valid = []
        for idx in self.occ[lit]:
            clause = self.clauses[idx]
            if clause is not None and lit in clause:
                valid.append(idx)
        self.occ[lit] = valid
        return valid

    def _add_work(self, clause: List[int]) -> None:
        if len(clause) == 1:
            self._fix(clause[0])
            return
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.sig.append(_signature(clause))
        for lit in clause:
            self.occ[lit].append(idx)
            self.touched.add(lit >> 1)
        self.dirty.append(idx)

    # ------------------------------------------------------------------
    # Subsumption and self-subsuming resolution
    # ------------------------------------------------------------------

    def _subsumption_pass(self) -> bool:
        """Try each dirty clause as a subsumer, shortest first."""
        changed = False
        queue = sorted(
            {i for i in self.dirty if self.clauses[i] is not None},
            key=lambda i: len(self.clauses[i]),
        )
        del self.dirty[:]
        for idx in queue:
            clause = self.clauses[idx]
            if clause is None or len(clause) > SUBSUME_SIZE_LIMIT:
                continue
            changed |= self._backward_subsume(idx)
            if self.units:
                changed |= self._flush_units()
        return changed

    def _backward_subsume(self, idx: int) -> bool:
        """Remove/strengthen every clause weaker than clause ``idx``.

        Candidates are found through the occurrence lists of the
        least-occurring literal ``best``: any subsumed or strengthenable
        clause must contain every literal of this clause except at most
        one flipped literal, hence must contain ``best`` or ``¬best``.
        """
        clause = self.clauses[idx]
        changed = False
        best = min(clause, key=lambda lit: len(self.occ[lit]))
        for watch in (best, best ^ 1):
            if len(self.occ[watch]) > SUBSUME_OCC_LIMIT:
                continue
            signature = self.sig[idx]
            length = len(clause)
            for other_idx in list(self.occ[watch]):
                if other_idx == idx:
                    continue
                other = self.clauses[other_idx]
                if other is None or len(other) < length:
                    continue
                if signature & ~self.sig[other_idx]:
                    continue
                flip = self._subsumes(clause, other)
                if flip is None:
                    continue
                if flip == -1:
                    self._remove_clause(other_idx)
                    self.stats["subsumed"] += 1
                    changed = True
                else:
                    self._strengthen(other_idx, flip)
                    changed = True
                clause = self.clauses[idx]
                if clause is None:
                    return changed
        return changed

    @staticmethod
    def _subsumes(clause: List[int], other: List[int]) -> Optional[int]:
        """-1 if ``clause`` subsumes ``other``; a literal if ``other``
        can drop it by self-subsuming resolution; None otherwise."""
        members = set(other)
        flip = -1
        for lit in clause:
            if lit in members:
                continue
            if flip == -1 and (lit ^ 1) in members:
                flip = lit ^ 1
                continue
            return None
        return flip

    # ------------------------------------------------------------------
    # Variable elimination (pure literals and bounded resolution)
    # ------------------------------------------------------------------

    def _candidate(self, var: int) -> bool:
        solver = self.solver
        return (
            var not in solver._frozen
            and var not in solver._eliminated
            and solver._assign[var] == _UNDEF
        )

    def _elimination_pass(self) -> bool:
        """Pure-literal and bounded elimination over the touched vars."""
        changed = False
        candidates = []
        # Raw occurrence lengths over-count (stale entries), so a var
        # whose both lists far exceed the elimination cap is hopeless;
        # skipping it avoids the compaction cost of _occurrences.
        hopeless = 2 * ELIM_OCC_LIMIT
        for var in sorted(self.touched):
            if not self._candidate(var):
                continue
            pos_len = len(self.occ[2 * var])
            neg_len = len(self.occ[2 * var + 1])
            if pos_len > hopeless and neg_len > hopeless:
                continue
            total = pos_len + neg_len
            if total:
                candidates.append((total, var))
        self.touched.clear()
        candidates.sort()
        for _, var in candidates:
            if not self._candidate(var):
                continue
            changed |= self._try_eliminate(var)
            if self.units:
                changed |= self._flush_units()
        return changed

    def _try_eliminate(self, var: int) -> bool:
        pos = self._occurrences(2 * var)
        neg = self._occurrences(2 * var + 1)
        if not pos or not neg:
            if pos or neg:
                witness = 2 * var if pos else 2 * var + 1
                self._eliminate(var, witness, pos or neg, [])
                self.stats["pure_literals"] += 1
                return True
            return False
        if (
            len(pos) > ELIM_OCC_LIMIT
            or len(neg) > ELIM_OCC_LIMIT
            or len(pos) * len(neg) > ELIM_PRODUCT_LIMIT
        ):
            return False
        resolvents = []
        budget = len(pos) + len(neg)
        for pos_idx in pos:
            base = [lit for lit in self.clauses[pos_idx]
                    if lit >> 1 != var]
            seen = set(base)
            for neg_idx in neg:
                resolvent = self._resolve(
                    base, seen, self.clauses[neg_idx], var
                )
                if resolvent is None:
                    continue
                if len(resolvent) > ELIM_RESOLVENT_LIMIT:
                    return False
                resolvents.append(resolvent)
                if len(resolvents) > budget:
                    return False
        self._eliminate(var, 2 * var, pos, neg)
        self.stats["eliminated_vars"] += 1
        self.stats["resolvents"] += len(resolvents)
        for resolvent in resolvents:
            self._add_work(resolvent)
        return True

    @staticmethod
    def _resolve(
        base: List[int], seen: set, neg_clause: List[int], var: int
    ) -> Optional[List[int]]:
        """Resolvent on ``var``, or None if it is a tautology.

        ``base``/``seen`` are the positive parent minus ``var``,
        precomputed once per positive clause by the caller.  Clauses
        carry no duplicate literals, so within-side dedup is free.
        """
        out = list(base)
        for lit in neg_clause:
            if lit >> 1 == var:
                continue
            if lit ^ 1 in seen:
                return None
            if lit not in seen:
                out.append(lit)
        return out

    def _eliminate(
        self,
        var: int,
        witness: int,
        witness_idxs: List[int],
        other_idxs: List[int],
    ) -> None:
        """Remove ``var``'s clauses; record restore + reconstruction data.

        The removed clauses go into one flat record, the ones containing
        the witness literal first.  Replayed in reverse, "make the
        witness true iff one of its clauses is otherwise unsatisfied"
        re-derives a value for the variable consistent with every clause
        removed here (the clauses of the opposite polarity are covered
        by the resolvents, which stay in the formula — the NiVER
        soundness argument).
        """
        solver = self.solver
        var = _LITS[var]  # the key outlives the run: one shared object
        record = array("i")
        for idx in witness_idxs + other_idxs:
            clause = self.clauses[idx]
            record.append(len(clause))
            record.extend(clause)
            self._remove_clause(idx)
        solver._reconstruction.append(_LITS[witness])
        solver._elim_clauses[var] = record.tobytes()
        solver._eliminated.add(var)

    # ------------------------------------------------------------------
    # Rebuild the solver around the simplified clause set
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Reinstall the surviving clause set through the accessor layer.

        Learnt clauses mentioning an eliminated variable are dropped
        (they are consequences, so that is always sound); drops are
        tallied into ``learned_deleted`` so the counter stays the
        monotone "learnt clauses ever discarded" total.
        """
        solver = self.solver
        problem = [c for c in self.clauses if c is not None]
        # Release the working set's indexes before the new arena is
        # built; install_clauses then frees each list as it copies it.
        self.clauses = []
        self.occ = []
        self.sig = []
        self.dirty = []
        self.touched = set()
        eliminated = solver._eliminated
        assign = solver._assign
        learnts = []
        deleted = 0
        for clause, activity in solver.learnt_lists():
            dropped = False
            satisfied = False
            out = []
            for lit in clause:
                if lit >> 1 in eliminated:
                    dropped = True
                    break
                value = assign[lit >> 1]
                if value == _UNDEF:
                    out.append(lit)
                elif value ^ (lit & 1) == 1:
                    satisfied = True
                    break
            if dropped or satisfied:
                deleted += 1
                continue
            if not out:
                solver.learned_deleted += deleted
                raise _Unsat
            if len(out) == 1:
                deleted += 1
                self._fix(out[0])
                continue
            learnts.append((out, activity))
        solver.learned_deleted += deleted
        solver.install_clauses(problem, learnts)


def root_simplify(solver) -> int:
    """Light inprocessing: clean the clause database against root facts.

    Removes clauses satisfied at decision level 0 and deletes falsified
    literals, reinstalling the survivors through the solver's accessor
    layer.  Called by the solver between restarts once enough new root
    units have accumulated; must run at decision level 0.  Returns the
    number of clauses removed and sets ``solver._unsat`` on a root
    contradiction.  Learnt clauses discarded here count toward
    ``learned_deleted`` (the monotone "ever discarded" total).
    """
    assign = solver._assign
    removed = 0
    deleted_learnts = 0

    def reduce_pairs(pairs, learnt: bool):
        nonlocal removed, deleted_learnts
        kept = []
        for clause, activity in pairs:
            out = []
            satisfied = False
            for lit in clause:
                value = assign[lit >> 1]
                if value == _UNDEF:
                    out.append(lit)
                elif value ^ (lit & 1) == 1:
                    satisfied = True
                    break
            if satisfied:
                removed += 1
                if learnt:
                    deleted_learnts += 1
                continue
            if not out:
                solver._unsat = True
                return kept
            if len(out) == 1:
                removed += 1
                if learnt:
                    deleted_learnts += 1
                if not solver._enqueue(out[0], None):
                    solver._unsat = True
                    return kept
                continue
            kept.append((out, activity))
        return kept

    problem = reduce_pairs(((c, None) for c in solver.clause_lists()),
                           learnt=False)
    learnts = []
    if not solver._unsat:
        learnts = reduce_pairs(solver.learnt_lists(), learnt=True)
    solver.learned_deleted += deleted_learnts
    if solver._unsat:
        return removed
    solver.install_clauses([lits for lits, _ in problem], learnts)
    return removed
