"""A CDCL SAT solver in pure Python over a flat clause arena.

Implements the standard modern architecture: two-watched-literal propagation,
first-UIP conflict analysis with recursive clause minimization, VSIDS decision
ordering with phase saving, Luby restarts and activity-driven deletion of
learned clauses.  The design follows MiniSat; the storage layout follows the
flat-buffer style of modern C solvers, adapted to CPython:

* **Clause arena** — one growable flat int buffer (a Python list of
  int32-range ints) holding every clause as ``[end, lit0, lit1, ...]``.
  A clause is identified by the offset of its *first literal* (its
  *ref*), so the hot path reads ``arena[ref]`` /
  ``arena[ref + 1]`` with no header skip; the header word at ``ref - 1``
  holds the clause's *end offset* (one add cheaper than a size on every
  scan) and is only consulted off the blocker fast path.  Offset 0 holds a
  sentinel so no live ref is 0, and refs double as reason markers
  (``-1`` = no reason).
* **Watcher lists** — per literal, one list of interleaved
  ``ref, blocker`` pairs (the clause ref and its cached blocker
  literal).  The dominant skip path (blocker already true) reads one
  slot and writes nothing unless an earlier pair already moved away.
  Binary clauses use a dedicated per-literal implication list of
  interleaved ``implied, ref`` pairs and never move watches.  A slot no
  clause has used yet holds the shared empty tuple and turns into a
  list on its first append (most literals never get a watch), so a
  literal owns at most one list of each kind.
* **Reasons** — a flat per-variable list of clause refs.
* **Literal objects** — every literal value is one shared int object
  (``_LITS``, see :mod:`.lits`), so an arena slot, watch blocker or
  stored clause costs a pointer, not a 32-byte int of its own.

Deleted learnt clauses leave gaps in the arena; a compacting GC remaps all
live refs *in place* (watch order preserved) once the waste crosses a
threshold, so search behavior is unaffected by collection.

The search is op-for-op identical to the list-based baseline kept in
:mod:`.reference` — same decisions, conflicts, propagations, and models —
which the randomized differential suite asserts.

The solver answers ``True`` (satisfiable), ``False`` (unsatisfiable) or
``None`` (conflict budget exhausted).  It supports solving under assumptions
and incremental clause addition between calls.

With ``preprocess_enabled`` (off by default at this layer; the SMT facade
turns it on), :meth:`solve` runs the SatELite-style simplification
pipeline in :mod:`.preprocess` once, under the frozen-variable protocol;
the preprocessor reads and replaces the clause database exclusively
through the accessor contract (:meth:`clause_lists` /
:meth:`learnt_lists` / :meth:`install_clauses`), never through the raw
arena.  A first load may bypass the arena entirely:
:meth:`.preprocess.Preprocessor.load` turns DIMACS clauses into the
working set and :meth:`simplify` installs the result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .lits import _LITS, ensure_lits
from .preprocess import (
    INPROCESS_MIN_UNITS,
    MIN_CLAUSES,
    Preprocessor,
    extend_model,
    root_simplify,
    stored_clauses,
)

__all__ = ["SatSolver"]

_UNDEF = -1
_NO_REASON = -1

# Compact the arena once this many ints are dead *and* they exceed half
# the arena (amortizes the remap over real fragmentation only).
_GC_MIN_WASTE = 16384


class _VarOrder:
    """Indexed binary max-heap over variable activities.

    Unlike ``heapq`` with stale entries, each variable appears at most
    once and activity bumps adjust its position in place — essential when
    backtracking re-inserts thousands of variables per conflict.
    """

    __slots__ = ("heap", "position", "activity")

    def __init__(self, activity: List[float]) -> None:
        self.heap: List[int] = []
        self.position: List[int] = []
        self.activity = activity

    def grow(self, var: int) -> None:
        while len(self.position) <= var:
            self.position.append(-1)

    def extend(self, start: int, stop: int) -> None:
        """Add fresh variables ``start..stop-1`` (``start`` = current size).

        Same result as ``grow`` + ``push`` per variable: activities are
        never negative, so a new zero-activity key never sifts above its
        parent and each variable lands at the heap tail in index order.
        """
        heap = self.heap
        self.position.extend(range(len(heap), len(heap) + stop - start))
        heap.extend(range(start, stop))

    def push(self, var: int) -> None:
        if self.position[var] != -1:
            return
        self.heap.append(var)
        self.position[var] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def pop(self) -> int:
        heap = self.heap
        top = heap[0]
        last = heap.pop()
        self.position[top] = -1
        if heap:
            heap[0] = last
            self.position[last] = 0
            self._sift_down(0)
        return top

    def bump(self, var: int) -> None:
        pos = self.position[var]
        if pos != -1:
            self._sift_up(pos)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def _sift_up(self, pos: int) -> None:
        heap = self.heap
        position = self.position
        act = self.activity
        var = heap[pos]
        key = act[var]
        while pos > 0:
            parent = (pos - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[pos] = pvar
            position[pvar] = pos
            pos = parent
        heap[pos] = var
        position[var] = pos

    def _sift_down(self, pos: int) -> None:
        heap = self.heap
        position = self.position
        act = self.activity
        size = len(heap)
        var = heap[pos]
        key = act[var]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and act[heap[right]] > act[heap[child]]:
                child = right
            cvar = heap[child]
            if act[cvar] <= key:
                break
            heap[pos] = cvar
            position[cvar] = pos
            pos = child
        heap[pos] = var
        position[var] = pos


def _luby_sequence(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence.

    Yields 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...; the classic MiniSat recurrence.
    """
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class SatSolver:
    """CDCL solver over variables numbered from 1 (DIMACS convention).

    Every literal it stores is the shared object from ``_LITS``.  The
    preprocessor leaves one flat record per eliminated variable in
    ``_elim_clauses`` and its witness literal on ``_reconstruction``
    (read through :func:`.preprocess.stored_clauses`).
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self._assign: List[int] = []      # per var: 0 false, 1 true, -1 undef
        self._level: List[int] = []       # per var: decision level
        self._reason: List[int] = []      # per var: clause ref or -1
        self._phase: List[int] = []       # saved phase per var (0/1)
        self._activity: List[float] = []
        self._var_inc = 1.0
        # Flat clause arena; see the module docstring for the layout.
        self._arena: List[int] = [0]
        self._wasted = 0                  # dead ints awaiting compaction
        self._clause_refs: List[int] = []  # problem clause refs
        self._learnt_refs: List[int] = []  # learnt clause refs
        # Watcher lists, indexed by the literal that just became true:
        # _watches[lit][2k] is a clause watching ``lit ^ 1`` and
        # _watches[lit][2k + 1] its cached blocker.  An unused slot holds
        # the shared ``()``; the first append replaces it with a list.
        self._watches: List[Sequence[int]] = [(), ()]
        # Binary implication lists: _bins[lit][2k] is implied when
        # ``lit`` becomes true and _bins[lit][2k + 1] is the clause ref.
        self._bins: List[Sequence[int]] = [(), ()]
        self._cla_inc = 1.0
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._order = _VarOrder(self._activity)
        self._unsat = False
        self._seen: List[int] = []
        self._clause_act: Dict[int, float] = {}   # ref -> activity
        # --- preprocessing state (see preprocess.py) -------------------
        # Off by default so raw SatSolver users (and white-box tests) get
        # untouched CDCL; the SMT facade enables it per EncoderOptions.
        self.preprocess_enabled = False
        self._frozen: Set[int] = set()        # internal var indices
        self._eliminated: Set[int] = set()
        # Per eliminated var: its original clauses as one flat int32
        # record ``len, lits..., len, lits...``, witness clauses first,
        # frozen to ``bytes`` (4 bytes a literal, never tracked by the
        # cycle collector); see preprocess.stored_clauses.
        self._elim_clauses: Dict[int, bytes] = {}
        # Witness literals in elimination order, replayed in reverse to
        # extend a model over eliminated variables.
        self._reconstruction: List[int] = []
        # Extended model snapshot from the last SAT answer (per var 0/1),
        # or None when the last answer was not SAT.
        self._model: Optional[List[int]] = None
        self._last_root_size = 0              # root trail size at last run
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
        """Snapshot of the search and preprocessing counters.

        All monotone except ``learned`` (live learned-clause count),
        ``live_clauses`` (live problem-clause count) and ``eliminated``
        (currently eliminated variables, which shrinks on restore).
        ``learned_deleted`` counts every learnt clause ever discarded —
        by DB reduction, preprocessing, or root simplification.
        """
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": len(self._learnt_refs),
            "learned_deleted": self.learned_deleted,
            "live_clauses": len(self._clause_refs),
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
        start = self.num_vars
        if n <= start:
            return
        count = n - start
        self.num_vars = n
        ensure_lits(n)
        self._assign.extend([_UNDEF] * count)
        self._level.extend([0] * count)
        self._reason.extend([_NO_REASON] * count)
        self._phase.extend([0] * count)
        self._activity.extend([0.0] * count)
        self._seen.extend([0] * count)
        empty = [()] * (2 * count)
        self._watches.extend(empty)
        self._bins.extend(empty)
        self._order.extend(start, n)

    def _alloc(self, lits: Sequence[int]) -> int:
        """Append a clause to the arena; returns its ref (lit0 offset)."""
        arena = self._arena
        ref = len(arena) + 1
        arena.append(ref + len(lits))
        arena.extend(lits)
        return ref

    def clause_lits(self, ref: int) -> List[int]:
        """The literals of the clause at ``ref`` (a copy)."""
        arena = self._arena
        return list(arena[ref:arena[ref - 1]])

    def add_clause(self, dimacs_lits: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals).  Returns False iff now trivially
        unsatisfiable.  May be called between :meth:`solve` calls."""
        if self._unsat:
            return False
        self._cancel_until(0)
        dimacs = list(dimacs_lits)
        if self._eliminated:
            # Restore eliminated variables *before* evaluating literals
            # against the root assignment: restoring mid-loop could
            # attach this clause while earlier literals were judged
            # against a stale root state.
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
            if var > self.num_vars:
                self.ensure_vars(var)
            lit = _LITS[(var - 1) * 2 + (0 if dl > 0 else 1)]
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
        ref = self._alloc(lits)
        self._attach(ref)
        self._clause_refs.append(ref)
        return True

    def _attach(self, ref: int) -> None:
        arena = self._arena
        a = arena[ref]
        b = arena[ref + 1]
        # Each pair holds the clause ref and the clause's other literal
        # (blocker or implied literal).  AttributeError on the shared
        # ``()`` marks a slot's first append, before anything is added.
        if arena[ref - 1] - ref == 2:
            bins = self._bins
            try:
                bins[a ^ 1].append(b)
                bins[a ^ 1].append(ref)
            except AttributeError:
                bins[a ^ 1] = [b, ref]
            try:
                bins[b ^ 1].append(a)
                bins[b ^ 1].append(ref)
            except AttributeError:
                bins[b ^ 1] = [a, ref]
            return
        watches = self._watches
        try:
            watches[a ^ 1].append(ref)
            watches[a ^ 1].append(b)
        except AttributeError:
            watches[a ^ 1] = [ref, b]
        try:
            watches[b ^ 1].append(ref)
            watches[b ^ 1].append(a)
        except AttributeError:
            watches[b ^ 1] = [ref, a]

    # ------------------------------------------------------------------
    # Preprocessing interface (accessor contract — see docs/SOLVER.md)
    # ------------------------------------------------------------------

    def clause_lists(self) -> List[List[int]]:
        """Live problem clauses as lists of internal literals."""
        return [self.clause_lits(ref) for ref in self._clause_refs]

    def learnt_lists(self) -> List[Tuple[List[int], Optional[float]]]:
        """Live learnt clauses with their activities (None if unbumped)."""
        act = self._clause_act
        return [(self.clause_lits(ref), act.get(ref))
                for ref in self._learnt_refs]

    def install_clauses(self, problem: List[Optional[List[int]]],
                        learnts: List[Tuple[List[int], Optional[float]]],
                        ) -> None:
        """Replace the clause database wholesale and rebuild the watches.

        Root-level only.  The arena is rebuilt from scratch (a full
        compaction), watches and binary lists are reattached, and
        propagation state is cleared (``qhead`` back to 0, trail reasons
        dropped) so the caller's root trail re-propagates through the
        new structures.  Clause activities not carried in ``learnts``
        are discarded.  Each entry of ``problem`` is set to None once
        copied, so a caller holding no other reference to a clause list
        frees it while the arena grows.
        """
        self._arena = [0]
        self._wasted = 0
        self._clause_refs = []
        self._learnt_refs = []
        self._clause_act = {}
        size = 2 * self.num_vars + 2
        self._watches = [()] * size
        self._bins = [()] * size
        for i, lits in enumerate(problem):
            problem[i] = None
            ref = self._alloc(lits)
            self._attach(ref)
            self._clause_refs.append(ref)
        for lits, activity in learnts:
            ref = self._alloc(lits)
            self._attach(ref)
            self._learnt_refs.append(ref)
            if activity is not None:
                self._clause_act[ref] = activity
        self._qhead = 0
        reason = self._reason
        for lit in self._trail:
            reason[lit >> 1] = _NO_REASON

    def freeze(self, dimacs_var: int) -> None:
        """Protect a variable from elimination by the preprocessor.

        Must be called for every variable whose value may be read via
        :meth:`model_value` while other clauses mentioning it are still
        being added, and for assumption/activation literals (``solve``
        freezes its own assumptions as a safety net).  Freezing an
        already-eliminated variable restores it.
        """
        self.ensure_vars(dimacs_var)
        var = dimacs_var - 1
        self._frozen.add(var)
        if var in self._eliminated:
            self._restore(var)

    def _restore(self, var: int) -> None:
        """Un-eliminate ``var``: re-add the clauses removed when it was
        resolved away, cascading through eliminated variables they
        mention.  Root-level only; may set ``_unsat``."""
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
        """Root-level add of a clause in internal literals (restore path).

        Mirrors :meth:`add_clause` minus the DIMACS conversion and
        tautology/dedup work (stored clauses are already clean).  A
        stored record boxes a fresh int per read, so each kept literal
        is swapped for its shared object."""
        if self._unsat:
            return
        out = []
        for lit in lits:
            val = self._lit_value(lit)
            if val == 1:
                return  # satisfied at root
            if val == 0:
                continue
            out.append(_LITS[lit])
        if not out:
            self._unsat = True
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._unsat = True
            return
        ref = self._alloc(out)
        self._attach(ref)
        self._clause_refs.append(ref)

    def simplify(self, force: bool = False,
                 loaded: Optional[Preprocessor] = None) -> bool:
        """Run the preprocessing pipeline at the root level, once.

        Unforced, it runs the first time the solver holds at least
        ``MIN_CLAUSES`` problem clauses and never again, so incremental
        solving pays for it once.  ``force`` bypasses the rule.
        ``loaded`` is the working set of a first load of at least
        ``MIN_CLAUSES`` clauses (:meth:`.preprocess.Preprocessor.load`):
        it is preprocessed and installed.  Returns False iff the formula
        is now known unsatisfiable.
        """
        if self._unsat:
            return False
        if loaded is not None:
            return loaded.run()
        if not self._clause_refs and not self._learnt_refs:
            return True
        if not force and (self.pp_runs
                          or len(self._clause_refs) < MIN_CLAUSES):
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

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._lit_value(lit)
        if val != _UNDEF:
            return val == 1
        var = lit >> 1
        self._assign[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = _NO_REASON if reason is None else reason
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
            self._reason[var] = _NO_REASON
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

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or None.

        Binary clauses propagate through dedicated implication lists;
        longer clauses use two watched literals with cached blockers.
        The blocker-satisfied skip path — the vast majority of watch
        visits — reads one slot per pair and writes nothing unless a
        prior pair in this list already moved away.
        """
        watches = self._watches
        bin_table = self._bins
        assign = self._assign
        trail = self._trail
        level = self._level
        reason = self._reason
        arena = self._arena
        lits = _LITS
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            self.propagations += 1
            level_now = len(self._trail_lim)
            # Binary implications first (cheap, cache-friendly).
            bins = bin_table[lit]
            if bins:
                pairs = iter(bins)
                for implied, bref in zip(pairs, pairs):
                    var = implied >> 1
                    value = assign[var]
                    if value == _UNDEF:
                        assign[var] = 1 - (implied & 1)
                        level[var] = level_now
                        reason[var] = bref
                        trail.append(implied)
                    elif (value ^ (implied & 1)) == 0:
                        self._qhead = len(trail)
                        return bref
            # ``lit`` became true, so the in-clause literal ``lit ^ 1``
            # became false; clauses watching it live in watches[lit].
            false_lit = lits[lit ^ 1]  # stored on the swap/new-watch paths
            ws = watches[lit]
            # i and j index the blocker of the pair being read and
            # written; the pair's ref sits one slot before it.
            i = 1
            j = 1
            n = len(ws)
            while i < n:
                blocker = ws[i]
                vb = assign[blocker >> 1]
                if vb != _UNDEF and (vb ^ (blocker & 1)) == 1:
                    if j != i:
                        ws[j - 1] = ws[i - 1]
                        ws[j] = blocker
                    i += 2
                    j += 2
                    continue
                ref = ws[i - 1]
                i += 2
                # Normalize: the false literal goes to slot 1.
                first = arena[ref]
                if first == false_lit:
                    first = arena[ref + 1]
                    arena[ref] = first
                    arena[ref + 1] = false_lit
                v0 = assign[first >> 1]
                if v0 != _UNDEF and (v0 ^ (first & 1)) == 1:
                    ws[j - 1] = ref
                    ws[j] = first
                    j += 2
                    continue
                # Look for a new literal to watch.
                found = False
                for k in range(ref + 2, arena[ref - 1]):
                    lk = arena[k]
                    vk = assign[lk >> 1]
                    if vk == _UNDEF or (vk ^ (lk & 1)) == 1:
                        arena[ref + 1] = lk
                        arena[k] = false_lit
                        try:
                            watches[lk ^ 1].append(ref)
                            watches[lk ^ 1].append(first)
                        except AttributeError:  # first use of the slot
                            watches[lk ^ 1] = [ref, first]
                        found = True
                        break
                if found:
                    continue
                ws[j - 1] = ref
                ws[j] = first
                j += 2
                if v0 != _UNDEF:  # first is false: conflict
                    ws[j - 1:] = ws[i - 1:n]
                    self._qhead = len(trail)
                    return ref
                # Unit: enqueue first.
                var = first >> 1
                assign[var] = 1 - (first & 1)
                level[var] = level_now
                reason[var] = ref
                trail.append(first)
            if j != i:
                del ws[j - 1:]
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> tuple:
        """First-UIP learning.  Returns (learnt_clause, backtrack_level)."""
        seen = self._seen
        trail = self._trail
        level = self._level
        arena = self._arena
        cur_level = len(self._trail_lim)
        learnt = [0]  # slot 0 for the asserting literal
        counter = 0
        lit = -1
        index = len(trail) - 1
        reason = conflict
        while True:
            self._bump_clause(reason)
            start = 1 if lit != -1 else 0
            for k in range(reason + start, arena[reason - 1]):
                q = arena[k]
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
            if arena[reason] != lit:
                for k in range(reason + 1, arena[reason - 1]):
                    if arena[k] == lit:
                        arena[k] = arena[reason]
                        arena[reason] = lit
                        break
        learnt[0] = _LITS[lit ^ 1]
        # Mark remaining literals for minimization bookkeeping.
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
            # Find the second-highest decision level in the clause.
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
        if reason < 0:
            return False
        seen = self._seen
        level = self._level
        arena = self._arena
        for k in range(reason, arena[reason - 1]):
            q = arena[k]
            if q == (lit ^ 1) or q == lit:
                continue
            var = q >> 1
            if not seen[var] and level[var] > 0:
                return False
        return True

    def _bump_clause(self, ref: int) -> None:
        # Clause activities live in a side table keyed by arena ref; the
        # GC remaps keys on compaction.
        act = self._clause_act.get(ref, 0.0) + self._cla_inc
        self._clause_act[ref] = act
        if act > 1e20:
            inv = 1e-20
            for key in self._clause_act:
                self._clause_act[key] *= inv
            self._cla_inc *= inv

    # ------------------------------------------------------------------
    # Learned clause management
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        learnts = self._learnt_refs
        act = self._clause_act
        arena = self._arena
        locked = set()
        reason = self._reason
        for var in range(self.num_vars):
            r = reason[var]
            if r >= 0:
                locked.add(r)
        learnts.sort(key=lambda ref: act.get(ref, 0.0))
        keep_from = len(learnts) // 2
        removed = []
        kept = []
        for i, ref in enumerate(learnts):
            if (i < keep_from and arena[ref - 1] - ref > 2
                    and ref not in locked):
                removed.append(ref)
            else:
                kept.append(ref)
        for ref in removed:
            self._detach(ref)
            act.pop(ref, None)
            self._wasted += arena[ref - 1] - ref + 1
        self._learnt_refs = kept
        self.learned_deleted += len(removed)
        if (self._wasted > _GC_MIN_WASTE
                and self._wasted * 2 > len(arena)):
            self._compact()

    def _detach(self, ref: int) -> None:
        arena = self._arena
        for lit in (arena[ref], arena[ref + 1]):
            ws = self._watches[lit ^ 1]
            for p in range(0, len(ws), 2):
                if ws[p] == ref:
                    # The last pair takes the freed place.
                    ws[p] = ws[-2]
                    ws[p + 1] = ws[-1]
                    del ws[-2:]
                    break

    def _compact(self) -> None:
        """Rebuild the arena without dead gaps, remapping refs in place.

        Order-preserving: clause ref lists, watch/binary entries and
        reason refs are rewritten to the new offsets without reordering
        anything, so the search continues exactly as it would have
        without collection.
        """
        arena = self._arena
        new: List[int] = [0]
        remap: Dict[int, int] = {}
        for refs in (self._clause_refs, self._learnt_refs):
            for i, ref in enumerate(refs):
                end = arena[ref - 1]
                nref = len(new) + 1
                new.append(nref + end - ref)
                new.extend(arena[ref:end])
                remap[ref] = nref
                refs[i] = nref
        for ws in self._watches:
            for p in range(0, len(ws), 2):
                ws[p] = remap[ws[p]]
        for bins in self._bins:
            for p in range(1, len(bins), 2):
                bins[p] = remap[bins[p]]
        reason = self._reason
        for var in range(self.num_vars):
            r = reason[var]
            if r >= 0:
                reason[var] = remap[r]
        self._clause_act = {remap[ref]: activity
                            for ref, activity in self._clause_act.items()}
        self._arena = new
        self._wasted = 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> Optional[bool]:
        """Search for a model.

        Args:
            assumptions: DIMACS literals assumed true for this call only.
            conflict_budget: abort with ``None`` after this many conflicts.

        Returns:
            True if satisfiable, False if unsatisfiable (under assumptions),
            None if the budget ran out.
        """
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
        max_learnts = max(2000, len(self._clause_refs) // 2)

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
                    # Conflict forced by the assumptions alone.
                    self._cancel_until(0)
                    return False
                learnt, back_level = self._analyze(conflict)
                back_level = max(back_level, 0)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    # Unit learnt: fix at the root; assumptions get re-placed
                    # by the decision loop since the trail is now empty.
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        return False
                else:
                    ref = self._alloc(learnt)
                    self._attach(ref)
                    self._learnt_refs.append(ref)
                    self._clause_act[ref] = self._cla_inc
                    self._enqueue(learnt[0], ref)
                self._var_inc /= 0.95
                self._cla_inc /= 0.999
                if len(self._learnt_refs) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_index += 1
                    restart_limit = 128 * _luby_sequence(restart_index)
                    self.restarts += 1
                    self._cancel_until(0)
                    # Light inprocessing: once enough new root facts have
                    # accumulated, clean the clause database against them.
                    if (self.preprocess_enabled
                            and len(self._trail) - self._last_root_size
                            >= INPROCESS_MIN_UNITS):
                        self.inprocess_runs += 1
                        self.inprocess_removed += root_simplify(self)
                        self._last_root_size = len(self._trail)
                        if self._unsat:
                            return False
                continue
            # No conflict: place assumptions, then decide.
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
        """Value of a variable in the most recent satisfying assignment.

        Reads the extended model snapshot when one exists, so variables
        removed by the preprocessor (pure literals, bounded elimination)
        still answer exactly as they would in an unpreprocessed run.
        """
        var = dimacs_var - 1
        if var >= self.num_vars:
            return False
        source = self._model if self._model is not None else self._assign
        val = source[var]
        if val == _UNDEF:
            return False
        return val == 1
