"""Solver state that lives as long as a cached encoding stays lean.

After a check on a pods-2 fat-tree group encoding: the CNF buffer is
drained (the SAT arena is the only copy of a clause), the clause count
is unchanged, each eliminated variable's clauses are one flat int32
``bytes`` record the cycle collector never tracks, the reconstruction
stack is a list of ints, each literal owns at most one watch list and
one binary implication list (interleaved pairs; a literal without
clauses shares one empty slot), and every stored literal and
eliminated-variable key is the one shared int object for its value,
restored clauses included.  A forced compaction remaps the pairs
without changing the search.
"""

import gc
import random
import sys
import threading

import pytest

from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.core.engine import BatchQuery, GroupEncoding
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.smt.sat.preprocess import stored_clauses
from repro.smt.sat.reference import ReferenceSatSolver
from repro.smt.sat.solver import _LITS, SatSolver


def _checked_group():
    tree = build_fattree(2)
    subnet = tree.tor_subnet(tree.tors[0])
    group = GroupEncoding(
        tree.network,
        EncoderOptions(),
        dst_prefix=iplib.parse_prefix(subnet),
    )
    result = group.solve_one(
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=subnet))
    )
    assert result.holds is True
    return group


@pytest.fixture(scope="module")
def checked_solver():
    return _checked_group().solver


def _arena_lits(arena):
    """Every literal slot of the arena, dead gaps included."""
    pos = 1
    while pos < len(arena):
        end = arena[pos]
        yield from arena[pos + 1 : end]
        pos = end


def _per_literal_tables(sat):
    """The solver's attributes that hold one slot per literal."""
    size = 2 * sat.num_vars + 2
    return {
        name: value
        for name, value in vars(sat).items()
        if type(value) is list
        and len(value) == size
        and all(type(slot) in (list, tuple) for slot in value)
    }


def _random_3sat(seed, num_vars, ratio=4.26):
    rng = random.Random(seed)
    variables = range(1, num_vars + 1)
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3)]
        for _ in range(int(num_vars * ratio))
    ]


def test_lean_state_after_check(checked_solver):
    solver = checked_solver
    sat = solver._sat

    # Drained buffer, same counts as when every clause was kept.
    assert solver._cnf.clauses == []
    assert solver.num_variables == 2158
    assert solver.num_clauses == 6703
    assert solver.stats["clauses"] == 6703
    assert solver._num_clauses_loaded == 6703

    # One flat int32 buffer per eliminated variable; the reconstruction
    # stack holds one witness int each.
    records = sat._elim_clauses
    assert records and set(records) == sat._eliminated
    assert all(type(record) is bytes for record in records.values())
    for record in records.values():
        lits = sum(1 + len(clause) for clause in stored_clauses(record))
        assert len(record) == 4 * lits
    assert not any(gc.is_tracked(record) for record in records.values())
    assert type(sat._reconstruction) is list
    assert all(type(witness) is int for witness in sat._reconstruction)
    assert sorted(w >> 1 for w in sat._reconstruction) == sorted(records)
    for witness in sat._reconstruction:
        clauses = list(stored_clauses(records[witness >> 1]))
        assert witness in clauses[0]
        assert all(witness in c or witness ^ 1 in c for c in clauses)


def test_one_list_per_literal_per_kind(checked_solver):
    sat = checked_solver._sat
    arena = sat._arena

    # Exactly two per-literal tables: watches and binary implications.
    assert set(_per_literal_tables(sat)) == {"_watches", "_bins"}
    slots = sat._watches + sat._bins
    lists = [slot for slot in slots if type(slot) is list]
    assert len({id(slot) for slot in lists}) == len(lists)
    assert all(len(slot) % 2 == 0 for slot in lists)

    # ``ref, blocker`` pairs of long clauses; ``implied, ref`` pairs of
    # binary ones.  The other literal of each pair is in its clause.
    for lit, ws in enumerate(sat._watches):
        for ref, blocker in zip(ws[::2], ws[1::2]):
            clause = arena[ref : arena[ref - 1]]
            assert len(clause) > 2 and lit ^ 1 in clause[:2]
            assert blocker in clause
    for lit, bins in enumerate(sat._bins):
        for implied, ref in zip(bins[::2], bins[1::2]):
            assert sorted(arena[ref : arena[ref - 1]]) == sorted(
                [lit ^ 1, implied]
            )

    # Empty slots share one ``()``.  The search may empty a list it
    # already owns (it keeps it), but a literal that never had a
    # clause owns no list: every slot of an eliminated variable is
    # the shared tuple.
    shared = [slot for slot in slots if type(slot) is tuple]
    emptied = [slot for slot in lists if not slot]
    assert shared and all(slot == () for slot in shared)
    assert len({id(slot) for slot in shared}) == 1
    assert len(emptied) * 50 < len(shared)
    for var in sat._eliminated:
        for table in (sat._watches, sat._bins):
            assert type(table[2 * var]) is tuple
            assert type(table[2 * var + 1]) is tuple


def test_one_object_per_literal(checked_solver):
    sat = checked_solver._sat
    stored = list(_arena_lits(sat._arena))
    for ws in sat._watches:
        stored.extend(ws[1::2])  # blockers
    for bins in sat._bins:
        stored.extend(bins[::2])  # implied literals
    stored.extend(sat._reconstruction)
    stored.extend(sat._trail)
    assert len(stored) > 10000
    assert all(lit is _LITS[lit] for lit in stored)
    assert len({id(lit) for lit in stored}) <= 2 * sat.num_vars
    # Eliminated variables are keys of the elimination store and members
    # of the eliminated set for as long as the encoding lives.
    keys = list(sat._elim_clauses) + list(sat._eliminated)
    assert max(keys) > 256  # beyond CPython's small-int cache
    assert all(var is _LITS[var] for var in keys)


def test_restored_clauses_use_the_shared_literals():
    sat = _checked_group().solver._sat
    restored = sorted(sat._eliminated, reverse=True)[:20]
    assert min(restored) > 256  # beyond CPython's small-int cache
    before = len(sat._clause_refs)
    for var in restored:
        sat.freeze(var + 1)
    assert not sat._unsat
    assert len(sat._clause_refs) > before
    assert not set(restored) & sat._eliminated
    stored = list(_arena_lits(sat._arena)) + sat._trail
    assert all(lit is _LITS[lit] for lit in stored)


def test_records_are_never_tracked():
    """Untracked from the start, not only after a collection pass."""
    solver = SatSolver()
    for clause in _random_3sat(0, 300, ratio=2.0):
        solver.add_clause(clause)
    enabled = gc.isenabled()
    gc.disable()
    try:
        solver.simplify(force=True)
        records = list(solver._elim_clauses.values())
        assert records
        assert not any(gc.is_tracked(record) for record in records)
    finally:
        if enabled:
            gc.enable()


def test_forced_compaction_keeps_the_search():
    """Seeded so the first call stops after a learnt-clause reduction.

    The compaction then moves both watch and binary pairs, and the
    resumed search still matches the list-based reference op for op.
    """
    cnf = _random_3sat(4, 150)
    arena, reference = SatSolver(), ReferenceSatSolver()
    for solver in (arena, reference):
        for clause in cnf:
            solver.add_clause(clause)
        assert solver.solve(conflict_budget=2200) is None
    assert arena.stats() == reference.stats()
    assert arena.learned_deleted > 0 and arena._wasted > 0
    watches = [list(ws) for ws in arena._watches]
    bins = [list(b) for b in arena._bins]
    arena._compact()
    assert arena._wasted == 0
    moved_watches = moved_bins = 0
    for old, new in zip(watches, map(list, arena._watches)):
        assert old[1::2] == new[1::2]  # blockers stay
        moved_watches += sum(a != b for a, b in zip(old[::2], new[::2]))
    for old, new in zip(bins, map(list, arena._bins)):
        assert old[::2] == new[::2]  # implied literals stay
        moved_bins += sum(a != b for a, b in zip(old[1::2], new[1::2]))
    assert moved_watches and moved_bins
    assert arena.solve() is reference.solve() is False
    assert arena.stats() == reference.stats()


def test_concurrent_growth_keeps_the_table_exact():
    base = len(_LITS) // 2
    errors = []

    def build(offset):
        try:
            for step in range(1000):
                solver = SatSolver()
                solver.ensure_vars(base + 2 * step + offset)
                solver.add_clause([1, -(base + 2 * step + offset)])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=build, args=(offset,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(_LITS) >= 2 * (base + 2 * 999 + 3)
    assert all(_LITS[i] == i for i in range(len(_LITS)))
