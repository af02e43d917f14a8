"""Solver state that lives as long as a cached encoding stays lean.

After a check on a pods-2 fat-tree group encoding: the CNF buffer is
drained (the SAT arena is the only copy of a clause), the clause count
is unchanged, each eliminated variable's clauses are one flat tuple the
cycle collector no longer tracks, the reconstruction stack is a list of
ints, literals without clauses share one empty slot instead of owning
four lists each, and every stored literal and eliminated-variable key is
the one shared int object for its value.
"""

import gc
import sys
import threading

import pytest

from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.core.engine import BatchQuery, GroupEncoding
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.smt.sat.preprocess import stored_clauses
from repro.smt.sat.solver import _LITS, SatSolver


@pytest.fixture(scope="module")
def checked_solver():
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
    return group.solver


def _arena_lits(arena):
    """Every literal slot of the arena, dead gaps included."""
    pos = 1
    while pos < len(arena):
        end = arena[pos]
        yield from arena[pos + 1 : end]
        pos = end


def test_lean_state_after_check(checked_solver):
    solver = checked_solver
    sat = solver._sat

    # Drained buffer, same counts as when every clause was kept.
    assert solver._cnf.clauses == []
    assert solver.num_variables == 2161
    assert solver.num_clauses == 6707
    assert solver.stats["clauses"] == 6707
    assert solver._num_clauses_loaded == 6707

    # One flat tuple per eliminated variable, untracked after one
    # collection; the reconstruction stack holds one witness int each.
    records = sat._elim_clauses
    assert records and set(records) == sat._eliminated
    assert all(type(record) is tuple for record in records.values())
    assert all(type(lit) is int for r in records.values() for lit in r)
    gc.collect()
    assert not any(gc.is_tracked(record) for record in records.values())
    assert type(sat._reconstruction) is list
    assert all(type(witness) is int for witness in sat._reconstruction)
    assert sorted(w >> 1 for w in sat._reconstruction) == sorted(records)
    for witness in sat._reconstruction:
        clauses = list(stored_clauses(records[witness >> 1]))
        assert witness in clauses[0]
        assert all(witness in c or witness ^ 1 in c for c in clauses)

    # Empty slots share one ``()``.  The search may empty a list it
    # already owns (it keeps it), but a literal that never had a
    # clause owns no list: every slot of an eliminated variable is
    # the shared tuple.
    arrays = (sat._watch_refs, sat._watch_blk, sat._bin_lits, sat._bin_refs)
    slots = [slot for array in arrays for slot in array]
    shared = [slot for slot in slots if type(slot) is tuple]
    emptied = {id(slot) for slot in slots if type(slot) is list and not slot}
    assert shared and all(slot == () for slot in shared)
    assert len({id(slot) for slot in shared}) == 1
    assert len(emptied) * 50 < len(shared)
    for var in sat._eliminated:
        for array in arrays:
            assert type(array[2 * var]) is tuple
            assert type(array[2 * var + 1]) is tuple


def test_one_object_per_literal(checked_solver):
    sat = checked_solver._sat
    stored = list(_arena_lits(sat._arena))
    for array in (sat._watch_blk, sat._bin_lits):
        for slot in array:
            stored.extend(slot)
    for record in sat._elim_clauses.values():
        for clause in stored_clauses(record):
            stored.extend(clause)
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
