"""CDCL stats surface: the stats() snapshot and its monotonicity across
checks."""

import itertools
import random

from repro.smt import SAT, Solver, bv_val, bv_var, eq
from repro.smt.sat.solver import SatSolver

STAT_KEYS = {"conflicts", "decisions", "propagations", "restarts",
             "learned", "learned_deleted",
             # Preprocessing surface (see smt/sat/preprocess.py).
             "live_clauses", "eliminated", "pp_runs", "pp_units",
             "pp_pure_literals", "pp_subsumed", "pp_strengthened",
             "pp_eliminated_vars", "pp_resolvents", "pp_removed_clauses",
             "pp_restored_vars", "inprocess_runs", "inprocess_removed"}


def _pigeonhole(solver: SatSolver, n: int) -> None:
    def var(i, j):
        return i * n + j + 1

    for i in range(n + 1):
        solver.add_clause([var(i, j) for j in range(n)])
    for j in range(n):
        for a, b in itertools.combinations(range(n + 1), 2):
            solver.add_clause([-var(a, j), -var(b, j)])


def test_stats_keys_and_initial_zero():
    solver = SatSolver()
    stats = solver.stats()
    assert set(stats) == STAT_KEYS
    assert all(v == 0 for v in stats.values())


def test_stats_monotone_across_checks():
    """Cumulative counters never decrease over repeated solves."""
    rng = random.Random(7)
    n = 60
    solver = SatSolver()
    previous = solver.stats()
    for round_ in range(3):
        for _ in range(40):
            lits = rng.sample(range(1, n + 1), 3)
            solver.add_clause([lit if rng.random() < 0.5 else -lit
                               for lit in lits])
        assert solver.solve() in (True, False)
        current = solver.stats()
        for key in ("conflicts", "decisions", "propagations",
                    "restarts", "learned_deleted"):
            assert current[key] >= previous[key], key
        previous = current


def test_deletion_and_restart_counts_surface():
    solver = SatSolver()
    _pigeonhole(solver, 7)
    assert solver.solve() is False
    stats = solver.stats()
    assert stats["conflicts"] > 100
    assert stats["learned"] >= 0
    assert stats["learned_deleted"] >= 0


def test_facade_stats_expose_sat_counters():
    solver = Solver()
    x = bv_var("x", 8)
    solver.add(eq(x, bv_val(3, 8)))
    assert solver.check() is SAT
    stats = solver.stats
    assert stats["vars"] > 0 and stats["clauses"] > 0
    assert STAT_KEYS <= set(stats)


def test_stats_monotone_across_simplify_solve_cycles():
    """Interleaved simplify()/solve() cycles must keep every cumulative
    counter monotone — in particular learned_deleted, which also absorbs
    learnt clauses dropped by preprocessing and root simplification, not
    just DB reduction."""
    rng = random.Random(13)
    n = 80
    solver = SatSolver()
    solver.preprocess_enabled = True
    cumulative = ("conflicts", "decisions", "propagations", "restarts",
                  "learned_deleted", "pp_runs", "pp_units",
                  "pp_pure_literals", "pp_subsumed", "pp_strengthened",
                  "pp_eliminated_vars", "pp_resolvents",
                  "pp_removed_clauses", "pp_restored_vars",
                  "inprocess_runs", "inprocess_removed")
    previous = solver.stats()
    cycles_run = 0
    for cycle in range(4):
        for _ in range(120):
            lits = rng.sample(range(1, n + 1), 3)
            solver.add_clause([lit if rng.random() < 0.5 else -lit
                               for lit in lits])
        still_sat = solver.simplify(force=True)
        mid = solver.stats()
        for key in cumulative:
            assert mid[key] >= previous[key], f"{key} shrank in simplify"
        outcome = solver.solve()
        assert outcome in (True, False)
        current = solver.stats()
        for key in cumulative:
            assert current[key] >= mid[key], f"{key} shrank in solve"
        previous = current
        cycles_run += 1
        if not still_sat or not outcome:
            break  # formula went UNSAT; counters stay frozen from here
    assert cycles_run >= 2, "formula went UNSAT too early to exercise cycles"


def test_learned_deleted_counts_preprocess_drops():
    """A learnt clause discarded because preprocessing eliminated one of
    its variables must show up in learned_deleted."""
    rng = random.Random(5)
    n = 60
    solver = SatSolver()
    solver.preprocess_enabled = True
    for _ in range(240):
        lits = rng.sample(range(1, n + 1), 3)
        solver.add_clause([lit if rng.random() < 0.5 else -lit
                           for lit in lits])
    # Accumulate learnts without preprocessing having run yet.
    first = solver.solve(conflict_budget=400)
    stats_before = solver.stats()
    if first is not None and stats_before["learned"] > 0:
        solver.simplify(force=True)
        stats_after = solver.stats()
        dropped = stats_before["learned"] - stats_after["learned"]
        assert (stats_after["learned_deleted"]
                >= stats_before["learned_deleted"] + max(0, dropped) - 0)
        assert (stats_after["learned_deleted"]
                >= stats_before["learned_deleted"])
