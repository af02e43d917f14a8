"""Incremental-solving contract of the Solver facade.

The batch verification engine leans on three behaviors that the lazy
load-balancing loop only partially exercised: clause loading is exactly
once per clause across checks, assumption-based checks leave the solver
reusable, and models from assumption-based checks satisfy both the
assertions and the assumptions.
"""

import pytest

from repro.smt import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    and_,
    bool_var,
    bv_val,
    bv_var,
    eq,
    evaluate,
    implies,
    not_,
    or_,
    ule,
)


class TestIncrementalAdd:
    def test_add_after_sat_check_then_recheck(self):
        a, b = bool_var("inc_a"), bool_var("inc_b")
        s = Solver()
        s.add(or_(a, b))
        assert s.check() is SAT
        s.add(not_(a))
        assert s.check() is SAT
        assert s.model().value("inc_b") is True
        s.add(not_(b))
        assert s.check() is UNSAT

    def test_clauses_loaded_exactly_once(self):
        a, b, c = (bool_var(f"inc1_{i}") for i in "abc")
        s = Solver()
        s.add(or_(a, b))
        assert s.check() is SAT
        loaded_after_first = s._num_clauses_loaded
        assert loaded_after_first == s.num_clauses
        sat_clauses_after_first = s._sat.stats()["live_clauses"]
        # Re-checking without new assertions must not reload anything.
        assert s.check() is SAT
        assert s._num_clauses_loaded == loaded_after_first
        assert s._sat.stats()["live_clauses"] == sat_clauses_after_first
        # New assertions load only the delta.
        s.add(or_(b, c))
        assert s.check() is SAT
        assert s._num_clauses_loaded == s.num_clauses
        assert s._num_clauses_loaded > loaded_after_first

    def test_unsat_under_assumptions_does_not_poison_solver(self):
        a = bool_var("inc2_a")
        s = Solver()
        s.add(or_(a, not_(a)))
        assert s.check([a, not_(a)]) is UNSAT
        assert s.check() is SAT
        s.add(a)
        assert s.check() is SAT


class TestAssumptionReuse:
    def test_assumption_check_then_unconstrained_check(self):
        a, b = bool_var("asm_a"), bool_var("asm_b")
        s = Solver()
        s.add(implies(a, b))
        assert s.check([a]) is SAT
        assert s.model().value("asm_b") is True
        # The assumption must not persist.
        assert s.check() is SAT
        assert s.check([not_(b)]) is SAT
        assert s.model().value("asm_a") in (False, None)
        # And the solver still accepts assertions after assumption checks.
        s.add(a)
        assert s.check() is SAT
        assert s.model().value("asm_b") is True

    def test_assumption_literals_cached_across_checks(self):
        a, b = bool_var("asm2_a"), bool_var("asm2_b")
        s = Solver()
        s.add(or_(a, b))
        guard = and_(a, not_(b))
        assert s.check([guard]) is SAT
        clauses_after_first = s.num_clauses
        lit = s._assumption_lit_cache[guard.tid]
        assert s.check([guard]) is SAT
        # Second use of the same assumption term re-uses the literal and
        # emits no further clauses.
        assert s._assumption_lit_cache[guard.tid] == lit
        assert s.num_clauses == clauses_after_first

    def test_model_from_assumption_check_is_consistent(self):
        x = bv_var("asm_x", 8)
        y = bv_var("asm_y", 8)
        s = Solver()
        s.add(eq(y, bv_val(7, 8)))
        assumption = ule(x, y)
        assert s.check([assumption]) is SAT
        env = s.model().env()
        assert evaluate(assumption, env) is True
        assert evaluate(eq(y, bv_val(7, 8)), env) is True
        # Conflicting assumption on the next call, then drop it again.
        assert s.check([not_(ule(x, y)), ule(x, bv_val(3, 8))]) is UNSAT
        assert s.check() is SAT

    def test_opposite_polarity_assumptions_across_checks(self):
        a, b = bool_var("asm3_a"), bool_var("asm3_b")
        s = Solver()
        s.add(or_(a, b))
        term = and_(a, b)
        assert s.check([term]) is SAT
        env = s.model().env()
        assert env["asm3_a"] is True and env["asm3_b"] is True
        assert s.check([not_(term), not_(b)]) is SAT
        env = s.model().env()
        assert env["asm3_a"] is True
        assert env.get("asm3_b", False) is False


class TestUnknownTruthiness:
    def test_bool_unknown_raises(self):
        with pytest.raises(TypeError):
            bool(UNKNOWN)

    def test_bool_sat_unsat_still_work(self):
        assert bool(SAT) is True
        assert bool(UNSAT) is False

    def test_budget_exhausted_check_cannot_be_used_as_truth(self):
        import itertools
        # A small pigeonhole-flavored instance with a 1-conflict budget.
        holes = [[bool_var(f"ph_{p}_{h}") for h in range(3)]
                 for p in range(4)]
        s = Solver(conflict_budget=1)
        for pigeon in holes:
            s.add(or_(*pigeon))
        for h in range(3):
            for p1, p2 in itertools.combinations(range(4), 2):
                s.add(or_(not_(holes[p1][h]), not_(holes[p2][h])))
        outcome = s.check()
        assert outcome is UNKNOWN
        with pytest.raises(TypeError):
            bool(outcome)
