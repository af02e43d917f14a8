"""CNF preprocessing: the correctness contract with incremental solving.

Covers the frozen-variable protocol (assumptions over frozen vars keep
working across repeated ``solve()`` calls with clauses added between),
``model_value()`` on eliminated and pure-erased variables (answered by
the reconstruction stack), UNSAT-under-assumptions after elimination,
and randomized differentials against a non-preprocessing twin — over
generated CNF and over real (small fat-tree / OSPF fixture) queries."""

import random

from repro.core import EncoderOptions, Verifier, properties as P
from repro.gen import build_fattree
from repro.smt import SAT, Solver, UNSAT, bool_var
from repro.smt.sat.reference import ReferenceSatSolver
from repro.smt.sat.solver import SatSolver
from repro.smt.terms import and_, not_, or_

from tests.core.test_verifier import diamond, ospf_chain


def _satisfies(solver: SatSolver, clause) -> bool:
    return any(solver.model_value(abs(lit)) == (lit > 0)
               for lit in clause)


def _random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        lits = rng.sample(range(1, num_vars + 1), width)
        clauses.append([lit if rng.random() < 0.5 else -lit
                        for lit in lits])
    return clauses


class TestFrozenProtocol:
    def test_assumptions_over_frozen_vars_across_solves(self):
        """Frozen assumption vars survive elimination; clauses added
        between solves extend the simplified instance soundly."""
        solver = SatSolver()
        solver.preprocess_enabled = True
        for a, b in zip(range(1, 6), range(2, 7)):
            solver.add_clause([-a, b])       # chain v1 -> ... -> v6
        solver.freeze(1)
        solver.freeze(6)
        assert solver.simplify(force=True)
        stats = solver.stats()
        assert stats["pp_runs"] == 1
        assert stats["pp_eliminated_vars"] > 0
        # _eliminated holds internal (dimacs - 1) indices.
        assert 0 not in solver._eliminated
        assert 5 not in solver._eliminated

        assert solver.solve([1]) is True
        assert solver.model_value(6) is True   # chain propagated
        # Grow the instance between solves: v6 -> v7.
        solver.add_clause([-6, 7])
        assert solver.solve([1]) is True
        assert solver.model_value(7) is True
        assert solver.solve([-6]) is True
        assert solver.model_value(1) is False

    def test_unsat_under_assumptions_after_elimination(self):
        solver = SatSolver()
        solver.preprocess_enabled = True
        for a, b in zip(range(1, 8), range(2, 9)):
            solver.add_clause([-a, b])
        solver.freeze(1)
        solver.freeze(8)
        assert solver.simplify(force=True)
        assert solver.solve([1, -8]) is False  # chain forces v8
        # The solver stays usable after the assumption conflict.
        assert solver.solve([1]) is True
        assert solver.solve([-8]) is True

    def test_assuming_an_eliminated_var_restores_it(self):
        solver = SatSolver()
        solver.preprocess_enabled = True
        # A cycle, so no variable is pure and BVE does the removing.
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, 1])
        assert solver.simplify(force=True)
        assert solver.stats()["pp_eliminated_vars"] > 0
        # No freeze: v2 was eliminated, yet assuming it must work.
        assert solver.solve([2]) is True
        assert solver.model_value(3) is True
        assert solver.stats()["pp_restored_vars"] > 0


class TestReconstructedModels:
    def test_model_value_on_eliminated_and_pure_vars(self):
        solver = SatSolver()
        solver.preprocess_enabled = True
        clauses = [[1, 2], [-2, 3], [3, 4], [-4, -1],
                   [5, 1], [5, 2]]          # v5 occurs only positively
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.simplify(force=True)
        stats = solver.stats()
        assert stats["pp_eliminated_vars"] + stats["pp_pure_literals"] > 0
        assert solver.solve() is True
        for clause in clauses:
            assert _satisfies(solver, clause), clause

    def test_restore_then_reeliminate_uses_newest_entry(self):
        """A variable that comes back via ``add_clause`` and is
        re-eliminated by a later simplify keeps exactly one
        reconstruction entry, and model extension answers from its
        newest clauses.  Regressions: the stale older entry was once
        replayed last and overwrote the correct value, yielding a model
        that violated asserted clauses; later, stale entries stayed on
        the stack for the life of the solver."""
        for cls in (SatSolver, ReferenceSatSolver):
            solver = cls()
            solver.preprocess_enabled = True
            solver.add_clause([1, 2])
            assert solver.simplify(force=True)   # pure-eliminates v1
            assert 0 in solver._eliminated
            solver.add_clause([1, 4])            # restores v1
            assert 0 not in solver._eliminated
            solver.add_clause([2])
            assert solver.simplify(force=True)   # re-eliminates v1
            assert 0 in solver._eliminated
            assert [w >> 1 for w in solver._reconstruction] == [0]
            solver.add_clause([-4])
            assert solver.solve() is True
            # (1 v 4) with v4 forced False leaves only v1 to satisfy it.
            assert solver.model_value(4) is False
            assert solver.model_value(1) is True
            for clause in ([1, 2], [1, 4], [2], [-4]):
                assert _satisfies(solver, clause), (cls, clause)

    def test_model_survives_clause_adds_after_sat(self):
        """The model snapshot answers for the *last* SAT solve even
        if later add_clause calls restore eliminated variables."""
        solver = SatSolver()
        solver.preprocess_enabled = True
        clauses = [[1, 2], [-1, 3], [-2, 3]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.simplify(force=True)
        assert solver.solve() is True
        values = {v: solver.model_value(v) for v in (1, 2, 3)}
        solver.add_clause([3, 1])            # may trigger restores
        assert values == {v: solver.model_value(v) for v in (1, 2, 3)}


class TestRandomizedDifferential:
    def test_forced_simplify_matches_twin(self):
        rng = random.Random(20260805)
        for trial in range(60):
            num_vars = rng.randint(6, 14)
            clauses = _random_cnf(rng, num_vars, rng.randint(10, 50))
            frozen = rng.sample(range(1, num_vars + 1),
                                rng.randint(0, 3))
            pp, twin = SatSolver(), SatSolver()
            pp.preprocess_enabled = True
            for clause in clauses:
                pp.add_clause(clause)
                twin.add_clause(clause)
            for var in frozen:
                pp.freeze(var)
            pp.simplify(force=True)
            verdict = pp.solve()
            assert verdict == twin.solve(), (trial, clauses)
            if verdict:
                for clause in clauses:
                    assert _satisfies(pp, clause), (trial, clause)

    def test_incremental_phases_match_twin(self):
        rng = random.Random(77)
        for trial in range(30):
            num_vars = rng.randint(8, 12)
            pp, twin = SatSolver(), SatSolver()
            pp.preprocess_enabled = True
            for phase in range(3):
                for clause in _random_cnf(rng, num_vars,
                                          rng.randint(8, 20)):
                    pp.add_clause(clause)
                    twin.add_clause(clause)
                if phase == 0:
                    pp.simplify(force=True)
                assumed = [var if rng.random() < 0.5 else -var
                           for var in rng.sample(range(1, num_vars + 1),
                                                 rng.randint(0, 2))]
                assert pp.solve(assumed) == twin.solve(assumed), \
                    (trial, phase)

    def test_facade_terms_differential(self):
        """Random term-level instances: same verdict, and the
        preprocessed model satisfies every asserted term."""
        rng = random.Random(11)
        for trial in range(25):
            num_vars = rng.randint(5, 9)
            names = [bool_var(f"b{i}") for i in range(num_vars)]
            terms = []
            for _ in range(rng.randint(6, 18)):
                lits = [name if rng.random() < 0.5 else not_(name)
                        for name in rng.sample(names, rng.randint(1, 3))]
                terms.append(or_(*lits))
            if rng.random() < 0.5:
                terms.append(and_(*rng.sample(names, 2)))
            pp = Solver(preprocess=True)
            twin = Solver(preprocess=False)
            pp.add(*terms)
            twin.add(*terms)
            pp.run_preprocess()              # force the gated pipeline
            verdict = pp.check()
            assert verdict is twin.check(), trial
            if verdict is SAT:
                model = pp.model()
                for term in terms:
                    assert model.eval(term) is True, (trial, term)
            else:
                assert verdict is UNSAT


class TestNetworkDifferential:
    def _verify_both(self, network, prop):
        on = Verifier(network,
                      options=EncoderOptions(preprocess=True))
        off = Verifier(network,
                       options=EncoderOptions(preprocess=False))
        return on.verify(prop), off.verify(prop)

    def test_ospf_chain_queries(self):
        builder, _ = ospf_chain(4)
        network = builder.build()
        for prop in (P.Reachability(sources="all",
                                    dest_prefix_text="10.9.0.0/24"),
                     P.Reachability(sources=["R1"],
                                    dest_prefix_text="172.20.0.0/16")):
            on, off = self._verify_both(network, prop)
            assert on.holds == off.holds

    def test_diamond_queries(self):
        network = diamond().build()
        for prop in (P.Reachability(sources="all",
                                    dest_prefix_text="10.9.0.0/24"),
                     P.NoForwardingLoops()):
            on, off = self._verify_both(network, prop)
            assert on.holds == off.holds

    def test_cloud_network_queries(self):
        """A generated cloud network — index 0 carries a seeded
        management-hijack, so one verdict is a genuine violation."""
        from repro.gen.cloud import build_cloud_network

        cloud = build_cloud_network(0)
        for prefix in cloud.management_prefixes[:2]:
            prop = P.Reachability(sources="all",
                                  dest_prefix_text=prefix)
            on, off = self._verify_both(cloud.network, prop)
            assert on.holds == off.holds

    def test_fattree_query_exercises_pipeline(self):
        """At 2 pods the encoding clears the min-clause gate, so the
        preprocessed run actually simplifies — and must agree."""
        tree = build_fattree(2)
        prop = P.Reachability(
            sources="all",
            dest_prefix_text=tree.tor_subnet(tree.tors[0]))
        on, off = self._verify_both(tree.network, prop)
        assert on.holds is True and off.holds is True


class TestConfigKnobs:
    def test_gate_skips_small_instances(self):
        solver = SatSolver()
        solver.preprocess_enabled = True
        solver.add_clause([1, 2])
        assert solver.simplify() is True     # gated: no run recorded
        assert solver.stats()["pp_runs"] == 0
