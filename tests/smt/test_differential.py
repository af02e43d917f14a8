"""Differential suite: flat-arena SatSolver vs the list-based reference.

The arena solver promises *op-for-op* fidelity to
:class:`repro.smt.sat.reference.ReferenceSatSolver` — same decisions,
same conflicts, same learned clauses, same models — so every counter in
``stats()`` must match exactly, not just the verdict.  These tests pit
the two implementations against each other over three CNF sources of
increasing realism: raw random/crafted CNFs, Tseitin-transformed term
formulas, and real fat-tree / cloud network verification encodings.
"""

import itertools
import random

import pytest

from repro.smt import (
    Solver,
    and_,
    bool_var,
    bv_val,
    bv_var,
    eq,
    implies,
    not_,
    or_,
    ule,
    xor,
)
from repro.smt.sat import ReferenceSatSolver, SatSolver


def solve_both(clauses, num_vars, preprocess, budget=None):
    """Run both solvers on one CNF; assert full behavioral identity.

    Returns the (shared) outcome so callers can assert SAT/UNSAT-ness.
    """
    runs = []
    for cls in (SatSolver, ReferenceSatSolver):
        solver = cls()
        solver.preprocess_enabled = preprocess
        solver.ensure_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        outcome = solver.solve(conflict_budget=budget)
        runs.append((outcome, solver))
    (out_a, arena), (out_b, reference) = runs
    assert out_a == out_b
    assert arena.stats() == reference.stats()
    if out_a:
        models = [[s.model_value(v) for v in range(1, num_vars + 1)]
                  for _, s in runs]
        assert models[0] == models[1]
    return out_a


def random_cnf(rng, n, ratio=4.26, width=3):
    clauses = []
    for _ in range(int(n * ratio)):
        lits = rng.sample(range(1, n + 1), width)
        clauses.append([lit if rng.random() < 0.5 else -lit
                        for lit in lits])
    return clauses


def facade_cnf(solver: Solver):
    """Extract the raw CNF a facade solver would hand its CDCL core."""
    return [list(c) for c in solver._cnf.clauses], solver._cnf.num_vars


class TestRawCnf:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("preprocess", [False, True])
    def test_random_3sat(self, seed, preprocess):
        rng = random.Random(seed)
        solve_both(random_cnf(rng, 100), 100, preprocess, budget=20000)

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_pigeonhole_unsat(self, preprocess):
        n = 6
        clauses = []

        def var(i, j):
            return i * n + j + 1

        for i in range(n + 1):
            clauses.append([var(i, j) for j in range(n)])
        for j in range(n):
            for a, b in itertools.combinations(range(n + 1), 2):
                clauses.append([-var(a, j), -var(b, j)])
        assert solve_both(clauses, (n + 1) * n, preprocess) is False

    def test_budget_exhaustion_identical(self):
        rng = random.Random(99)
        clauses = random_cnf(rng, 140, ratio=4.3)
        # A budget small enough to likely abort mid-search on both.
        solve_both(clauses, 140, True, budget=50)

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_growth_preprocesses_once(self, seed):
        """Clauses added between solves, far past the growth that used
        to re-run preprocessing: both solvers stay identical, and
        neither preprocesses a second time."""
        rng = random.Random(seed)
        solvers = [cls() for cls in (SatSolver, ReferenceSatSolver)]
        for solver in solvers:
            solver.preprocess_enabled = True
            solver.ensure_vars(400)
        batches = [random_cnf(rng, 400, ratio=1.5)]
        batches += [random_cnf(rng, 400, ratio=0.5) for _ in range(4)]
        for batch in batches:
            assumptions = [rng.choice([-1, 1]) * rng.randint(1, 400)
                           for _ in range(3)]
            outcomes = []
            for solver in solvers:
                for clause in batch:
                    solver.add_clause(clause)
                outcomes.append(solver.solve(assumptions,
                                             conflict_budget=20000))
            assert outcomes[0] == outcomes[1]
            assert solvers[0].stats() == solvers[1].stats()
        assert solvers[0].stats()["pp_runs"] == 1


class TestTseitinTerms:
    def _extract(self, terms):
        facade = Solver()
        facade.add(*terms)
        return facade_cnf(facade)

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_boolean_circuit(self, preprocess):
        a, b, c, d = (bool_var(f"diff_bc_{x}") for x in "abcd")
        terms = [
            implies(and_(a, b), or_(c, d)),
            xor(a, c),
            or_(not_(b), xor(b, d)),
            not_(and_(a, b, c, d)),
        ]
        clauses, num_vars = self._extract(terms)
        assert solve_both(clauses, num_vars, preprocess) is True

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_bitvector_arithmetic(self, preprocess):
        x = bv_var("diff_bv_x", 8)
        y = bv_var("diff_bv_y", 8)
        terms = [ule(x, y), eq(y, bv_val(17, 8)), not_(eq(x, y))]
        clauses, num_vars = self._extract(terms)
        assert solve_both(clauses, num_vars, preprocess) is True

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_bitvector_unsat(self, preprocess):
        x = bv_var("diff_bu_x", 6)
        terms = [ule(bv_val(40, 6), x), ule(x, bv_val(10, 6))]
        clauses, num_vars = self._extract(terms)
        assert solve_both(clauses, num_vars, preprocess) is False

    @pytest.mark.parametrize("seed", range(3))
    def test_random_term_soup(self, seed):
        rng = random.Random(seed)
        atoms = [bool_var(f"diff_soup{seed}_{i}") for i in range(10)]

        def build(depth):
            if depth == 0:
                atom = rng.choice(atoms)
                return not_(atom) if rng.random() < 0.5 else atom
            op = rng.choice([and_, or_, xor, implies])
            if op in (xor, implies):
                return op(build(depth - 1), build(depth - 1))
            return op(*[build(depth - 1)
                        for _ in range(rng.randint(2, 3))])

        terms = [build(4) for _ in range(4)]
        clauses, num_vars = self._extract(terms)
        solve_both(clauses, num_vars, True)


class TestNetworkEncodings:
    def _property_cnf(self, network, prop, dst_prefix=None):
        """The exact CNF a Verifier check would discharge: network
        constraints, property instrumentation, negated property."""
        from repro.core.encoder import EncoderOptions, NetworkEncoder

        encoder = NetworkEncoder(network, EncoderOptions())
        enc = encoder.encode(dst_prefix=dst_prefix)
        facade = Solver()
        facade.add(*enc.constraints, label="network")
        mark = enc.checkpoint()
        prop_term = prop.encode(enc)
        facade.add(*enc.constraints_since(mark), label="instrumentation")
        facade.add(not_(prop_term), label="property")
        return facade_cnf(facade)

    @pytest.mark.parametrize("preprocess", [False, True])
    def test_fattree_reachability(self, preprocess):
        from repro.core import properties as P
        from repro.gen import build_fattree
        from repro.net import ip as iplib

        tree = build_fattree(2)
        subnet = tree.tor_subnet(tree.tors[0])
        prop = P.Reachability(sources="all", dest_prefix_text=subnet)
        clauses, num_vars = self._property_cnf(
            tree.network, prop, dst_prefix=iplib.parse_prefix(subnet))
        assert solve_both(clauses, num_vars, preprocess) is False

    @pytest.mark.parametrize("index", [0, 120])
    def test_cloud_blackhole_check(self, index):
        """One seeded-bug network (index 0: hijack) and one clean one
        (index 120); the CNFs differ in satisfiability, both must agree
        across solvers."""
        from repro.core import properties as P
        from repro.gen.cloud import build_cloud_network

        cloud = build_cloud_network(index)
        prefix = cloud.management_prefixes[0]
        prop = P.NoBlackHoles(dest_prefix_text=prefix)
        clauses, num_vars = self._property_cnf(cloud.network, prop)
        solve_both(clauses, num_vars, True, budget=50000)
