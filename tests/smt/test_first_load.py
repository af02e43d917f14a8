"""A first load goes straight from DIMACS clauses to the preprocessor.

``Preprocessor.load`` turns a fresh solver's clauses into the working
set without the arena that ``add_clause`` would fill and the
preprocessor would copy back out.  It must reach the state the arena
path reaches: the same clauses in the same order, the same eliminated
variables, elimination records, reconstruction stack and root
assignment, and so the same search.  The CNFs are seeded and random,
with the inputs that make conversion differ from a plain copy: units,
repeated literals, tautologies, literals false at the root,
conflicting units and the empty clause.
"""

import random

import pytest

from repro.core import EncoderOptions
from repro.core import properties as P
from repro.core.encoder import NetworkEncoder
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.smt import Solver
from repro.smt.sat.preprocess import MIN_CLAUSES, Preprocessor
from repro.smt.sat.reference import ReferenceSatSolver
from repro.smt.sat.solver import SatSolver
from repro.smt.terms import not_

SOLVERS = (SatSolver, ReferenceSatSolver)
SEEDS = range(24)
# Counters the arena path also advances while clauses are added: it
# propagates each root unit as it arrives, and it tallies root-true
# clauses only when the preprocessor copies them out of the arena.
LOAD_COUNTERS = ("propagations", "pp_removed_clauses")


def random_cnf(seed):
    """``(clauses, num_vars)``: sparse random CNF plus awkward clauses.

    Sparse enough that bounded elimination has work, with a few units
    whose propagation removes and shortens clauses.  Every fifth seed
    adds a pair of conflicting units, and every seventh the empty
    clause, each at a random position.
    """
    rng = random.Random(seed)
    num_vars = rng.randint(250, 400)
    clauses = []
    for _ in range(rng.randint(MIN_CLAUSES + 100, 2 * MIN_CLAUSES)):
        roll = rng.random()
        if roll < 0.01:
            width = 1
        elif roll < 0.15:
            width = 2
        else:
            width = rng.randint(3, 6)
        lits = [
            var if rng.random() < 0.5 else -var
            for var in rng.sample(range(1, num_vars + 1), width)
        ]
        if rng.random() < 0.05:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        if rng.random() < 0.03:
            lits.append(-rng.choice(lits))
        clauses.append(lits)
    if seed % 5 == 4:
        var = rng.randint(1, num_vars)
        clauses.insert(rng.randrange(len(clauses)), [var])
        clauses.insert(rng.randrange(len(clauses)), [-var])
    if seed % 7 == 6:
        clauses.insert(rng.randrange(len(clauses)), [])
    return clauses, num_vars


def through_arena(cls, clauses, num_vars, force):
    solver = cls()
    solver.preprocess_enabled = True
    solver.ensure_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    solver.simplify(force=force)
    return solver


def first_load(cls, clauses, num_vars, force):
    solver = cls()
    solver.preprocess_enabled = True
    solver.ensure_vars(num_vars)
    buffer = [list(clause) for clause in clauses]
    loaded = Preprocessor(solver)
    loaded.load(buffer)
    assert buffer == [None] * len(clauses)  # drained as converted
    solver.simplify(force=force, loaded=loaded)
    return solver


def state(solver):
    return {
        "unsat": solver._unsat,
        "clauses": solver.clause_lists(),
        "learnts": solver.learnt_lists(),
        "eliminated": sorted(solver._eliminated),
        "records": dict(solver._elim_clauses),
        "reconstruction": list(solver._reconstruction),
        "assign": list(solver._assign),
    }


def counters(solver):
    stats = solver.stats()
    return {k: v for k, v in stats.items() if k not in LOAD_COUNTERS}


def satisfies(solver, clauses):
    return all(
        any(solver.model_value(abs(lit)) == (lit > 0) for lit in clause)
        for clause in clauses
    )


@pytest.mark.parametrize("cls", SOLVERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_first_load_matches_the_arena_path(cls, seed):
    clauses, num_vars = random_cnf(seed)
    arena = through_arena(cls, clauses, num_vars, force=True)
    loaded = first_load(cls, clauses, num_vars, force=True)
    if arena._unsat:
        # Either path may find the conflict first; neither state is
        # used again.
        assert loaded._unsat and loaded.solve() is False
        return
    assert state(loaded) == state(arena)
    assert counters(loaded) == counters(arena)
    assert arena.pp_runs == 1 and arena.pp_eliminated_vars > 0

    before = loaded.propagations, arena.propagations
    verdict = arena.solve(conflict_budget=20000)
    assert loaded.solve(conflict_budget=20000) == verdict
    assert counters(loaded) == counters(arena)
    assert loaded.propagations - before[0] == arena.propagations - before[1]
    if verdict:
        assert satisfies(loaded, clauses) and satisfies(arena, clauses)


def test_the_cnfs_cover_every_awkward_input():
    kinds = set()
    for seed in SEEDS:
        clauses, num_vars = random_cnf(seed)
        for clause in clauses:
            if not clause:
                kinds.add("empty")
            elif len(clause) == 1:
                kinds.add("unit")
            if len(set(clause)) < len(clause):
                kinds.add("repeated")
            if any(-lit in clause for lit in clause):
                kinds.add("tautology")
        units = {c[0] for c in clauses if len(c) == 1}
        if any(-lit in units for lit in units):
            kinds.add("conflicting units")
        solver = through_arena(SatSolver, clauses, num_vars, force=True)
        if not solver._unsat:
            kinds.add("sat")
        if any(
            len(clause) > 1 and any(-lit in units for lit in clause)
            for clause in clauses
        ):
            kinds.add("root-false literal")
    assert kinds == {
        "empty",
        "unit",
        "repeated",
        "tautology",
        "conflicting units",
        "sat",
        "root-false literal",
    }


@pytest.mark.parametrize("seed", (0, 1, 3))
def test_unforced_first_load_runs_the_passes_once(seed):
    clauses, num_vars = random_cnf(seed)
    arena = through_arena(SatSolver, clauses, num_vars, force=False)
    loaded = first_load(SatSolver, clauses, num_vars, force=False)
    assert state(loaded) == state(arena)
    assert loaded.pp_runs == 1
    # Never again unless forced, however far the solver grows.
    for var in range(num_vars + 1, num_vars + 2 * MIN_CLAUSES):
        loaded.add_clause([-var, var + 1, 1])
    loaded.simplify()
    assert loaded.pp_runs == 1
    loaded.simplify(force=True)
    assert loaded.pp_runs == 2


def test_facade_first_load_matches_the_arena_path():
    """Real Tseitin output: a pods-2 fat-tree reachability check."""
    tree = build_fattree(2)
    subnet = tree.tor_subnet(tree.tors[0])
    enc = NetworkEncoder(tree.network, EncoderOptions()).encode(
        dst_prefix=iplib.parse_prefix(subnet)
    )
    facade = Solver()
    facade.add(*enc.constraints, label="network")
    prop = P.Reachability(sources="all", dest_prefix_text=subnet)
    facade.add(not_(prop.encode(enc)), label="property")
    clauses = [list(clause) for clause in facade._cnf.clauses]
    delta = facade.run_preprocess()
    assert facade._cnf.clauses == []

    arena = SatSolver()
    arena.preprocess_enabled = True
    arena.ensure_vars(facade.num_variables)
    for clause in clauses:
        arena.add_clause(clause)
    # Conversion does not propagate, so it also keeps the clauses that
    # add_clause drops as true under propagated units; the run removes
    # them.
    assert delta["live_clauses_before"] >= len(arena.clause_lists())
    arena.simplify(force=True)
    assert state(facade._sat) == state(arena)
    assert delta["live_clauses_after"] == len(arena.clause_lists())
    assert delta["pp_eliminated_vars"] == arena.pp_eliminated_vars > 0
