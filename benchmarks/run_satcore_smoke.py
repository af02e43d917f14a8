"""SAT-core smoke check for `make check` / CI: arena fidelity.

On random 3-SAT and on a real fat-tree verification CNF, the flat-arena
CDCL core and the list-based reference must produce identical verdicts,
identical full counter snapshots (conflicts, decisions, propagations,
...) and identical models.  These are deterministic for a fixed
workload; any mismatch fails the exit code, which is the gate.

It also prints BCP throughput, the arena/reference solve-time ratio
(> 1 means the arena is faster) and the bytes tracemalloc sees the
arena solver hold after loading, preprocessing and solving the
fat-tree CNF, so a change to the solver's storage layout shows its
memory here.  All three are only reported, never gated: performance is
measured by the ladder in ``BENCHMARK.json``.

``--pods 2`` (the default) keeps ``make check`` fast; CI runs
``--pods 4``.
"""

import argparse
import gc
import random
import sys
import time
import tracemalloc

from repro.core import EncoderOptions, properties as P
from repro.core.encoder import NetworkEncoder
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.smt import Solver, not_
from repro.smt.sat import ReferenceSatSolver, SatSolver

from benchmarks.harness import print_table


def random_cnf(seed, n=140, ratio=4.26):
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(int(n * ratio))]


def fattree_cnf(pods):
    """The CNF of a negated all-ToR reachability check (normally UNSAT)."""
    tree = build_fattree(pods)
    subnet = tree.tor_subnet(tree.tors[0])
    enc = NetworkEncoder(tree.network, EncoderOptions()).encode(
        dst_prefix=iplib.parse_prefix(subnet))
    facade = Solver()
    facade.add(*enc.constraints, label="network")
    mark = enc.checkpoint()
    prop = P.Reachability(sources="all", dest_prefix_text=subnet)
    term = prop.encode(enc)
    facade.add(*enc.constraints_since(mark), label="instrumentation")
    facade.add(not_(term), label="property")
    return [list(c) for c in facade._cnf.clauses], facade._cnf.num_vars


def run_pair(clauses, num_vars, preprocess, budget=None):
    """(verdicts_equal, counters_equal, arena_seconds, ref_seconds)."""
    runs = []
    for cls in (SatSolver, ReferenceSatSolver):
        solver = cls()
        solver.preprocess_enabled = preprocess
        solver.ensure_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        start = time.perf_counter()
        outcome = solver.solve(conflict_budget=budget)
        seconds = time.perf_counter() - start
        runs.append((outcome, solver.stats(), seconds, solver))
    (out_a, stats_a, sec_a, sol_a), (out_b, stats_b, sec_b, sol_b) = runs
    verdicts = out_a == out_b
    counters = stats_a == stats_b
    if verdicts and out_a:
        verdicts = all(sol_a.model_value(v) == sol_b.model_value(v)
                       for v in range(1, num_vars + 1))
    return verdicts, counters, sec_a, sec_b


def arena_held_bytes(clauses, num_vars):
    """Bytes the arena solver holds once it has loaded, preprocessed
    and solved ``clauses`` (as the facade runs it), by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver = SatSolver()
        solver.preprocess_enabled = True
        solver.ensure_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        solver.solve()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=2,
                        help="fat-tree pods for the encoding workload "
                             "(2 keeps `make check` fast; CI uses 4)")
    parser.add_argument("--seeds", type=int, default=4,
                        help="random-CNF workloads per preprocess mode")
    args = parser.parse_args(argv)

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok  " if ok else "FAIL") + f"  {what}")
        if not ok:
            failures.append(what)

    # --- differential fidelity + throughput --------------------------
    all_verdicts = True
    all_counters = True
    arena_s = ref_s = 0.0
    arena_props = 0
    for seed in range(args.seeds):
        clauses = random_cnf(seed)
        for preprocess in (False, True):
            v, c, sa, sb = run_pair(clauses, 140, preprocess,
                                    budget=30000)
            all_verdicts &= v
            all_counters &= c
            arena_s += sa
            ref_s += sb
    # Re-measure propagation throughput on the arena alone (no
    # reference interleaving, stable denominator).
    start = time.perf_counter()
    for seed in range(args.seeds):
        solver = SatSolver()
        for clause in random_cnf(seed):
            solver.add_clause(clause)
        solver.solve(conflict_budget=30000)
        arena_props += solver.propagations
    props_per_sec = arena_props / (time.perf_counter() - start)

    ft_clauses, ft_vars = fattree_cnf(args.pods)
    for preprocess in (False, True):
        v, c, sa, sb = run_pair(ft_clauses, ft_vars, preprocess)
        all_verdicts &= v
        all_counters &= c
        arena_s += sa
        ref_s += sb

    check(all_verdicts, "arena verdicts/models identical to reference")
    check(all_counters, "arena counters identical to reference")
    solve_ratio = ref_s / arena_s if arena_s else float("inf")
    held = arena_held_bytes(ft_clauses, ft_vars)

    print_table(f"SAT core smoke (fat-tree {args.pods} pods, "
                f"{args.seeds} random seeds)",
                ["props/s", "arena s", "ref s", "ratio", "arena held"],
                [[f"{props_per_sec / 1000:.1f}k", f"{arena_s:.2f}",
                  f"{ref_s:.2f}", f"{solve_ratio:.2f}x",
                  f"{held / 1e6:.2f} MB"]])

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("satcore smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
