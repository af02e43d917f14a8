"""A solver preprocesses once: the first time it holds ``MIN_CLAUSES``.

Later checks add only activation-guarded query instrumentation, which
used to re-run the whole pipeline whenever it crossed a growth bar.
Now only a forced run (``Solver.run_preprocess``) preprocesses again.
"""

from repro.core import EncoderOptions, Verifier
from repro.core import properties as P
from repro.core.engine import BatchQuery, GroupEncoding
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.smt import SAT, Solver, bool_var
from repro.smt.sat.preprocess import MIN_CLAUSES
from repro.smt.terms import not_, or_


def mixed_k_queries(tree, subnet):
    """22 queries against one prefix, alternating k=1 and k=0."""
    routers = tree.network.router_names()
    props = [
        P.Reachability(sources="all", dest_prefix_text=subnet),
        P.NoBlackHoles(dest_prefix_text=subnet),
        P.NoForwardingLoops(dest_prefix_text=subnet),
        P.Reachability(sources=routers[:2], dest_prefix_text=subnet),
        P.Reachability(sources=routers[2:], dest_prefix_text=subnet),
    ]
    props += [
        P.Reachability(sources=[r], dest_prefix_text=subnet) for r in routers
    ]
    return [
        BatchQuery(prop, max_failures=k) for prop in props for k in (1, 0)
    ]


def test_group_encoding_preprocesses_once():
    tree = build_fattree(2)
    subnet = tree.tor_subnet(tree.tors[0])
    group = GroupEncoding(
        tree.network,
        EncoderOptions(max_failures=1),
        dst_prefix=iplib.parse_prefix(subnet),
    )
    queries = mixed_k_queries(tree, subnet)
    assert len(queries) >= 20
    verdicts = [group.solve_one(queries[0]).holds]
    live = group.solver.stats["live_clauses"]
    verdicts += [group.solve_one(query).holds for query in queries[1:]]
    stats = group.solver.stats
    assert stats["pp_runs"] == 1
    assert stats["pp_eliminated_vars"] > 0
    # The instrumentation grew the database well past the bar
    # (max(256, size / 8)) that used to trigger a re-run.
    assert stats["live_clauses"] - live > 4 * max(256, live // 8)
    assert True in verdicts and False in verdicts
    verifier = Verifier(tree.network)
    fresh = [
        verifier.verify(query.prop, max_failures=query.max_failures).holds
        for query in queries
    ]
    assert verdicts == fresh


def test_small_first_check_preprocesses_once_it_grows():
    solver = Solver()
    xs = [bool_var(f"x{i}") for i in range(MIN_CLAUSES + 50)]
    solver.add(or_(xs[0], xs[1]))
    assert solver.check() is SAT
    assert solver.stats["pp_runs"] == 0
    # An implication chain: more than MIN_CLAUSES clauses, satisfiable.
    solver.add(*[or_(not_(a), b) for a, b in zip(xs, xs[1:])])
    assert solver.check() is SAT
    assert solver.stats["pp_runs"] == 1
    solver.add(*[or_(a, not_(b)) for a, b in zip(xs, xs[1:])])
    assert solver.check([xs[0]]) is SAT
    assert solver.model().eval(xs[-1]) is True
    assert solver.stats["pp_runs"] == 1
    solver.run_preprocess()
    assert solver.stats["pp_runs"] == 2
