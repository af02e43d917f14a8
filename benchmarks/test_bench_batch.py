"""Batch engine benchmark: shared encodings vs. the naive per-query loop.

The paper's workloads are audits — many properties over the same network,
mostly against a handful of destination prefixes (§8.1 runs four checks
per network over 152 networks; §8.2 fans reachability out per prefix).
The batch engine encodes each (prefix, failure-bound) group once and
discharges its properties incrementally under assumptions; this benchmark
measures that saving against the naive loop that calls
``Verifier.verify`` once per query, and asserts the two produce
bit-identical verdicts.

Acceptance target: >= 2x wall-clock speedup on a >= 20-router fat-tree
with >= 8 queries sharing destination prefixes.
"""

import time


from repro import Verifier
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.gen import build_cloud_network, build_fattree

from .harness import print_table


def _audit_queries(prefixes):
    """The per-prefix audit battery: 5 properties x each prefix."""
    queries = []
    for prefix in prefixes:
        queries += [
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text=prefix),
                       label=f"reach@{prefix}"),
            BatchQuery(P.NoBlackHoles(dest_prefix_text=prefix),
                       label=f"blackholes@{prefix}"),
            BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix),
                       label=f"loops@{prefix}"),
            BatchQuery(P.BoundedPathLength(sources="all", bound=8,
                                           dest_prefix_text=prefix),
                       label=f"bounded@{prefix}"),
            BatchQuery(P.MultipathConsistency(dest_prefix_text=prefix),
                       label=f"multipath@{prefix}"),
        ]
    return queries


def _naive_loop(network, queries):
    verifier = Verifier(network)
    out = []
    for query in queries:
        out.append(verifier.verify(query.prop,
                                   max_failures=query.max_failures,
                                   assumptions=list(query.assumptions)))
    return out


def _assert_identical(queries, naive, batched):
    assert len(naive) == len(batched) == len(queries)
    for query, n, b in zip(queries, naive, batched):
        assert n.holds == b.holds, query.name()
        assert (n.counterexample is None) == (b.counterexample is None), \
            query.name()


def _report(title, n_routers, queries, naive_s, batch_s, results):
    speedup = naive_s / batch_s if batch_s else float("inf")
    holding = sum(1 for r in results if r.holds is True)
    print_table(title,
                ["routers", "queries", "hold", "naive s",
                 "batch s", "speedup"],
                [[n_routers, len(queries), holding,
                  f"{naive_s:.2f}", f"{batch_s:.2f}",
                  f"{speedup:.2f}x"]])
    return speedup


def test_batch_speedup_fattree():
    """>= 2x over the naive loop on a 20-router fat-tree, 10 queries."""
    tree = build_fattree(4)
    network = tree.network
    assert len(network.devices) >= 20
    prefixes = [tree.tor_subnet(tree.tors[0]),
                tree.tor_subnet(tree.tors[-1])]
    queries = _audit_queries(prefixes)
    assert len(queries) >= 8

    start = time.perf_counter()
    naive = _naive_loop(network, queries)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = BatchEngine(network).run(queries)
    batch_s = time.perf_counter() - start

    _assert_identical(queries, naive, batched)
    speedup = _report("Batch engine vs naive loop (fat-tree, 4 pods)",
                      len(network.devices), queries,
                      naive_s, batch_s, batched)
    assert speedup >= 2.0, f"expected >=2x speedup, got {speedup:.2f}x"


def test_batch_matches_naive_cloud():
    """Verdict identity (and the measured saving) on a generated cloud
    network with seeded violations, including parallel workers."""
    cloud = build_cloud_network(97)  # black-hole class
    network = cloud.network
    # The seeded hole discards a sub-prefix of 10.<index>.0.0/16; audit
    # that prefix plus a management loopback.
    prefixes = [f"10.{cloud.index % 120}.0.0/16"]
    prefixes += cloud.management_prefixes[:1]
    queries = _audit_queries(prefixes)

    start = time.perf_counter()
    naive = _naive_loop(network, queries)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = BatchEngine(network).run(queries)
    batch_s = time.perf_counter() - start

    _assert_identical(queries, naive, batched)
    # The seeded black hole must actually be found by both paths.
    assert any(r.holds is False for r in batched)

    parallel = BatchEngine(network, workers=2).run(queries)
    _assert_identical(queries, batched, parallel)

    _report(f"Batch engine vs naive loop ({cloud.name})",
            len(network.devices), queries, naive_s, batch_s, batched)


if __name__ == "__main__":  # pragma: no cover
    test_batch_speedup_fattree()
    test_batch_matches_naive_cloud()
