"""Fast batch-engine smoke check for `make check` / CI (< 30 s).

Runs the per-prefix audit battery from ``test_bench_batch`` on a small
fat-tree, asserts that batch results are identical to the naive
per-query loop, and prints the measured speedup.  Serially the batch
answers every prefix from one encoding, each query under its prefix as
an assumption; with two workers the prefixes are dealt into two
groups, one encoding each.  Exits non-zero on any mismatch.

The full acceptance benchmark (20-router fat-tree, minutes of wall
clock) lives in ``benchmarks/test_bench_batch.py``.
"""

import sys
import time

from repro.core import BatchEngine
from repro.gen import build_fattree

from benchmarks.test_bench_batch import (
    _assert_identical,
    _audit_queries,
    _naive_loop,
    _report,
)


def main() -> int:
    tree = build_fattree(2)
    network = tree.network
    prefixes = [tree.tor_subnet(t) for t in tree.tors]
    queries = _audit_queries(prefixes)

    start = time.perf_counter()
    naive = _naive_loop(network, queries)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = BatchEngine(network).run(queries)
    batch_s = time.perf_counter() - start

    _assert_identical(queries, naive, batched)
    parallel = BatchEngine(network, workers=2).run(queries)
    _assert_identical(queries, batched, parallel)

    _report("Batch smoke (fat-tree, 2 pods)", len(network.devices),
            queries, naive_s, batch_s, batched)
    if not all(r.holds is True for r in batched):
        print("unexpected violation in smoke network", file=sys.stderr)
        return 1
    print("batch smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
