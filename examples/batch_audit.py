#!/usr/bin/env python3
"""Batch-audit a fat-tree: one engine run, many properties.

The per-property loop in ``datacenter_audit.py`` re-encodes the network
for every query.  The batch engine encodes the network once and
discharges the properties incrementally in one solver, each under its
destination prefix and failure bound as assumptions — optionally
dealing the prefixes over worker processes, one encoding each.  This
example audits two rack prefixes with the five-property battery per
rack and compares batch against the naive loop.

Run:  python examples/batch_audit.py [pods] [workers]
"""

import sys
import time

from repro import Verifier
from repro.core import BatchQuery, properties as P
from repro.gen import build_fattree


def rack_battery(prefix):
    return [
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=prefix),
                   label=f"reach {prefix}"),
        BatchQuery(P.NoBlackHoles(dest_prefix_text=prefix),
                   label=f"no-blackholes {prefix}"),
        BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix),
                   label=f"no-loops {prefix}"),
        BatchQuery(P.BoundedPathLength(sources="all", bound=8,
                                       dest_prefix_text=prefix),
                   label=f"bounded-8 {prefix}"),
        BatchQuery(P.MultipathConsistency(dest_prefix_text=prefix),
                   label=f"multipath {prefix}"),
    ]


def main() -> None:
    pods = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    tree = build_fattree(pods)
    network = tree.network
    print(f"fat-tree: {pods} pods, {len(network.devices)} routers")

    queries = []
    for tor in (tree.tors[0], tree.tors[-1]):
        queries += rack_battery(tree.tor_subnet(tor))

    verifier = Verifier(network)
    start = time.perf_counter()
    results = verifier.verify_batch(queries, workers=workers)
    batch_s = time.perf_counter() - start

    for result in results:
        status = {True: "HOLDS", False: "VIOLATED",
                  None: "UNKNOWN"}[result.holds]
        print(f"  {result.property_name:32s} {status:9s} "
              f"{result.seconds * 1e3:7.1f} ms "
              f"(encode {result.encode_seconds * 1e3:.0f} ms, "
              f"solve {result.solve_seconds * 1e3:.0f} ms)")

    start = time.perf_counter()
    for query in queries:
        verifier.verify(query.prop)
    naive_s = time.perf_counter() - start

    print(f"\nbatch: {batch_s:.2f} s ({workers} worker(s)) | "
          f"naive loop: {naive_s:.2f} s | "
          f"speedup {naive_s / batch_s:.2f}x")


if __name__ == "__main__":
    main()
