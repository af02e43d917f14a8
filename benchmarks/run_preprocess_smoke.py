"""Preprocessing ablation smoke check for `make check` / CI.

Runs the same verification queries over a fat-tree twice — with the
SatELite-style CNF preprocessing pipeline enabled and disabled — and
asserts the contract the pipeline promises:

* verdicts are identical with preprocessing on and off (the frozen
  protocol plus the reconstruction stack make simplification fully
  transparent to the verifier);
* on the shared network encoding the pipeline removes at least 20% of
  the clauses (the acceptance floor), and at ``--pods 4`` at least
  33.23% (the 35.23% measured there, less 2 points of slack);
* preprocessing actually ran (eliminated variables, subsumed clauses).

The exit code is the gate; the on/off timing table is only reported
(performance is measured by the ladder in ``BENCHMARK.json``).
``--pods 4`` (the default) is the 20-router acceptance configuration;
``--pods 2`` keeps ``make check`` fast.
"""

import argparse
import sys
import time

from repro.core import EncoderOptions, Verifier, properties as P
from repro.core.encoder import NetworkEncoder
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.net.device import StaticRoute
from repro.smt import Solver

from benchmarks.harness import print_table

#: Clause-reduction floor at any scale (the acceptance criterion).
MIN_REDUCTION_PCT = 20.0
#: Tighter floor at the 20-router configuration: the measured 35.23%
#: less 2 points, so a weaker pipeline fails the smoke.
MIN_REDUCTION_PCT_PODS4 = 33.23


def _queries(tree):
    return [P.Reachability(sources="all",
                           dest_prefix_text=tree.tor_subnet(t))
            for t in (tree.tors[0], tree.tors[-1])]


def _verify_all(network, queries, preprocess):
    verifier = Verifier(network,
                        options=EncoderOptions(preprocess=preprocess))
    verdicts = []
    start = time.perf_counter()
    for prop in queries:
        verdicts.append(verifier.verify(prop).holds)
    return verdicts, time.perf_counter() - start


def _clause_reduction(tree, prop):
    """Forced pipeline run over the shared network encoding."""
    enc = NetworkEncoder(tree.network, EncoderOptions()).encode(
        dst_prefix=prop.dst_prefix())
    solver = Solver()
    solver.add(*enc.constraints, label="network")
    delta = solver.run_preprocess()
    before = delta["live_clauses_before"]
    after = delta["live_clauses_after"]
    reduction = 100.0 * (before - after) / before if before else 0.0
    return reduction, delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=4,
                        help="fat-tree pods (4 = the 20-router "
                             "acceptance configuration)")
    args = parser.parse_args(argv)

    tree = build_fattree(args.pods)
    queries = _queries(tree)
    # The verdicts are checked on a copy with a discard route for an
    # unrelated prefix: it makes a core a loop pivot, so the network
    # no longer fixes rack reachability without an encoding and both
    # runs below solve (and, when on, preprocess) real encodings.
    network = build_fattree(args.pods).network
    discard = StaticRoute(iplib.parse_ip("192.0.2.0"), 24, drop=True)
    network.device(tree.cores[0]).static_routes.append(discard)

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok  " if ok else "FAIL") + f"  {what}")
        if not ok:
            failures.append(what)

    off_verdicts, off_s = _verify_all(network, queries, preprocess=False)
    on_verdicts, on_s = _verify_all(network, queries, preprocess=True)

    check(on_verdicts == off_verdicts,
          f"verdicts identical with preprocessing on/off "
          f"({on_verdicts})")
    check(all(v is True for v in on_verdicts),
          "fat-tree reachability holds")

    reduction, delta = _clause_reduction(tree, queries[0])
    floor = MIN_REDUCTION_PCT_PODS4 if args.pods == 4 else MIN_REDUCTION_PCT
    check(reduction >= floor,
          f"clause reduction {reduction:.2f}% >= {floor}% "
          f"({delta['live_clauses_before']} -> "
          f"{delta['live_clauses_after']})")
    check(delta["pp_eliminated_vars"] > 0, "variables were eliminated")
    check(delta["pp_subsumed"] + delta["pp_strengthened"] > 0,
          "clauses were subsumed or strengthened")

    solve_ratio = off_s / on_s if on_s else float("inf")
    print_table(f"Preprocessing ablation (fat-tree, {args.pods} pods)",
                ["routers", "queries", "off s", "on s", "ratio",
                 "reduction"],
                [[len(network.devices), len(queries),
                  f"{off_s:.2f}", f"{on_s:.2f}",
                  f"{solve_ratio:.2f}x", f"{reduction:.1f}%"]])

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("preprocess smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
