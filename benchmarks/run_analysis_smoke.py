"""Fast static-analysis smoke check for `make check` / CI.

Takes the 20-router fat-tree (4 pods), seeds one provably dead clause
into each core's BACKBONE_IN import map, then:

* runs the full rule catalog (SMT rules included) and checks the
  shadow prover finds exactly the seeded clauses;
* verifies a reachability property with ``prune_dead_clauses`` and
  with ``prune_cold_clauses`` and asserts the verdict is identical
  while dead-clause pruning shrinks the encoded formula;
* runs the cross-device dataflow fixpoint and checks it converges
  without widening, that the dataflow-tightened cones for a rack's
  reachability/loop queries stay bounded, and that cold-clause
  pruning for a rack destination actually drops clauses;
* seeds an asymmetric-egress defect into a fresh 2-pod tree and
  checks XDF004 fires exactly once.

The 20-router query uses a violated (SAT) instance so the check stays
fast; a seeded 2-pod tree re-checks verdict equality on a holding
(UNSAT) instance, covering both flip directions.  The slow exhaustive
verdict-preservation matrix lives in ``tests/analysis/test_pruning.py``.

Every count checked here (cone sizes, rules fired, pruned clauses) is
deterministic for the seeded trees; the exit code is the gate and is
non-zero on any mismatch.  The elapsed time is only reported:
performance is measured by the ladder in ``BENCHMARK.json``.
"""

import sys
import time
from dataclasses import replace

from repro.analysis import analyze_network
from repro.analysis.dataflow import analyze_dataflow, prune_cold_for_prefix
from repro.analysis.deps import query_cone
from repro.analysis.pruning import prune_network
from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.core.verifier import Verifier
from repro.gen import build_fattree
from repro.net import ip as iplib
from repro.net.policy import (
    DENY,
    PERMIT,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)

DEAD_SEQ = 20
#: Upper bounds on the dataflow-tightened cones of the 20-router rack
#: queries (the sizes measured when the bounds were set): a cone that
#: grows back toward the structural widening fails the smoke.
MAX_CONE_FRAGMENTS = 186
MAX_CONE_DEVICES = 20


def seed_dead_clauses(network, cores):
    """Append a shadowed clause to each core's import map: same match
    as the reachable seq-10 clause, so it is provably unreachable, and
    the only ``set local-preference`` in the network, so pruning it
    lets field slicing shrink the formula."""
    for core in cores:
        dev = network.device(core)
        rmap = dev.route_maps["BACKBONE_IN"]
        dead = RouteMapClause(seq=DEAD_SEQ, action="permit",
                              match_prefix_list="BLOCK_INTERNAL",
                              set_local_pref=50)
        dev.route_maps["BACKBONE_IN"] = replace(
            rmap, clauses=rmap.clauses + (dead,))


def own_rack_map(tree, map_name):
    """A deny-own-rack / permit-rest policy on the first ToR."""
    tor = tree.tors[0]
    dev = tree.network.device(tor)
    rack_net, rack_len = iplib.parse_prefix(tree.tor_subnet(tor))
    dev.prefix_lists["OWN_RACK"] = PrefixList(
        "OWN_RACK", (PrefixListEntry(PERMIT, rack_net, rack_len),))
    dev.route_maps[map_name] = RouteMap(map_name, (
        RouteMapClause(10, DENY, match_prefix_list="OWN_RACK"),
        RouteMapClause(20, PERMIT),
    ))
    return tor, dev


def seed_asymmetric_export(tree):
    """Deny the first ToR's own rack toward ONE of its (>= 2)
    aggregation uplinks: the textbook XDF004 asymmetry."""
    tor, dev = own_rack_map(tree, "LEAN")
    dev.bgp.neighbors[0].route_map_out = "LEAN"
    return tor


def seed_rack_policy(tree):
    """Import policy on the first ToR denying its own rack — a no-op
    for traffic (the rack is connected; AD beats BGP) and provably
    cold for every *other* rack's destination."""
    tor, dev = own_rack_map(tree, "RACK_POLICY")
    dev.bgp.neighbors[0].route_map_in = "RACK_POLICY"
    return tor


def verify_matrix(network, prop):
    """Verify ``prop`` plain, with dead-clause pruning, and with
    cold-clause pruning; both pruned verdicts must match the base."""
    base = Verifier(network, options=EncoderOptions()).verify(prop)
    dead = Verifier(network, options=EncoderOptions(
        prune_dead_clauses=True)).verify(prop)
    cold = Verifier(network, options=EncoderOptions(
        prune_cold_clauses=True)).verify(prop)
    return base, dead, cold


def cone_size(cone):
    devices = sum(1 for frags in cone.fragments.values() if frags)
    return devices, cone.total_fragments()


def main() -> int:
    start = time.perf_counter()
    tree = build_fattree(4)
    network = tree.network
    seed_dead_clauses(network, tree.cores)

    report = analyze_network(network, smt=True)
    print(f"rules run: {len(report.rules_run)} "
          f"({', '.join(sorted(report.rules_run))})")
    for diag in report.sorted():
        print(f"  {diag}")
    shadowed = report.by_rule("SMT001")
    if len(shadowed) != len(tree.cores):
        print(f"expected {len(tree.cores)} shadowed clauses, "
              f"found {len(shadowed)}", file=sys.stderr)
        return 1
    if any(f"seq {DEAD_SEQ}" not in d.message for d in shadowed):
        print("shadow prover flagged the wrong clause", file=sys.stderr)
        return 1
    others = [d for d in report.diagnostics if d.rule_id != "SMT001"]
    if others:
        print(f"unexpected findings: {others}", file=sys.stderr)
        return 1

    _, prune_report = prune_network(network)
    print(f"pruned {prune_report.count} clauses "
          f"across {prune_report.maps_examined} maps")
    if prune_report.count != len(tree.cores):
        print("pruning disagrees with the shadow prover", file=sys.stderr)
        return 1

    # --- dataflow fixpoint, cones, cold-clause pruning ---------------
    df = analyze_dataflow(network)
    print(f"dataflow fixpoint: {df.iterations} iterations, "
          f"widened={df.widened}")
    if df.widened:
        print("dataflow fixpoint widened on the fat-tree",
              file=sys.stderr)
        return 1

    rack = tree.tor_subnet(tree.tors[0])
    reach_cone = query_cone(
        network, P.Reachability(sources="all", dest_prefix_text=rack))
    loops_cone = query_cone(network, P.NoForwardingLoops(
        dest_prefix_text=rack))
    if reach_cone is None or loops_cone is None:
        print("rack queries are not cacheable", file=sys.stderr)
        return 1
    if not (reach_cone.bounded and loops_cone.bounded):
        print("rack-query cones fell back to the full network",
              file=sys.stderr)
        return 1
    reach_devices, reach_fragments = cone_size(reach_cone)
    loops_devices, loops_fragments = cone_size(loops_cone)
    print(f"cones at {rack}: reach {reach_fragments} fragments on "
          f"{reach_devices} device(s), loops {loops_fragments} on "
          f"{loops_devices}")
    if (reach_fragments > MAX_CONE_FRAGMENTS
            or reach_devices > MAX_CONE_DEVICES
            or loops_fragments > MAX_CONE_FRAGMENTS):
        print(f"rack-query cones exceed {MAX_CONE_FRAGMENTS} fragments "
              f"or {MAX_CONE_DEVICES} devices", file=sys.stderr)
        return 1

    # --- seeded cross-device defect ----------------------------------
    # 4 pods so the ToR has two uplinks to be asymmetric across.
    xdf_tree = build_fattree(4)
    xdf_tor = seed_asymmetric_export(xdf_tree)
    xdf = analyze_network(xdf_tree.network, smt=False).by_rule("XDF004")
    print(f"seeded asymmetry on {xdf_tor}: {len(xdf)} XDF004 finding(s)")
    if len(xdf) != 1:
        print("expected exactly one XDF004 finding", file=sys.stderr)
        return 1

    # The seeded import deny matches only the first ToR's own rack, so
    # it is provably cold for every OTHER rack's destination — and
    # pruning it there must not move the verdict.
    cold_tree = build_fattree(2)
    seed_rack_policy(cold_tree)
    other = cold_tree.tor_subnet(cold_tree.tors[1])
    _, cold_pruned = prune_cold_for_prefix(
        cold_tree.network, iplib.parse_prefix(other))
    print(f"cold-clause pruning for {other}: {cold_pruned} clause(s)")
    if cold_pruned != 1:
        print("expected exactly the seeded deny to be cold",
              file=sys.stderr)
        return 1
    xbase, xdead, xcold = verify_matrix(
        cold_tree.network,
        P.Reachability(sources="all", dest_prefix_text=other))
    print(f"seeded fat-tree(2) verdict: holds={xbase.holds} "
          f"(dead-pruned: {xdead.holds}, cold-pruned: {xcold.holds})")
    if not (xbase.holds is xdead.holds is xcold.holds is True):
        print("verdict mismatch after pruning the cold deny",
              file=sys.stderr)
        return 1

    # Violated instance on the 20-router tree: the destination prefix
    # is owned by no rack, so reachability fails — quickly — and the
    # formula sizes are representative of the full network.
    base, dead, cold = verify_matrix(
        network, P.Reachability(sources="all",
                                dest_prefix_text="10.0.8.0/24"))
    print(f"fat-tree(4) verdict: holds={base.holds} "
          f"(dead-pruned: {dead.holds}, cold-pruned: {cold.holds})")
    print(f"variables: {base.num_variables} -> {dead.num_variables} "
          f"({base.num_variables - dead.num_variables} fewer)")
    print(f"clauses:   {base.num_clauses} -> {dead.num_clauses} "
          f"({base.num_clauses - dead.num_clauses} fewer)")
    if not (base.holds is dead.holds is cold.holds is False):
        print("verdict mismatch on the violated instance",
              file=sys.stderr)
        return 1
    if not (dead.num_variables < base.num_variables
            and dead.num_clauses < base.num_clauses):
        print("pruning did not shrink the formula", file=sys.stderr)
        return 1

    # Holding instance on a seeded 2-pod tree: the UNSAT direction.
    small = build_fattree(2)
    seed_dead_clauses(small.network, small.cores)
    sbase, sdead, scold = verify_matrix(
        small.network,
        P.Reachability(sources="all",
                       dest_prefix_text=small.tor_subnet(small.tors[0])))
    print(f"fat-tree(2) verdict: holds={sbase.holds} "
          f"(dead-pruned: {sdead.holds}, cold-pruned: {scold.holds})")
    if not (sbase.holds is sdead.holds is scold.holds is True):
        print("verdict mismatch on the holding instance",
              file=sys.stderr)
        return 1

    elapsed = time.perf_counter() - start

    print(f"analysis smoke OK ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
