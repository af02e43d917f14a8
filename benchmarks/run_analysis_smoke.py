"""Fast static-analysis smoke check for `make check` / CI.

Takes the 20-router fat-tree (4 pods), seeds one provably dead clause
into each core's BACKBONE_IN import map, then:

* runs the full rule catalog (SMT rules included) and checks the
  shadow prover finds exactly the seeded clauses;
* runs the cross-device dataflow fixpoint and checks it converges
  without widening, and that the dataflow-tightened cones for a rack's
  reachability/loop queries stay bounded;
* seeds an asymmetric-egress defect into a fresh 4-pod tree and
  checks XDF004 fires exactly once.

Every count checked here (cone sizes, rules fired) is deterministic
for the seeded trees; the exit code is the gate and is non-zero on any
mismatch.  The elapsed time is only reported:
performance is measured by the ladder in ``BENCHMARK.json``.
"""

import sys
import time
from dataclasses import replace

from repro.analysis import analyze_network
from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.deps import query_cone
from repro.core import properties as P
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
    as the reachable seq-10 clause, so it is provably unreachable."""
    for core in cores:
        dev = network.device(core)
        rmap = dev.route_maps["BACKBONE_IN"]
        dead = RouteMapClause(seq=DEAD_SEQ, action="permit",
                              match_prefix_list="BLOCK_INTERNAL",
                              set_local_pref=50)
        dev.route_maps["BACKBONE_IN"] = replace(
            rmap, clauses=rmap.clauses + (dead,))


def seed_asymmetric_export(tree):
    """Deny the first ToR's own rack toward ONE of its (>= 2)
    aggregation uplinks: the textbook XDF004 asymmetry."""
    tor = tree.tors[0]
    dev = tree.network.device(tor)
    rack_net, rack_len = iplib.parse_prefix(tree.tor_subnet(tor))
    dev.prefix_lists["OWN_RACK"] = PrefixList(
        "OWN_RACK", (PrefixListEntry(PERMIT, rack_net, rack_len),))
    dev.route_maps["LEAN"] = RouteMap("LEAN", (
        RouteMapClause(10, DENY, match_prefix_list="OWN_RACK"),
        RouteMapClause(20, PERMIT),
    ))
    dev.bgp.neighbors[0].route_map_out = "LEAN"
    return tor


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

    # --- dataflow fixpoint and cones ---------------------------------
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

    elapsed = time.perf_counter() - start

    print(f"analysis smoke OK ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
