"""Differential-verification smoke check for `make check` / CI.

Exercises the soundness contract of ``repro diff`` on three workloads:

* **Fat-tree single edit** — renumber one ToR's rack (interface address
  and BGP announcement) and diff the trees over per-rack reachability
  and loop queries.  The smoke fails unless the diff's NEW verdict
  column (the one the cache can influence) is bit-identical to an
  independent full verification of the NEW tree, only the edited
  rack's queries are re-solved, and the single expected reachability
  flip surfaces as a new violation with a counterexample.
* **Fat-tree policy edit** — one ToR carries an import policy whose
  deny clause matches only its own rack; the edit narrows that
  clause's prefix-list.  The clause is *hot* only for the edited
  rack's destination, so the dataflow-tightened cones must re-solve
  exactly that rack's two queries — under the pre-dataflow
  all-route-maps widening this edit re-solved every query, loop
  queries included.  Verdicts must match a full verification and the
  edit must flip nothing (the rack is connected on the ToR itself; AD
  beats BGP).
* **Cloud corpus** — the same edit/diff/replay cycle on a generated
  cloud network (clean class, index 120): verdicts must match a full
  verification and at least one verdict must replay.

Every check above is deterministic and fails the exit code, which is
the gate.  The warm-cache speedup against a fresh full verification of
the NEW tree (the steady-state CI scenario) is timing-derived and only
reported: performance is measured by the ladder in ``BENCHMARK.json``.

``--pods 2`` (the default) keeps ``make check`` fast; CI runs
``--pods 4``.
"""

import argparse
import os
import sys
import tempfile
import time

from repro.core import BatchEngine, BatchQuery, properties as P
from repro.diff import VerdictCache, diff_trees
from repro.gen import build_cloud_network, build_fattree
from repro.lang.writer import write_config
from repro.net import ip as iplib, load_network
from repro.net.policy import (
    DENY,
    PERMIT,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)

from benchmarks.harness import print_table


def write_tree(network, directory, rename=None):
    """Write a config tree; ``rename=(device, old, new)`` edits one
    device's text on the way out."""
    os.makedirs(directory, exist_ok=True)
    for name, dev in network.devices.items():
        text = write_config(dev)
        if rename and name == rename[0]:
            text = text.replace(rename[1], rename[2])
        with open(os.path.join(directory, f"{name}.cfg"), "w") as fh:
            fh.write(text)


def rack_queries(subnets):
    """Per-rack reachability + loop-freedom at the rack /24."""
    queries = []
    for label, subnet in subnets:
        queries.append(
            BatchQuery(
                prop=P.Reachability(sources="all", dest_prefix_text=subnet),
                label=f"reach-{label}",
            )
        )
        queries.append(
            BatchQuery(
                prop=P.NoForwardingLoops(dest_prefix_text=subnet),
                label=f"loops-{label}",
            )
        )
    return queries


def run_scenario(network, edited_device, old_text, new_text, subnets, workers):
    """Write trees, run cold + warm diffs, time a fresh NEW verify.

    Returns (cold_report, warm_report, warm_seconds, fresh_new_seconds,
    match) with ``match`` the verdict identity of the cold diff's NEW
    column against an independent full verification of the NEW tree.
    That column is the one the cache can influence (it mixes replayed
    and re-solved verdicts); the OLD column of a cold diff is itself a
    full verification against an empty cache, so re-solving it again
    would compare a fresh solve with a fresh solve.
    """
    queries = rack_queries(subnets)
    with tempfile.TemporaryDirectory() as tmp:
        old_dir = os.path.join(tmp, "old")
        new_dir = os.path.join(tmp, "new")
        write_tree(network, old_dir)
        write_tree(
            network, new_dir, rename=(edited_device, old_text, new_text)
        )

        cache = VerdictCache()
        cold = diff_trees(
            old_dir, new_dir, queries, workers=workers, cache=cache
        )
        warm = diff_trees(
            old_dir, new_dir, queries, workers=workers, cache=cache
        )

        start = time.perf_counter()
        new_fresh = BatchEngine(load_network(new_dir), workers=workers).run(
            queries
        )
        fresh_new_s = time.perf_counter() - start

        match = all(
            q.new.holds == fresh.holds
            for q, fresh in zip(cold.queries, new_fresh)
        )
    return cold, warm, warm.seconds, fresh_new_s, match


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pods",
        type=int,
        default=2,
        help="fat-tree pods (2 keeps `make check` fast; CI uses 4)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--cloud-index",
        type=int,
        default=120,
        help="cloud-suite network for the corpus scenario "
        "(120 = first clean-class network)",
    )
    args = parser.parse_args(argv)

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok  " if ok else "FAIL") + f"  {what}")
        if not ok:
            failures.append(what)

    # --- fat-tree single-edit scenario -------------------------------
    tree = build_fattree(args.pods)
    edited = tree.tors[0]
    subnets = [(t, tree.tor_subnet(t)) for t in tree.tors]
    # "10.0.0.0/24" -> the "10.0.0." octet prefix the edit rewrites
    old_rack = tree.tor_subnet(edited).split("/")[0].rsplit(".", 1)[0] + "."
    cold, warm, warm_s, fresh_new_s, ft_match = run_scenario(
        tree.network, edited, old_rack, "10.250.0.", subnets, args.workers
    )

    expected = {f"reach-{edited}", f"loops-{edited}"}
    reverify_exact = (
        set(cold.reverified()) == expected and not warm.reverified()
    )
    flips = cold.new_violations
    flip_match = (
        len(flips) == 1
        and flips[0].name == f"reach-{edited}"
        and flips[0].new.counterexample is not None
        and cold.exit_code == 1
        and warm.exit_code == 1
    )
    check(ft_match, "fat-tree: diff verdicts identical to full verification")
    check(
        reverify_exact,
        f"fat-tree: re-solved exactly {sorted(expected)} "
        f"(cold got {sorted(cold.reverified())}, warm "
        f"{len(warm.reverified())})",
    )
    check(
        flip_match,
        "fat-tree: rack renumber surfaces one reachability flip "
        "with a counterexample",
    )
    speedup = fresh_new_s / warm_s if warm_s else float("inf")

    # --- fat-tree policy-edit scenario -------------------------------
    ptree = build_fattree(args.pods)
    ptor = ptree.tors[0]
    rack = ptree.tor_subnet(ptor)
    rack_net, rack_len = iplib.parse_prefix(rack)
    dev = ptree.network.devices[ptor]
    dev.prefix_lists["OWN_RACK"] = PrefixList(
        "OWN_RACK", (PrefixListEntry(PERMIT, rack_net, rack_len),)
    )
    dev.route_maps["RACK_POLICY"] = RouteMap(
        "RACK_POLICY",
        (
            RouteMapClause(10, DENY, match_prefix_list="OWN_RACK"),
            RouteMapClause(20, PERMIT),
        ),
    )
    dev.bgp.neighbors[0].route_map_in = "RACK_POLICY"
    pcold, pwarm, _, _, policy_match = run_scenario(
        ptree.network,
        ptor,
        f"permit {rack}",
        f"permit {iplib.format_prefix(rack_net, rack_len + 1)}",
        [(t, ptree.tor_subnet(t)) for t in ptree.tors],
        args.workers,
    )
    policy_expected = {f"reach-{ptor}", f"loops-{ptor}"}
    policy_reverify_exact = (
        set(pcold.reverified()) == policy_expected
        and not pwarm.reverified()
    )
    check(
        policy_match,
        "fat-tree policy: diff verdicts identical to full verification",
    )
    check(
        policy_reverify_exact,
        f"fat-tree policy: re-solved exactly {sorted(policy_expected)} "
        f"(cold got {sorted(pcold.reverified())}, warm "
        f"{len(pwarm.reverified())})",
    )
    check(
        not pcold.new_violations and pcold.exit_code == 0,
        "fat-tree policy: narrowing the own-rack deny flips nothing",
    )

    # --- cloud-corpus scenario ---------------------------------------
    cloud = build_cloud_network(args.cloud_index)
    cloud_subnets = []
    for name, dev in sorted(cloud.network.devices.items()):
        for iface in dev.interfaces.values():
            if iface.name == "rack" and iface.address:
                cloud_subnets.append(
                    (name, iplib.format_prefix(*iface.subnet))
                )
    cloud_dev, cloud_subnet = cloud_subnets[-1]
    cloud_rack = cloud_subnet.split("/")[0].rsplit(".", 1)[0] + "."
    cloud_cold, cloud_warm, _, _, cloud_match = run_scenario(
        cloud.network,
        cloud_dev,
        cloud_rack,
        "10.77.0.",
        cloud_subnets,
        args.workers,
    )
    check(
        cloud_match,
        f"cloud {cloud.name}: diff verdicts identical to full verification",
    )
    cloud_replayed = len(cloud_cold.replayed())
    check(
        cloud_replayed > 0 and not cloud_warm.reverified(),
        f"cloud {cloud.name}: cache replays verdicts "
        f"({cloud_replayed} cold, all warm)",
    )

    print_table(
        f"diff smoke (fat-tree {args.pods} pods + {cloud.name})",
        ["queries", "re-solved", "replayed", "warm s", "fresh s", "speedup"],
        [
            [
                len(cold.queries),
                len(cold.reverified()),
                len(cold.replayed()),
                f"{warm_s:.2f}",
                f"{fresh_new_s:.2f}",
                f"{speedup:.1f}x",
            ]
        ],
    )

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("diff smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
