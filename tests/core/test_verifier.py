"""End-to-end verification scenarios for the §5 property suite."""

import pytest

from repro import NetworkBuilder, Verifier
from repro.core import BatchQuery, properties as P
from repro.core.encoder import EncoderOptions
from repro.net import AclRule, PrefixListEntry, RouteMapClause
from repro.net import ip as iplib


def ospf_chain(n=3, multipath=False):
    """R1 - R2 - ... - Rn, host subnet 10.9.0.0/24 on the last router."""
    b = NetworkBuilder()
    names = [f"R{i}" for i in range(1, n + 1)]
    for name in names:
        b.device(name).enable_ospf(multipath=multipath)
        b.device(name).ospf_network("10.0.0.0/8")
    for a, c in zip(names, names[1:]):
        b.link(a, c)
    b.device(names[-1]).interface("host", "10.9.0.1/24")
    return b, names


def diamond(multipath=True):
    """S -> {L, R} -> D with a host subnet on D."""
    b = NetworkBuilder()
    for name in ("S", "L", "R", "D"):
        b.device(name).enable_ospf(multipath=multipath)
        b.device(name).ospf_network("10.0.0.0/8")
    b.link("S", "L")
    b.link("S", "R")
    b.link("L", "D")
    b.link("R", "D")
    b.device("D").interface("host", "10.9.0.1/24")
    return b


class TestReachability:
    def test_holds_on_chain(self):
        b, names = ospf_chain(4)
        result = Verifier(b.build()).verify(P.Reachability(
            sources="all", dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_violated_without_route(self):
        b, names = ospf_chain(3)
        result = Verifier(b.build()).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="172.20.0.0/16"))
        assert result.holds is False
        assert "R1" in result.message

    def test_violated_by_acl(self):
        b, names = ospf_chain(3)
        net = b.build()
        r2 = net.device("R2")
        edge = net.edge_between("R1", "R2")
        r2.acls["BLK"] = __import__("repro.net.policy", fromlist=["Acl"]) \
            .Acl("BLK", (AclRule("deny",
                                 dst_network=iplib.parse_ip("10.9.0.0"),
                                 dst_length=24),
                         AclRule("permit")))
        r2.interfaces[edge.target_iface].acl_in = "BLK"
        result = Verifier(net).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False
        # R2 itself still reaches.
        result2 = Verifier(net).verify(P.Reachability(
            sources=["R2"], dest_prefix_text="10.9.0.0/24"))
        assert result2.holds is True

    def test_counterexample_structure(self):
        b, names = ospf_chain(2)
        result = Verifier(b.build()).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="172.20.0.0/16"))
        cex = result.counterexample
        assert cex is not None
        assert iplib.prefix_contains(iplib.parse_ip("172.20.0.0"), 16,
                                     cex.dst_ip)
        assert "dstIp" in cex.summary()

    def test_fault_tolerance_distinguishes_redundancy(self):
        # The diamond survives one failure; the chain does not.
        diamond_net = diamond().build()
        chain_b, _ = ospf_chain(3)
        chain_net = chain_b.build()
        prop = P.Reachability(sources=["S"], dest_prefix_text="10.9.0.0/24")
        assert Verifier(diamond_net).verify(prop, max_failures=1).holds
        assert not Verifier(diamond_net).verify(prop, max_failures=2).holds
        prop_chain = P.Reachability(sources=["R1"],
                                    dest_prefix_text="10.9.0.0/24")
        assert not Verifier(chain_net).verify(prop_chain,
                                              max_failures=1).holds


class TestIsolation:
    def test_isolation_holds_without_any_path(self):
        b = NetworkBuilder()
        b.device("A").enable_ospf()
        b.device("B").interface("host", "10.9.0.1/24")
        net = b.build()  # no link between A and B
        result = Verifier(net).verify(P.Isolation(
            sources=["A"], dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_isolation_violated_by_connectivity(self):
        b, names = ospf_chain(2)
        result = Verifier(b.build()).verify(P.Isolation(
            sources=["R1"], dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False


class TestWaypointing:
    def test_chain_always_waypoints_middle(self):
        b, names = ospf_chain(3)
        result = Verifier(b.build()).verify(P.Waypointing(
            source="R1", waypoints=["R2"],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_diamond_bypasses_single_side(self):
        net = diamond().build()
        result = Verifier(net).verify(P.Waypointing(
            source="S", waypoints=["L"], dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False

    def test_two_stage_chain(self):
        b, names = ospf_chain(4)
        result = Verifier(b.build()).verify(P.Waypointing(
            source="R1", waypoints=["R2", "R3"],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_wrong_order_violated(self):
        b, names = ospf_chain(4)
        result = Verifier(b.build()).verify(P.Waypointing(
            source="R1", waypoints=["R3", "R2"],
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False


class TestPathLength:
    def test_bound_holds_on_chain(self):
        b, names = ospf_chain(4)
        net = b.build()
        assert Verifier(net).verify(P.BoundedPathLength(
            sources=["R1"], bound=3,
            dest_prefix_text="10.9.0.0/24")).holds is True

    def test_bound_violated_when_too_tight(self):
        b, names = ospf_chain(4)
        net = b.build()
        assert Verifier(net).verify(P.BoundedPathLength(
            sources=["R1"], bound=2,
            dest_prefix_text="10.9.0.0/24")).holds is False

    def test_equal_lengths_in_diamond(self):
        net = diamond().build()
        assert Verifier(net).verify(P.EqualPathLengths(
            routers=["L", "R"], dest_prefix_text="10.9.0.0/24")).holds \
            is True

    def test_unequal_lengths_detected(self):
        b, names = ospf_chain(4)
        net = b.build()
        assert Verifier(net).verify(P.EqualPathLengths(
            routers=["R1", "R3"],
            dest_prefix_text="10.9.0.0/24")).holds is False


class TestLoopsAndBlackHoles:
    def test_no_loops_in_ospf(self):
        b, names = ospf_chain(3)
        assert Verifier(b.build()).verify(
            P.NoForwardingLoops(
                dest_prefix_text="10.9.0.0/24")).holds is True

    def test_static_route_loop_detected(self):
        b = NetworkBuilder()
        b.device("A")
        b.device("B")
        b.link("A", "B", subnet="10.0.0.0/30")
        # A and B point the same prefix at each other: a loop.
        b.device("A").static_route("172.16.0.0/16", next_hop="10.0.0.2")
        b.device("B").static_route("172.16.0.0/16", next_hop="10.0.0.1")
        result = Verifier(b.build()).verify(P.NoForwardingLoops(
            dest_prefix_text="172.16.0.0/16"))
        assert result.holds is False
        assert "loop" in result.message

    def test_fattree_loop_query_holds_at_the_root(self):
        # A pure-eBGP fat-tree has no risky router, so the loop query
        # carries no pivots and is UNSAT without a single conflict.
        from repro.gen import build_fattree

        tree = build_fattree(4)
        result = Verifier(tree.network).verify(P.NoForwardingLoops(
            dest_prefix_text=tree.tor_subnet(tree.tors[0])))
        assert result.holds is True
        assert result.conflicts == 0

    def test_blackhole_free_chain(self):
        b, names = ospf_chain(3)
        assert Verifier(b.build()).verify(P.NoBlackHoles(
            dest_prefix_text="10.9.0.0/24")).holds is True

    def test_null_route_is_a_blackhole(self):
        b, names = ospf_chain(3)
        # R2 null-routes a sub-prefix that R1 forwards toward it.
        b.device("R2").static_route("10.9.0.0/24", drop=True)
        result = Verifier(b.build()).verify(P.NoBlackHoles(
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False
        assert "R2" in result.message

    def test_acl_drop_is_a_blackhole_unless_allowed(self):
        b, names = ospf_chain(3)
        net = b.build()
        from repro.net.policy import Acl
        r3 = net.device("R3")
        edge = net.edge_between("R2", "R3")
        r3.acls["BLK"] = Acl("BLK", (
            AclRule("deny", dst_network=iplib.parse_ip("10.9.0.0"),
                    dst_length=24),
            AclRule("permit")))
        net.device("R3").interfaces[edge.target_iface].acl_in = "BLK"
        assert Verifier(net).verify(P.NoBlackHoles(
            dest_prefix_text="10.9.0.0/24")).holds is False
        assert Verifier(net).verify(P.NoBlackHoles(
            allowed=["R2", "R3"],
            dest_prefix_text="10.9.0.0/24")).holds is True


class TestMultipathConsistency:
    def test_consistent_diamond(self):
        net = diamond().build()
        assert Verifier(net).verify(P.MultipathConsistency(
            dest_prefix_text="10.9.0.0/24")).holds is True

    def test_acl_on_one_branch_breaks_consistency(self):
        from repro.net.policy import Acl
        net = diamond().build()
        # Block the L branch in the data plane only.
        edge = net.edge_between("S", "L")
        dev_l = net.device("L")
        dev_l.acls["BLK"] = Acl("BLK", (
            AclRule("deny", dst_network=iplib.parse_ip("10.9.0.0"),
                    dst_length=24),
            AclRule("permit")))
        dev_l.interfaces[edge.target_iface].acl_in = "BLK"
        result = Verifier(net).verify(P.MultipathConsistency(
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False


def bgp_multihomed():
    """One router with two external peers announcing the same space."""
    b = NetworkBuilder()
    r1 = b.device("R1")
    r1.enable_bgp(65001)
    r1.route_map("PREF_HIGH", [RouteMapClause(seq=10, action="permit",
                                              set_local_pref=200)])
    b.external_peer("R1", asn=65100, name="N1", route_map_in="PREF_HIGH")
    b.external_peer("R1", asn=65200, name="N2")
    return b


class TestPreferences:
    def test_neighbor_preference_holds(self):
        net = bgp_multihomed().build()
        result = Verifier(net).verify(
            P.NeighborPreference(router="R1",
                                 peers_in_order=["N1", "N2"],
                                 dest_prefix_text="8.0.0.0/8"))
        assert result.holds is True

    def test_neighbor_preference_violated_in_wrong_order(self):
        net = bgp_multihomed().build()
        result = Verifier(net).verify(
            P.NeighborPreference(router="R1",
                                 peers_in_order=["N2", "N1"],
                                 dest_prefix_text="8.0.0.0/8"))
        assert result.holds is False


class TestPrefixLeaks:
    def test_long_prefix_leaks_without_filter(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.interface("host", "10.9.0.1/28")
        r1.bgp_network("10.9.0.0/28")
        b.external_peer("R1", asn=65100, name="N1")
        result = Verifier(b.build()).verify(P.NoPrefixLeak(
            max_length=24, dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False

    def test_aggregation_prevents_leak(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.interface("host", "10.9.0.1/28")
        r1.bgp_network("10.9.0.0/28")
        r1.config.bgp.aggregates.append((iplib.parse_ip("10.9.0.0"), 16))
        b.external_peer("R1", asn=65100, name="N1")
        result = Verifier(b.build()).verify(P.NoPrefixLeak(
            max_length=24, dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True


class TestLoadBalancing:
    def test_even_split_within_threshold(self):
        net = diamond().build()
        result = Verifier(net).verify(P.LoadBalanced(
            source_loads={"S": 1.0},
            monitor=[("L", "R")], threshold=0.01,
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_imbalance_detected_without_multipath(self):
        net = diamond(multipath=False).build()
        result = Verifier(net).verify(P.LoadBalanced(
            source_loads={"S": 1.0},
            monitor=[("L", "R")], threshold=0.5,
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False
        assert "imbalance" in result.message

    def test_lazy_result_carries_cost_stats(self):
        from repro import obs

        net = diamond().build()
        tracer = obs.Tracer()
        with obs.use(tracer):
            result = Verifier(net).verify(P.LoadBalanced(
                source_loads={"S": 1.0},
                monitor=[("L", "R")], threshold=0.01,
                dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True
        spans = tracer.spans
        solves = [s for s in spans if s["name"] == "verify.solve"]
        # The even split is only proven after refining at least one
        # stable state away: several checks, summed into one result.
        assert len(solves) >= 2
        assert result.solve_seconds == pytest.approx(
            sum(s["duration"] for s in solves))
        assert result.conflicts == sum(
            s["attrs"]["conflicts"] for s in spans
            if s["name"] == "sat.solve")
        assert result.conflicts > 0
        assert result.encode_seconds > 0
        assert result.encode_seconds == pytest.approx(
            result.encode_shared_seconds + result.encode_query_seconds)
        assert (result.encode_seconds + result.solve_seconds
                <= result.seconds)

    def test_forwarding_free_network_holds(self):
        # One router, no links: the only stable state forwards nowhere,
        # so once it is checked there is nothing left to refine away.
        b = NetworkBuilder()
        b.device("A").interface("host", "10.9.0.1/24")
        result = Verifier(b.build()).verify(P.LoadBalanced(
            source_loads={"A": 1.0}, monitor=[("A", "A")]))
        assert result.holds is True
        assert result.message == ""


class TestFaultInvariance:
    def test_diamond_is_fault_invariant(self):
        net = diamond().build()
        result = Verifier(net).verify_pairwise_fault_invariance(
            k=1, dest_prefix="10.9.0.0/24")
        assert result.holds is True

    def test_chain_is_not_fault_invariant(self):
        b, names = ospf_chain(3)
        result = Verifier(b.build()).verify_pairwise_fault_invariance(
            k=1, dest_prefix="10.9.0.0/24")
        assert result.holds is False

    def test_property_form(self):
        net = diamond().build()
        prop = P.Reachability(sources=["S"],
                              dest_prefix_text="10.9.0.0/24")
        result = Verifier(net).verify_fault_invariance(prop, k=1)
        assert result.holds is True

    def test_negative_k_rejected(self):
        verifier = Verifier(diamond().build())
        prop = P.Reachability(sources=["S"],
                              dest_prefix_text="10.9.0.0/24")
        with pytest.raises(ValueError, match="max_failures must be >= 0"):
            verifier.verify_fault_invariance(prop, k=-1)
        with pytest.raises(ValueError, match="max_failures must be >= 0"):
            verifier.verify_pairwise_fault_invariance(
                k=-1, dest_prefix="10.9.0.0/24")


class TestEquivalence:
    def test_identical_routers_locally_equivalent(self):
        b = NetworkBuilder()
        for name in ("A", "B"):
            dev = b.device(name)
            dev.enable_bgp(65001)
            dev.prefix_list("PL", [PrefixListEntry(
                "permit", iplib.parse_ip("10.0.0.0"), 8, ge=8, le=24)])
            dev.route_map("IMP", [RouteMapClause(
                seq=10, action="permit", match_prefix_list="PL",
                set_local_pref=150)])
        b.external_peer("A", asn=65100, name="NA", route_map_in="IMP")
        b.external_peer("B", asn=65100, name="NB", route_map_in="IMP")
        net = b.build()
        result = Verifier(net).verify_local_equivalence("A", "B")
        assert result.holds is True

    def test_acl_difference_breaks_equivalence(self):
        from repro.net.policy import Acl
        b = NetworkBuilder()
        for name in ("A", "B"):
            dev = b.device(name)
            dev.enable_bgp(65001)
            dev.interface("e9", "10.50.0.1/24" if name == "A"
                          else "10.51.0.1/24", acl_in="GUARD")
        b.device("A").acl("GUARD", [
            AclRule("deny", dst_network=iplib.parse_ip("172.16.0.0"),
                    dst_length=12),
            AclRule("permit")])
        b.device("B").acl("GUARD", [   # missing the deny entry
            AclRule("permit")])
        net = b.build()
        result = Verifier(net).verify_local_equivalence("A", "B")
        assert result.holds is False

    def test_route_map_difference_breaks_equivalence(self):
        b = NetworkBuilder()
        for name, lp in (("A", 150), ("B", 160)):
            dev = b.device(name)
            dev.enable_bgp(65001)
            dev.route_map("IMP", [RouteMapClause(
                seq=10, action="permit", set_local_pref=lp)])
        b.external_peer("A", asn=65100, name="NA", route_map_in="IMP")
        b.external_peer("B", asn=65100, name="NB", route_map_in="IMP")
        net = b.build()
        result = Verifier(net).verify_local_equivalence("A", "B")
        assert result.holds is False

    @staticmethod
    def split_guard_network():
        """A's ACL denies 172.16/12 in one rule, B's in two /13 halves:
        equivalent, but the solver needs conflicts to prove it."""
        b = NetworkBuilder()
        for name, addr in (("A", "10.50.0.1/24"), ("B", "10.51.0.1/24")):
            dev = b.device(name)
            dev.enable_bgp(65001)
            dev.interface("e9", addr, acl_in="GUARD")
        b.device("A").acl("GUARD", [
            AclRule("deny", dst_network=iplib.parse_ip("172.16.0.0"),
                    dst_length=12),
            AclRule("permit")])
        b.device("B").acl("GUARD", [
            AclRule("deny", dst_network=iplib.parse_ip("172.16.0.0"),
                    dst_length=13),
            AclRule("deny", dst_network=iplib.parse_ip("172.24.0.0"),
                    dst_length=13),
            AclRule("permit")])
        return b.build()

    def test_local_equivalence_result_is_complete(self):
        from repro import obs

        net = self.split_guard_network()
        tracer = obs.Tracer()
        with obs.use(tracer):
            result = Verifier(net).verify_local_equivalence("A", "B")
        assert result.holds is True
        spans = {s["name"]: s for s in tracer.spans}
        assert result.solve_seconds == pytest.approx(
            spans["verify.solve"]["duration"])
        assert result.conflicts == spans["sat.solve"]["attrs"]["conflicts"]
        assert result.conflicts > 0
        assert result.encode_seconds > 0
        assert result.encode_seconds == pytest.approx(
            result.encode_shared_seconds + result.encode_query_seconds)
        modules = {m["labels"].get("module")
                   for m in tracer.metrics.snapshot().values()
                   if m["name"] == "cnf.clauses"}
        assert modules == {"property"}

        unknown = Verifier(net, conflict_budget=1).verify_local_equivalence(
            "A", "B")
        assert unknown.holds is None
        assert unknown.message.startswith(
            "conflict budget exhausted after 1 conflicts")

    def test_full_equivalence_of_identical_networks(self):
        b1, _ = ospf_chain(3)
        b2, _ = ospf_chain(3)
        net1, net2 = b1.build(), b2.build()
        result = Verifier(net1).verify_full_equivalence(net2)
        assert result.holds is True

    def test_full_equivalence_detects_static_difference(self):
        b1, _ = ospf_chain(3)
        b2, _ = ospf_chain(3)
        b2.device("R2").static_route("10.9.0.0/24", drop=True)
        result = Verifier(b1.build()).verify_full_equivalence(b2.build())
        assert result.holds is False


class TestHijack:
    """The §8.1 management-interface hijack, distilled."""

    def build(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.enable_ospf()
        r2 = b.device("R2")
        r2.enable_ospf()
        b.link("R1", "R2")
        r2.interface("mgmt", "172.16.0.2/32", management=True)
        for name in ("R1", "R2"):
            b.device(name).ospf_network("10.0.0.0/8")
        r2.ospf_network("172.16.0.2/32")
        b.external_peer("R1", asn=65100, name="EXT")
        return b

    def test_hijackable_without_filter(self):
        net = self.build().build()
        result = Verifier(net).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="172.16.0.2/32"))
        assert result.holds is False
        cex = result.counterexample
        assert any(a.peer == "EXT" for a in cex.announcements)

    def test_filter_fixes_hijack(self):
        b = self.build()
        r1 = b.device("R1")
        r1.prefix_list("NOMGMT", [
            PrefixListEntry("deny", iplib.parse_ip("172.16.0.0"), 12,
                            ge=12, le=32),
            PrefixListEntry("permit", 0, 0, le=32)])
        r1.route_map("GUARD", [RouteMapClause(
            seq=10, action="permit", match_prefix_list="NOMGMT")])
        net = b.build()
        for nbr in net.device("R1").bgp.neighbors:
            nbr.route_map_in = "GUARD"
        result = Verifier(net).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="172.16.0.2/32"))
        assert result.holds is True


class TestEncoderOptions:
    """All optimization configurations must agree on verdicts."""

    CONFIGS = [
        EncoderOptions(),
        EncoderOptions(hoist_prefixes=False),
        EncoderOptions(slice_fields=False),
        EncoderOptions(merge_edge_records=False),
        EncoderOptions(merge_fwd=False),
        EncoderOptions(hoist_prefixes=False, slice_fields=False,
                       merge_edge_records=False, slice_connected=False,
                       merge_fwd=False),
    ]

    @pytest.mark.parametrize("options", CONFIGS,
                             ids=lambda o: repr(o)[15:55])
    def test_verdict_invariant_under_options(self, options):
        b, names = ospf_chain(3)
        net = b.build()
        good = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        bad = P.Reachability(sources=["R1"],
                             dest_prefix_text="172.20.0.0/16")
        assert Verifier(net, options=options).verify(good).holds is True
        assert Verifier(net, options=options).verify(bad).holds is False

    @pytest.mark.parametrize("options", CONFIGS[:3],
                             ids=["opt", "nohoist", "noslice"])
    def test_bgp_verdicts_invariant(self, options):
        net = bgp_multihomed().build()
        prop = P.NeighborPreference(router="R1",
                                    peers_in_order=["N1", "N2"],
                                    dest_prefix_text="8.0.0.0/8")
        assert Verifier(net, options=options).verify(prop).holds is True


class TestMaxFailuresPrecedence:
    """An explicit ``max_failures`` argument must win over the option
    default; ``prop.failures_needed`` wins only when larger."""

    def test_explicit_zero_beats_option_default(self):
        b, names = ospf_chain(2)
        verifier = Verifier(b.build(),
                            options=EncoderOptions(max_failures=1))
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        # Under the option default (k=1) the single link can fail and R1
        # is cut off; an explicit k=0 must suppress that.
        assert verifier.verify(prop).holds is False
        assert verifier.verify(prop, max_failures=0).holds is True

    def test_explicit_value_beats_option_default(self):
        from tests.core.test_engine import diamond
        verifier = Verifier(diamond(multipath=False),
                            options=EncoderOptions(max_failures=2))
        prop = P.Reachability(sources=["S"],
                              dest_prefix_text="10.9.0.0/24")
        assert verifier.verify(prop).holds is False
        assert verifier.verify(prop, max_failures=1).holds is True

    def test_failures_needed_still_wins_when_larger(self):
        from repro.core.verifier import effective_max_failures
        options = EncoderOptions(max_failures=0)
        plain = P.Reachability(sources=["R1"],
                               dest_prefix_text="10.9.0.0/24")
        assert effective_max_failures(plain, None, options) == 0
        assert effective_max_failures(plain, 2, options) == 2
        # A property that advertises failures_needed floors the bound
        # even against a smaller explicit argument.
        needy = P.Reachability(sources=["R1"],
                               dest_prefix_text="10.9.0.0/24",
                               failures_needed=2)
        assert effective_max_failures(needy, 0, options) == 2
        assert effective_max_failures(needy, 3, options) == 3

    def test_negative_rejected(self):
        from repro.core.verifier import effective_max_failures
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        with pytest.raises(ValueError):
            effective_max_failures(prop, -1, EncoderOptions())

    def test_negative_option_default_rejected(self):
        with pytest.raises(ValueError, match="max_failures must be >= 0"):
            EncoderOptions(max_failures=-1)


DST = "10.9.0.0/24"

#: One instance of every non-lazy property class in
#: :mod:`repro.core.properties`, phrased over :func:`diamond`.
DIAMOND_PROPERTIES = [
    P.Reachability(sources="all", dest_prefix_text=DST),
    P.Isolation(sources=["S"], dest_prefix_text=DST),
    P.Waypointing(source="S", waypoints=["L"], dest_prefix_text=DST),
    P.BoundedPathLength(sources="all", bound=1, dest_prefix_text=DST),
    P.EqualPathLengths(routers=["S", "L", "R"], dest_prefix_text=DST),
    P.DisjointPaths(router_a="L", router_b="R", dest_prefix_text=DST),
    P.NoForwardingLoops(dest_prefix_text=DST),
    P.NoBlackHoles(dest_prefix_text=DST),
    P.MultipathConsistency(dest_prefix_text=DST),
    P.NeighborPreference(router="S", peers_in_order=[],
                         dest_prefix_text=DST),
    P.PathPreference(preferred=["S", "L", "D"], fallback=["S", "R", "D"],
                     dest_prefix_text=DST),
    P.NoPrefixLeak(max_length=24),
    P.FaultInvariance(P.Reachability(sources=["S"], dest_prefix_text=DST)),
    P.PairwiseFaultInvariance(dest_prefix_text=DST),
    P.FullEquivalence(diamond().build()),
]


def external_peer():
    """R1 with one external BGP peer, EXT."""
    b = NetworkBuilder()
    b.device("R1").enable_bgp(65001)
    b.external_peer("R1", asn=65100, name="EXT")
    return b


#: ``(network builder, property, max_failures, assumptions)``: every
#: :data:`DIAMOND_PROPERTIES` entry at the default bound (the
#: simulation decides Reachability, NoForwardingLoops and NoBlackHoles
#: there), then queries at k=1, one of which the simulation decides,
#: and one under an ``announces`` assumption.
BATCH_OF_ONE_CASES = [
    pytest.param(diamond, prop, None, (), id=type(prop).__name__)
    for prop in DIAMOND_PROPERTIES
] + [
    pytest.param(diamond, P.Reachability(sources="all", dest_prefix_text=DST),
                 1, (), id="Reachability-k1"),
    pytest.param(diamond, P.DisjointPaths(router_a="L", router_b="R",
                                          dest_prefix_text=DST),
                 1, (), id="DisjointPaths-k1"),
    pytest.param(diamond, P.NoForwardingLoops(dest_prefix_text=DST),
                 1, (), id="NoForwardingLoops-k1"),
    pytest.param(external_peer,
                 P.Reachability(sources=["R1"], dest_peer="EXT",
                                dest_prefix_text="8.0.0.0/8"),
                 None, (P.announces("EXT", min_length=8),),
                 id="Reachability-announces"),
]


class TestVerifyIsABatchOfOne:
    def test_every_non_lazy_property_is_covered(self):
        classes = {cls for cls in vars(P).values()
                   if isinstance(cls, type) and issubclass(cls, P.Property)
                   and cls is not P.Property
                   and not getattr(cls, "lazy", False)}
        assert classes == {type(prop) for prop in DIAMOND_PROPERTIES}

    @pytest.mark.parametrize("build, prop, max_failures, assumptions",
                             BATCH_OF_ONE_CASES)
    def test_same_verdict_and_cnf_as_batch(self, build, prop, max_failures,
                                           assumptions):
        verifier = Verifier(build().build())
        single = verifier.verify(prop, max_failures=max_failures,
                                 assumptions=assumptions)
        [batched] = verifier.verify_batch([BatchQuery(
            prop, max_failures=max_failures, assumptions=assumptions)])
        assert single.holds == batched.holds
        assert single.method == batched.method
        assert single.num_variables == batched.num_variables
        assert single.num_clauses == batched.num_clauses
        assert single.conflicts == batched.conflicts
