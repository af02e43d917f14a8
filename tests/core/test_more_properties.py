"""Coverage for the remaining §5 properties: disjoint paths, path
preferences, waypointing to external destinations, isolation with peers."""


from repro import NetworkBuilder, Verifier
from repro.core import properties as P
from repro.net import RouteMapClause
from repro.net import ip as iplib


def two_plane_network():
    """S reaches D over two fully disjoint planes: S-L-D and S-R-D."""
    b = NetworkBuilder()
    for name in ("S", "L", "R", "D"):
        dev = b.device(name)
        dev.enable_ospf(multipath=False)
        dev.ospf_network("10.0.0.0/8")
    b.link("S", "L", ospf_cost=1)
    b.link("L", "D", ospf_cost=1)
    b.link("S", "R", ospf_cost=5)
    b.link("R", "D", ospf_cost=5)
    b.device("D").interface("host", "10.9.0.1/24")
    return b


class TestDisjointPaths:
    def test_disjoint_when_entry_points_differ(self):
        # L and R use disjoint paths toward D (L-D vs R-D).
        net = two_plane_network().build()
        result = Verifier(net).verify(P.DisjointPaths(
            router_a="L", router_b="R",
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is True

    def test_shared_link_detected(self):
        # S and L share the L-D link.
        net = two_plane_network().build()
        result = Verifier(net).verify(P.DisjointPaths(
            router_a="S", router_b="L",
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False


class TestPathPreference:
    def build(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.route_map("LP200", [RouteMapClause(seq=10, action="permit",
                                              set_local_pref=200)])
        b.external_peer("R1", asn=65100, name="GOOD",
                        route_map_in="LP200")
        b.external_peer("R1", asn=65200, name="BACKUP")
        return b.build()

    def test_fallback_only_when_preferred_rejected(self):
        net = self.build()
        result = Verifier(net).verify(P.PathPreference(
            preferred=["R1", "GOOD"], fallback=["R1", "BACKUP"],
            dest_prefix_text="8.0.0.0/8"))
        assert result.holds is True

    def test_violated_with_inverted_preference(self):
        net = self.build()
        result = Verifier(net).verify(P.PathPreference(
            preferred=["R1", "BACKUP"], fallback=["R1", "GOOD"],
            dest_prefix_text="8.0.0.0/8"))
        assert result.holds is False


class TestWaypointToExternal:
    def test_exit_traffic_waypoints_the_firewall(self):
        b = NetworkBuilder()
        for name in ("EDGE", "FW", "CORE"):
            dev = b.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
        b.device("EDGE").enable_bgp(65001)
        b.device("EDGE").redistribute("ospf", "bgp", metric=20)
        b.link("CORE", "FW")
        b.link("FW", "EDGE")
        peer = b.external_peer("EDGE", asn=65100, name="UPSTREAM")
        net = b.build()
        result = Verifier(net).verify(
            P.Waypointing(source="CORE", waypoints=["FW"],
                          dest_peer=peer,
                          dest_prefix_text="8.0.0.0/8"))
        assert result.holds is True

    def test_bypass_detected_with_direct_link(self):
        b = NetworkBuilder()
        for name in ("EDGE", "FW", "CORE"):
            dev = b.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
        b.device("EDGE").enable_bgp(65001)
        b.device("EDGE").redistribute("ospf", "bgp", metric=20)
        b.link("CORE", "FW", ospf_cost=1)
        b.link("FW", "EDGE", ospf_cost=1)
        b.link("CORE", "EDGE", ospf_cost=1)   # the bypass
        peer = b.external_peer("EDGE", asn=65100, name="UPSTREAM")
        net = b.build()
        result = Verifier(net).verify(
            P.Waypointing(source="CORE", waypoints=["FW"],
                          dest_peer=peer,
                          dest_prefix_text="8.0.0.0/8"))
        assert result.holds is False


class TestIsolationWithPeers:
    def test_filtered_space_never_exits(self):
        from repro.net import PrefixListEntry

        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.enable_ospf()
        r1.interface("lan", "192.168.1.1/24")
        r1.ospf_network("192.168.0.0/16")
        r1.prefix_list("NOLAN", [
            PrefixListEntry("deny", iplib.parse_ip("192.168.0.0"), 16,
                            ge=16, le=32),
            PrefixListEntry("permit", 0, 0, le=32)])
        r1.route_map("IMP", [RouteMapClause(
            seq=10, action="permit", match_prefix_list="NOLAN")])
        peer = b.external_peer("R1", asn=65100, name="UP",
                               route_map_in="IMP")
        net = b.build()
        # LAN-destined traffic can never exit via the peer, because the
        # import filter blocks any LAN-covering announcement.
        result = Verifier(net).verify(P.Isolation(
            sources=["R1"], dest_peer=peer,
            dest_prefix_text="192.168.1.0/24"))
        assert result.holds is True

    def test_unfiltered_space_can_exit(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        peer = b.external_peer("R1", asn=65100, name="UP")
        net = b.build()
        result = Verifier(net).verify(P.Isolation(
            sources=["R1"], dest_peer=peer,
            dest_prefix_text="8.0.0.0/8"))
        assert result.holds is False


class TestVerificationResultApi:
    def test_repr_and_bool(self):
        b = NetworkBuilder()
        dev = b.device("A")
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
        dev.interface("host", "10.9.0.1/24")
        net = b.build()
        good = Verifier(net).verify(P.Reachability(
            sources=["A"], dest_prefix_text="10.9.0.0/24"))
        assert bool(good) is True
        assert "HOLDS" in repr(good)
        # k=1: the network would fix this verdict at k=0 without an
        # encoding, and the counts below are the encoding's.
        bad = Verifier(net).verify(P.Reachability(
            sources=["A"], dest_prefix_text="172.16.0.0/16"),
            max_failures=1)
        assert bool(bad) is False
        assert "VIOLATED" in repr(bad)
        assert bad.num_variables > 0
        assert bad.num_clauses > 0
        assert bad.seconds >= 0

    def test_unknown_on_tiny_budget(self):

        from repro.gen import build_fattree

        tree = build_fattree(4)
        verifier = Verifier(tree.network, conflict_budget=1)
        # k=1: at k=0 the fat-tree fixes this verdict without a search.
        result = verifier.verify(P.Reachability(
            sources=[tree.tors[0]],
            dest_prefix_text=tree.tor_subnet(tree.tors[-1])),
            max_failures=1)
        assert result.holds is None
        assert bool(result) is False


from tests.core.test_verifier import bgp_multihomed  # noqa: E402


class TestAssumptionHelpers:
    def test_announces_with_max_path(self):
        net = bgp_multihomed().build()
        v = Verifier(net)
        # N1 announces (short path), N2 silent: traffic must exit via N1.
        # (With N2 unconstrained, a longer N2 prefix would legitimately
        # win longest-prefix match over N1's local-pref.)
        result = v.verify(
            P.Reachability(sources=["R1"], dest_peer="N1",
                           dest_prefix_text="8.0.0.0/8"),
            assumptions=[P.announces("N1", min_length=8, max_path=1),
                         P.silent("N2")])
        assert result.holds is True

    def test_silent_forces_unreachability(self):
        net = bgp_multihomed().build()
        v = Verifier(net)
        result = v.verify(
            P.Reachability(sources=["R1"], dest_peer="N1",
                           dest_prefix_text="8.0.0.0/8"),
            assumptions=[P.silent("N1")])
        assert result.holds is False

    def test_no_failures_assumption_restores_property(self):
        from tests.core.test_verifier import ospf_chain

        b, _ = ospf_chain(3)
        net = b.build()
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        v = Verifier(net)
        assert v.verify(prop, max_failures=1).holds is False
        assert v.verify(prop, max_failures=1,
                        assumptions=[P.no_failures()]).holds is True


class TestFaultInvarianceOtherProperties:
    def test_blackhole_fault_invariance(self):
        from tests.core.test_verifier import diamond

        net = diamond().build()
        prop = P.NoBlackHoles(dest_prefix_text="10.9.0.0/24")
        result = Verifier(net).verify_fault_invariance(prop, k=1)
        assert result.holds is True
