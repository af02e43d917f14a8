"""Control-plane simulator tests, including the paper's §2.1 example."""


from repro.net import (
    AclRule,
    NetworkBuilder,
    PrefixListEntry,
    RouteMapClause,
)
from repro.net import ip as iplib
from repro.sim import (
    DataPlane,
    Environment,
    ExternalAnnouncement,
    Packet,
    simulate,
)


def ospf_triangle():
    """Three routers in a triangle, all OSPF, one host subnet each."""
    b = NetworkBuilder()
    for name in ("R1", "R2", "R3"):
        b.device(name).enable_ospf()
    b.link("R1", "R2")
    b.link("R1", "R3")
    b.link("R2", "R3")
    for i, name in enumerate(("R1", "R2", "R3"), start=1):
        b.device(name).interface(f"host{i}", f"10.{i}.0.1/24")
        b.device(name).ospf_network("10.0.0.0/8")
    return b


class TestOspf:
    def test_converges_and_full_reachability(self):
        result = simulate(ospf_triangle().build())
        assert result.converged
        dp = DataPlane(result)
        for src in ("R1", "R2", "R3"):
            for dst_subnet in ("10.1.0.9", "10.2.0.9", "10.3.0.9"):
                assert dp.reachable(src, Packet.to(dst_subnet)), \
                    f"{src} -> {dst_subnet}"

    def test_shortest_path_respects_costs(self):
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name).enable_ospf()
        b.link("A", "B", ospf_cost=10)
        b.link("A", "C", ospf_cost=1)
        b.link("C", "B", ospf_cost=1)
        b.device("B").interface("host", "10.9.0.1/24")
        for name in ("A", "B", "C"):
            b.device(name).ospf_network("10.0.0.0/8")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("A", Packet.to("10.9.0.5"))
        assert trace.path == ("A", "C", "B")

    def test_link_failure_reroutes(self):
        net = ospf_triangle().build()
        env = Environment.of(failed_links=[("R1", "R3")])
        dp = DataPlane(simulate(net, env))
        (trace,) = dp.traces("R3", Packet.to("10.1.0.5"))
        assert trace.path == ("R3", "R2", "R1")
        assert trace.delivered

    def test_partition_black_holes(self):
        b = NetworkBuilder()
        b.device("A").enable_ospf()
        b.device("B").enable_ospf()
        b.link("A", "B")
        b.device("B").interface("host", "10.9.0.1/24")
        for name in ("A", "B"):
            b.device(name).ospf_network("10.0.0.0/8")
        env = Environment.of(failed_links=[("A", "B")])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("A", Packet.to("10.9.0.5"))
        assert trace.disposition == "no-route"

    def test_ecmp_multipath_produces_branches(self):
        b = NetworkBuilder()
        for name in ("S", "L", "R", "D"):
            b.device(name).enable_ospf(multipath=True)
        b.link("S", "L")
        b.link("S", "R")
        b.link("L", "D")
        b.link("R", "D")
        b.device("D").interface("host", "10.9.0.1/24")
        for name in ("S", "L", "R", "D"):
            b.device(name).ospf_network("10.0.0.0/8")
        dp = DataPlane(simulate(b.build()))
        traces = dp.traces("S", Packet.to("10.9.0.5"))
        paths = {t.path for t in traces}
        assert paths == {("S", "L", "D"), ("S", "R", "D")}
        assert all(t.delivered for t in traces)

    def test_single_path_breaks_ties_on_router_id(self):
        """Of two equal-cost next hops, a single-path instance takes the
        one with the lower router id (Z, linked first, holds lower
        addresses than B), not the first name; multipath takes both."""
        for multipath, hops in ((False, ("Z",)), (True, ("B", "Z"))):
            b = NetworkBuilder()
            for name in ("S", "Z", "B", "D"):
                b.device(name).enable_ospf(multipath=multipath)
                b.device(name).ospf_network("10.0.0.0/8")
            b.link("S", "Z")
            b.link("S", "B")
            b.link("Z", "D")
            b.link("B", "D")
            b.device("D").interface("host", "10.9.0.1/24")
            network = b.build()
            rid = {n: network.device(n).router_id for n in ("Z", "B")}
            assert rid["Z"] < rid["B"]
            dp = DataPlane(simulate(network))
            assert dp.step("S", Packet.to("10.9.0.5")) == (False, hops)


class TestStaticRoutes:
    def test_null0_discards(self):
        b = NetworkBuilder()
        b.device("A").static_route("172.16.0.0/16", drop=True)
        b.device("A").interface("e0", "10.0.0.1/24")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("A", Packet.to("172.16.1.1"))
        assert trace.disposition == "null-routed"

    def test_next_hop_static_forwards(self):
        b = NetworkBuilder()
        b.device("A")
        b.device("B").interface("host", "172.16.0.1/16")
        b.link("A", "B", subnet="10.0.0.0/30")
        b.device("A").static_route("172.16.0.0/16", next_hop="10.0.0.2")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("A", Packet.to("172.16.5.5"))
        assert trace.path == ("A", "B")
        assert trace.delivered

    def test_unresolvable_next_hop_is_inactive(self):
        b = NetworkBuilder()
        b.device("A").interface("e0", "10.0.0.1/24")
        b.device("A").static_route("172.16.0.0/16", next_hop="192.0.2.1")
        result = simulate(b.build())
        assert result.fib_lookup("A", iplib.parse_ip("172.16.0.1")) == []

    def test_static_beats_ospf_by_ad(self):
        b = ospf_triangle()
        b.device("R3").static_route("10.1.0.0/24", drop=True)
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("R3", Packet.to("10.1.0.5"))
        assert trace.disposition == "null-routed"


def ebgp_pair():
    b = NetworkBuilder()
    b.device("R1").enable_bgp(65001)
    b.device("R2").enable_bgp(65002)
    b.link("R1", "R2", subnet="10.0.0.0/30")
    b.device("R1").bgp_neighbor("10.0.0.2", remote_as=65002)
    b.device("R2").bgp_neighbor("10.0.0.1", remote_as=65001)
    return b


class TestBgp:
    def test_network_statement_propagates(self):
        b = ebgp_pair()
        b.device("R2").interface("host", "10.9.0.1/24")
        b.device("R2").bgp_network("10.9.0.0/24")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("R1", Packet.to("10.9.0.5"))
        assert trace.path == ("R1", "R2")
        assert trace.delivered

    def test_external_announcement_reaches_every_router(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.device("R2").enable_bgp(65001)
        b.link("R1", "R2")
        b.ibgp_session("R1", "R2")
        b.external_peer("R1", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement.make("N1", "8.8.8.0/24")])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("R2", Packet.to("8.8.8.8"))
        assert trace.disposition == "exited"
        assert trace.exit_peer == "N1"

    def test_ebgp_loop_prevention_rejects_own_asn(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.link("R1", "R1x") if False else None
        b.external_peer("R1", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement(
            peer="N1", network=iplib.parse_ip("8.8.8.0"), length=24,
            as_path=(65100, 65001))])
        result = simulate(b.build(), env)
        assert result.fib_lookup("R1", iplib.parse_ip("8.8.8.8")) == []

    def test_ibgp_routes_not_reexported_to_ibgp(self):
        # Chain A - B - C all iBGP pairwise sessions A-B and B-C only:
        # C must NOT learn A's external route through B.
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name).enable_bgp(65001)
        b.link("A", "B")
        b.link("B", "C")
        b.ibgp_session("A", "B")
        b.ibgp_session("B", "C")
        b.external_peer("A", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement.make("N1", "8.8.8.0/24")])
        result = simulate(b.build(), env)
        assert result.fib_lookup("B", iplib.parse_ip("8.8.8.8")) != []
        assert result.fib_lookup("C", iplib.parse_ip("8.8.8.8")) == []

    def test_route_reflector_reflects_to_clients(self):
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name).enable_bgp(65001)
        b.link("A", "B")
        b.link("B", "C")
        b.ibgp_session("A", "B")
        b.ibgp_session("B", "C")
        # Mark both of B's iBGP peers as RR clients.
        for nbr in b.device("B").config.bgp.neighbors:
            nbr.route_reflector_client = True
        b.external_peer("A", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement.make("N1", "8.8.8.0/24")])
        result = simulate(b.build(), env)
        assert result.fib_lookup("C", iplib.parse_ip("8.8.8.8")) != []

    def test_shorter_as_path_preferred(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.external_peer("R1", asn=65100, name="N1")
        b.external_peer("R1", asn=65200, name="N2")
        env = Environment.of([
            ExternalAnnouncement.make("N1", "8.8.8.0/24", path_length=3),
            ExternalAnnouncement.make("N2", "8.8.8.0/24", path_length=1),
        ])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("R1", Packet.to("8.8.8.8"))
        assert trace.exit_peer == "N2"

    def test_local_pref_via_route_map_overrides_path_length(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.route_map("PREF_N1", [RouteMapClause(seq=10, action="permit",
                                                set_local_pref=200)])
        b.external_peer("R1", asn=65100, name="N1", route_map_in="PREF_N1")
        b.external_peer("R1", asn=65200, name="N2")
        env = Environment.of([
            ExternalAnnouncement.make("N1", "8.8.8.0/24", path_length=5),
            ExternalAnnouncement.make("N2", "8.8.8.0/24", path_length=1),
        ])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("R1", Packet.to("8.8.8.8"))
        assert trace.exit_peer == "N1"

    def test_prefix_list_filter_blocks_import(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.prefix_list("NO_MARTIANS", [
            PrefixListEntry("deny", iplib.parse_ip("192.168.0.0"), 16,
                            ge=16, le=32),
            PrefixListEntry("permit", 0, 0, le=32),
        ])
        r1.route_map("IMP", [RouteMapClause(
            seq=10, action="permit", match_prefix_list="NO_MARTIANS")])
        b.external_peer("R1", asn=65100, name="N1", route_map_in="IMP")
        env = Environment.of([
            ExternalAnnouncement.make("N1", "192.168.4.0/24"),
            ExternalAnnouncement.make("N1", "8.8.8.0/24"),
        ])
        result = simulate(b.build(), env)
        assert result.fib_lookup("R1", iplib.parse_ip("192.168.4.1")) == []
        assert result.fib_lookup("R1", iplib.parse_ip("8.8.8.8")) != []

    def test_med_breaks_ties_in_always_mode(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.external_peer("R1", asn=65100, name="N1")
        b.external_peer("R1", asn=65100, name="N2")
        env = Environment.of([
            ExternalAnnouncement.make("N1", "8.8.8.0/24", med=50),
            ExternalAnnouncement.make("N2", "8.8.8.0/24", med=10),
        ])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("R1", Packet.to("8.8.8.8"))
        assert trace.exit_peer == "N2"

    def test_aggregate_activated_by_covered_route(self):
        b = ebgp_pair()
        r2 = b.device("R2")
        r2.interface("host", "10.9.1.1/24")
        r2.bgp_network("10.9.1.0/24")
        r2.config.bgp.aggregates.append((iplib.parse_ip("10.9.0.0"), 16))
        result = simulate(b.build())
        # R1 must see the /16 aggregate (R2 exports its best per prefix).
        assert result.fib_lookup("R1", iplib.parse_ip("10.9.200.1")) != []


class TestRedistribution:
    def test_bgp_into_ospf_gives_igp_routers_external_reach(self):
        # Paper Figure 2 shape: R3 is OSPF-only; R1 redistributes BGP.
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_bgp(65001)
        r1.enable_ospf()
        r1.redistribute("ospf", "bgp", metric=20)
        r3 = b.device("R3")
        r3.enable_ospf()
        b.link("R1", "R3")
        r1.ospf_network("10.0.0.0/8")
        r3.ospf_network("10.0.0.0/8")
        b.external_peer("R1", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement.make("N1", "8.8.8.0/24")])
        dp = DataPlane(simulate(b.build(), env))
        (trace,) = dp.traces("R3", Packet.to("8.8.8.8"))
        assert trace.disposition == "exited"
        assert trace.path == ("R3", "R1")

    def test_connected_into_bgp_announces_local_subnets(self):
        # A local subnet sits in the routing table as *connected*, so it
        # takes "redistribute connected" (not ospf) to announce it.
        b = ebgp_pair()
        r2 = b.device("R2")
        r2.interface("host", "10.9.0.1/24")
        r2.redistribute("bgp", "connected")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("R1", Packet.to("10.9.0.5"))
        assert trace.delivered

    def test_ospf_learned_routes_redistribute_into_bgp(self):
        # R3's subnet is OSPF-learned at R2, which redistributes it.
        b = ebgp_pair()
        r2 = b.device("R2")
        r2.enable_ospf()
        r2.redistribute("bgp", "ospf")
        r3 = b.device("R3")
        r3.enable_ospf()
        r3.interface("host", "10.9.0.1/24")
        b.link("R2", "R3")
        r2.ospf_network("10.0.0.0/8")
        r3.ospf_network("10.0.0.0/8")
        dp = DataPlane(simulate(b.build()))
        (trace,) = dp.traces("R1", Packet.to("10.9.0.5"))
        assert trace.delivered
        assert trace.path == ("R1", "R2", "R3")

    def test_own_subnet_not_redistributed_as_ospf(self):
        # The regression behind the encoder's ghost-route fix: a router's
        # own OSPF-enabled subnet is connected, not OSPF, in its table.
        b = ebgp_pair()
        r2 = b.device("R2")
        r2.enable_ospf()
        r2.interface("host", "10.9.0.1/24")
        r2.ospf_network("10.9.0.0/24")
        r2.redistribute("bgp", "ospf")
        result = simulate(b.build())
        assert result.fib_lookup("R1", iplib.parse_ip("10.9.0.5")) == []

    def test_static_into_bgp(self):
        b = ebgp_pair()
        r2 = b.device("R2")
        r2.static_route("172.16.0.0/16", drop=True)
        r2.redistribute("bgp", "static")
        result = simulate(b.build())
        assert result.fib_lookup("R1", iplib.parse_ip("172.16.1.1")) != []


class TestAcls:
    def test_ingress_acl_drops(self):
        b = ospf_triangle()
        r1 = b.device("R1")
        r1.acl("BLOCK3", [
            AclRule("deny", dst_network=iplib.parse_ip("10.1.0.0"),
                    dst_length=24),
            AclRule("permit"),
        ])
        # Apply on R1's interface toward R3.
        net = b.build()
        edge = net.edge_between("R3", "R1")
        net.device("R1").interfaces[edge.target_iface].acl_in = "BLOCK3"
        dp = DataPlane(simulate(net))
        (trace,) = dp.traces("R3", Packet.to("10.1.0.5"))
        assert trace.disposition == "dropped-acl"
        # Control plane is unaffected: R2 still reaches R1's subnet.
        assert dp.reachable("R2", Packet.to("10.1.0.5"))


class TestPaperSection21:
    """The motivating example: interference of paths through N1, N2, N3."""

    def build(self):
        b = NetworkBuilder()
        for name in ("R1", "R2"):
            dev = b.device(name)
            dev.enable_bgp(65001)
            dev.enable_ospf()
            dev.redistribute("ospf", "bgp", metric=20)
        r3 = b.device("R3")
        r3.enable_ospf()
        b.link("R1", "R2", ospf_cost=1)
        b.link("R1", "R3", ospf_cost=1)
        b.link("R2", "R3", ospf_cost=10)   # R3 prefers exiting via R1
        for name in ("R1", "R2", "R3"):
            b.device(name).ospf_network("10.0.0.0/8")
        b.ibgp_session("R1", "R2")
        r1, r2 = b.device("R1"), b.device("R2")
        # Communities tag which external neighbor a route came through.
        for dev, prefs in ((r1, {"n1": 110, "n2": 120, "n3": 100}),
                           (r2, {"n1": 110, "n2": 120, "n3": 130})):
            for tag in ("n1", "n2", "n3"):
                dev.community_list(f"is_{tag}", [f"65001:{tag}"])
            dev.route_map("IBGP_IN", [
                RouteMapClause(seq=10 * i, action="permit",
                               match_community_list=f"is_{tag}",
                               set_local_pref=prefs[tag])
                for i, tag in enumerate(("n1", "n2", "n3"), start=1)
            ] + [RouteMapClause(seq=100, action="permit")])
        r1.route_map("FROM_N1", [RouteMapClause(
            seq=10, action="permit", set_local_pref=110,
            add_communities=("65001:n1",))])
        r2.route_map("FROM_N2", [RouteMapClause(
            seq=10, action="permit", set_local_pref=120,
            add_communities=("65001:n2",))])
        r2.route_map("FROM_N3", [RouteMapClause(
            seq=10, action="permit", set_local_pref=130,
            add_communities=("65001:n3",))])
        # Attach the iBGP import policy to the existing iBGP sessions.
        for dev in (r1, r2):
            for nbr in dev.config.bgp.neighbors:
                if nbr.remote_as == 65001:
                    nbr.route_map_in = "IBGP_IN"
        b.external_peer("R1", asn=65101, name="N1", route_map_in="FROM_N1")
        b.external_peer("R2", asn=65102, name="N2", route_map_in="FROM_N2")
        b.external_peer("R2", asn=65103, name="N3", route_map_in="FROM_N3")
        return b.build()

    def announce(self, *peers):
        return Environment.of([
            ExternalAnnouncement.make(p, "8.8.8.0/24") for p in peers
        ])

    def exit_of(self, net, env):
        dp = DataPlane(simulate(net, env))
        traces = dp.traces("R3", Packet.to("8.8.8.8"))
        assert len(traces) == 1
        return traces[0].exit_peer

    def test_only_n1_announcing_uses_n1(self):
        net = self.build()
        assert self.exit_of(net, self.announce("N1")) == "N1"

    def test_n2_interference_diverts_to_n2(self):
        net = self.build()
        assert self.exit_of(net, self.announce("N1", "N2")) == "N2"

    def test_n3_counter_interference_restores_n1(self):
        net = self.build()
        assert self.exit_of(net, self.announce("N1", "N2", "N3")) == "N1"
