"""Data-plane tracing: dispositions, ECMP branching, ACLs, recursion."""


from repro.net import AclRule, NetworkBuilder
from repro.net import ip as iplib
from repro.net.policy import Acl
from repro.sim import (
    DELIVERED,
    DROPPED_ACL,
    DataPlane,
    Environment,
    ExternalAnnouncement,
    LOOP,
    NO_ROUTE,
    NULL_ROUTED,
    Packet,
    Trace,
    simulate,
)


class TestPacket:
    def test_to_parses_dotted_quad(self):
        packet = Packet.to("10.1.2.3", protocol=6, dst_port=443)
        assert packet.dst_ip == iplib.parse_ip("10.1.2.3")
        assert packet.protocol == 6
        assert packet.dst_port == 443

    def test_trace_properties(self):
        trace = Trace(path=("A", "B", "C"), disposition=DELIVERED)
        assert trace.delivered
        assert trace.hops == 2
        assert not Trace(path=("A",), disposition=NO_ROUTE).delivered


def two_hop():
    b = NetworkBuilder()
    for name in ("A", "B"):
        dev = b.device(name)
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
    b.link("A", "B")
    b.device("B").interface("host", "10.9.0.1/24")
    return b


class TestDispositions:
    def test_delivered_at_owned_address(self):
        dataplane = DataPlane(simulate(two_hop().build()))
        # Destination is B's own interface address.
        (trace,) = dataplane.traces("A", Packet.to("10.9.0.1"))
        assert trace.delivered
        assert trace.path == ("A", "B")

    def test_delivered_to_subnet_host(self):
        dataplane = DataPlane(simulate(two_hop().build()))
        (trace,) = dataplane.traces("A", Packet.to("10.9.0.200"))
        assert trace.delivered

    def test_no_route(self):
        dataplane = DataPlane(simulate(two_hop().build()))
        (trace,) = dataplane.traces("A", Packet.to("172.16.0.1"))
        assert trace.disposition == NO_ROUTE

    def test_null_routed(self):
        b = two_hop()
        b.device("A").static_route("172.16.0.0/16", drop=True)
        dataplane = DataPlane(simulate(b.build()))
        (trace,) = dataplane.traces("A", Packet.to("172.16.0.1"))
        assert trace.disposition == NULL_ROUTED

    def test_loop_detected(self):
        b = NetworkBuilder()
        b.device("A")
        b.device("B")
        b.link("A", "B", subnet="10.0.0.0/30")
        b.device("A").static_route("172.16.0.0/16", next_hop="10.0.0.2")
        b.device("B").static_route("172.16.0.0/16", next_hop="10.0.0.1")
        dataplane = DataPlane(simulate(b.build()))
        (trace,) = dataplane.traces("A", Packet.to("172.16.1.1"))
        assert trace.disposition == LOOP

    def test_exit_via_external_peer(self):
        b = NetworkBuilder()
        b.device("R").enable_bgp(65001)
        b.external_peer("R", asn=65100, name="N1")
        env = Environment.of([ExternalAnnouncement.make("N1",
                                                        "8.8.0.0/16")])
        dataplane = DataPlane(simulate(b.build(), env))
        (trace,) = dataplane.traces("R", Packet.to("8.8.8.8"))
        assert trace.disposition == "exited"
        assert trace.exit_peer == "N1"


class TestAclSemantics:
    def make_acl(self):
        return Acl("FILTER", (
            AclRule("deny", dst_network=iplib.parse_ip("10.9.0.0"),
                    dst_length=24, protocol=6, dst_port_low=22,
                    dst_port_high=22),
            AclRule("permit"),
        ))

    def test_egress_acl_applies(self):
        b = two_hop()
        net = b.build()
        dev_a = net.device("A")
        edge = net.edge_between("A", "B")
        dev_a.acls["FILTER"] = self.make_acl()
        dev_a.interfaces[edge.source_iface].acl_out = "FILTER"
        dataplane = DataPlane(simulate(net))
        ssh = Packet.to("10.9.0.5", protocol=6, dst_port=22)
        web = Packet.to("10.9.0.5", protocol=6, dst_port=443)
        (t1,) = dataplane.traces("A", ssh)
        (t2,) = dataplane.traces("A", web)
        assert t1.disposition == DROPPED_ACL
        assert t2.delivered

    def test_missing_acl_reference_denies(self):
        b = two_hop()
        net = b.build()
        edge = net.edge_between("A", "B")
        net.device("A").interfaces[edge.source_iface].acl_out = "GHOST"
        dataplane = DataPlane(simulate(net))
        (trace,) = dataplane.traces("A", Packet.to("10.9.0.5"))
        assert trace.disposition == DROPPED_ACL

    def test_acl_does_not_block_control_plane(self):
        # The route still propagates; only the data plane drops.
        b = two_hop()
        net = b.build()
        dev_a = net.device("A")
        edge = net.edge_between("A", "B")
        dev_a.acls["NONE"] = Acl("NONE", (AclRule("deny"),))
        dev_a.interfaces[edge.source_iface].acl_out = "NONE"
        result = simulate(net)
        assert result.fib_lookup("A", iplib.parse_ip("10.9.0.5")) != []


class TestRecursiveNextHop:
    def build_line(self, mesh_through_middle: bool):
        """A -- M -- B with a multihop iBGP session A<->B over OSPF."""
        b = NetworkBuilder()
        for name in ("A", "M", "B"):
            dev = b.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
        for name in ("A", "B") + (("M",) if mesh_through_middle else ()):
            b.device(name).enable_bgp(65001)
        b.link("A", "M")
        b.link("M", "B")
        probe = b.build()
        addr = {}
        for name in ("A", "M", "B"):
            dev = probe.device(name)
            addr[name] = next(i.address for i in dev.interfaces.values()
                              if i.address)
        b.device("A").bgp_neighbor(iplib.format_ip(addr["B"]),
                                   remote_as=65001)
        b.device("B").bgp_neighbor(iplib.format_ip(addr["A"]),
                                   remote_as=65001)
        if mesh_through_middle:
            for end in ("A", "B"):
                b.device("M").bgp_neighbor(iplib.format_ip(addr[end]),
                                           remote_as=65001)
                b.device(end).bgp_neighbor(iplib.format_ip(addr["M"]),
                                           remote_as=65001)
        b.external_peer("B", asn=65100, name="EXT")
        return b.build()

    def test_transit_without_full_mesh_blackholes(self):
        # The classic iBGP underlay hole: A resolves its remote next hop
        # through the IGP and hands the packet to M, but M (no BGP) has
        # no route for the destination.
        net = self.build_line(mesh_through_middle=False)
        env = Environment.of([ExternalAnnouncement.make("EXT",
                                                        "8.8.0.0/16")])
        dataplane = DataPlane(simulate(net, env))
        (trace,) = dataplane.traces("A", Packet.to("8.8.8.8"))
        assert trace.disposition == NO_ROUTE
        assert trace.path == ("A", "M")

    def test_full_mesh_delivers_through_transit(self):
        net = self.build_line(mesh_through_middle=True)
        env = Environment.of([ExternalAnnouncement.make("EXT",
                                                        "8.8.0.0/16")])
        dataplane = DataPlane(simulate(net, env))
        (trace,) = dataplane.traces("A", Packet.to("8.8.8.8"))
        assert trace.disposition == "exited"
        assert trace.path == ("A", "M", "B")


class TestReachableHelpers:
    def test_reachable_any_vs_all_paths(self):
        b = NetworkBuilder()
        for name in ("S", "L", "R", "D"):
            dev = b.device(name)
            dev.enable_ospf(multipath=True)
            dev.ospf_network("10.0.0.0/8")
        b.link("S", "L")
        b.link("S", "R")
        b.link("L", "D")
        b.link("R", "D")
        b.device("D").interface("host", "10.9.0.1/24")
        net = b.build()
        # Poison one branch with an ACL.
        dev_l = net.device("L")
        edge = net.edge_between("S", "L")
        dev_l.acls["BLK"] = Acl("BLK", (AclRule("deny"),))
        dev_l.interfaces[edge.target_iface].acl_in = "BLK"
        dataplane = DataPlane(simulate(net))
        packet = Packet.to("10.9.0.5")
        assert dataplane.reachable("S", packet)
        assert not dataplane.reachable_all_paths("S", packet)

    def test_step_lists_every_equal_cost_hop_that_passes(self):
        b = NetworkBuilder()
        for name in ("S", "L", "R", "D"):
            dev = b.device(name)
            dev.enable_ospf(multipath=True)
            dev.ospf_network("10.0.0.0/8")
        b.link("S", "L")
        b.link("S", "R")
        b.link("L", "D")
        b.link("R", "D")
        b.device("D").interface("host", "10.9.0.1/24")
        net = b.build()
        packet = Packet.to("10.9.0.5")
        dataplane = DataPlane(simulate(net))
        assert dataplane.step("S", packet) == (False, ("L", "R"))
        assert dataplane.step("D", packet) == (True, ())
        assert dataplane.step("S", Packet.to("172.16.0.1")) == (False, ())
        # An ingress ACL at L takes that branch out of S's step.
        edge = net.edge_between("S", "L")
        net.device("L").acls["BLK"] = Acl("BLK", (AclRule("deny"),))
        net.device("L").interfaces[edge.target_iface].acl_in = "BLK"
        assert DataPlane(simulate(net)).step("S", packet) == (False, ("R",))
