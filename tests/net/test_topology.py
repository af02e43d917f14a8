"""Tests for topology derivation and the network builder."""

import pytest

from repro.net import DeviceConfig, ExternalPeer, Network, NetworkBuilder
from repro.net import ip as iplib


def two_router_net():
    b = NetworkBuilder()
    b.device("R1").enable_bgp(65001)
    b.device("R2").enable_bgp(65001)
    b.link("R1", "R2", subnet="10.0.12.0/30")
    return b


class TestBuilder:
    def test_link_creates_matching_interfaces(self):
        net = two_router_net().build()
        r1 = net.device("R1")
        r2 = net.device("R2")
        if1 = r1.interfaces["eth0"]
        if2 = r2.interfaces["eth0"]
        assert if1.address == iplib.parse_ip("10.0.12.1")
        assert if2.address == iplib.parse_ip("10.0.12.2")
        assert if1.subnet == if2.subnet

    def test_edges_are_bidirectional(self):
        net = two_router_net().build()
        assert net.edge_between("R1", "R2") is not None
        assert net.edge_between("R2", "R1") is not None
        assert len(net.internal_links()) == 1
        assert len(net.edges) == 2

    def test_auto_subnets_are_distinct(self):
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name)
        b.link("A", "B")
        b.link("B", "C")
        b.link("A", "C")
        net = b.build()
        assert len(net.internal_links()) == 3

    def test_external_peer_becomes_symbolic_neighbor(self):
        b = two_router_net()
        peer = b.external_peer("R1", asn=65099, name="N1")
        net = b.build()
        assert peer == "N1"
        exts = net.externals_at("R1")
        assert len(exts) == 1
        assert exts[0].asn == 65099
        assert net.externals_at("R2") == []

    def test_ibgp_session_pairs_addresses(self):
        b = two_router_net()
        b.ibgp_session("R1", "R2")
        net = b.build()
        r1 = net.device("R1")
        r2 = net.device("R2")
        assert r1.bgp.neighbors[0].peer_ip == iplib.parse_ip("10.0.12.2")
        assert r2.bgp.neighbors[0].peer_ip == iplib.parse_ip("10.0.12.1")
        assert r1.bgp.is_internal(r1.bgp.neighbors[0])

    def test_config_lines_estimated(self):
        net = two_router_net().build()
        assert net.device("R1").config_lines > 0
        assert net.total_config_lines() > 0

    def test_ranks_follow_router_id_then_name(self):
        """Routers by router id and peers by address share one order;
        equal ids go by name, and a peer may share a router's name."""
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name).enable_bgp(65001)
        b.link("A", "B", subnet="10.0.1.0/30")
        b.link("B", "C", subnet="10.0.2.0/30")
        b.external_peer("A", asn=65099, name="C", subnet="10.0.0.0/30")
        for name in ("A", "C"):
            b.device(name).config.bgp.router_id = iplib.parse_ip("9.9.9.9")
        routers, peers = b.build().ranks
        # Peer 10.0.0.2 ranks between the ids 9.9.9.9 and 10.0.2.1 (B).
        assert routers == {"A": 1, "C": 2, "B": 4}
        assert peers == {"C": 3}

    def test_duplicate_hostname_rejected(self):
        with pytest.raises(ValueError):
            Network([DeviceConfig(hostname="X"),
                     DeviceConfig(hostname="X")])


class TestTopologyQueries:
    def test_edges_from(self):
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name)
        b.link("A", "B")
        b.link("A", "C")
        net = b.build()
        targets = {e.target for e in net.edges_from("A")}
        assert targets == {"B", "C"}
        assert net.edges_from("missing") == []

    def test_peer_address_on_edge(self):
        net = two_router_net().build()
        edge = net.edge_between("R1", "R2")
        assert net.peer_address_on(edge) == iplib.parse_ip("10.0.12.2")

    def test_device_owning(self):
        net = two_router_net().build()
        assert net.device_owning(iplib.parse_ip("10.0.12.1")) == "R1"
        assert net.device_owning(iplib.parse_ip("10.0.12.2")) == "R2"
        assert net.device_owning(iplib.parse_ip("1.1.1.1")) is None

    def test_shutdown_interface_breaks_adjacency(self):
        b = two_router_net()
        b.device("R1").config.interfaces["eth0"].shutdown = True
        net = b.build()
        assert net.edge_between("R1", "R2") is None

    def test_unresolvable_bgp_peer_is_ignored(self):
        b = two_router_net()
        # Peer address on no local subnet: the session can never establish.
        b.device("R1").bgp_neighbor("203.0.113.9", remote_as=65000)
        net = b.build()
        assert net.externals == []

    def test_external_peer_name_defaults(self):
        b = two_router_net()
        b.external_peer("R1", asn=65099)
        net = b.build()
        assert net.externals[0].name.startswith("ext-R1-")


def only_session(net, router):
    (session,) = net.sessions(router)
    return session


class TestSessionTable:
    """One resolved record per ``neighbor`` statement."""

    def test_adjacent_ebgp(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.device("R2").enable_bgp(65002)
        b.link("R1", "R2", subnet="10.0.12.0/30")
        b.device("R1").bgp_neighbor("10.0.12.2", remote_as=65002)
        back = b.device("R2").bgp_neighbor("10.0.12.1", remote_as=65001)
        net = b.build()
        s = only_session(net, "R1")
        assert s.nbr is net.device("R1").bgp.neighbors[0]
        assert s.peer == s.peer_device == "R2"
        assert s.internal is False
        assert s.edge == net.edge_between("R1", "R2")
        assert s.local_address == iplib.parse_ip("10.0.12.1")
        assert s.reverse is back

    def test_adjacent_ibgp(self):
        b = two_router_net()
        b.ibgp_session("R1", "R2")
        net = b.build()
        s = only_session(net, "R2")
        assert s.nbr is net.device("R2").bgp.neighbors[0]
        assert s.peer == "R1"
        assert s.internal is True
        assert s.edge == net.edge_between("R2", "R1")
        assert s.local_address == iplib.parse_ip("10.0.12.2")
        assert s.reverse is net.device("R1").bgp.neighbors[0]

    def test_multihop_ibgp(self):
        b = NetworkBuilder()
        for name in ("A", "B", "C"):
            b.device(name).enable_bgp(65001)
        b.link("A", "B", subnet="10.0.1.0/30")
        b.link("B", "C", subnet="10.0.2.0/30")
        b.device("A").bgp_neighbor("10.0.2.2", remote_as=65001)
        back = b.device("C").bgp_neighbor("10.0.1.1", remote_as=65001)
        net = b.build()
        s = only_session(net, "A")
        assert s.peer == "C"
        assert s.internal is True
        assert s.edge is None
        # No subnet shared with C: A's first addressed interface.
        assert s.local_address == iplib.parse_ip("10.0.1.1")
        assert s.reverse is back

    def test_external_peer_on_connected_subnet(self):
        b = two_router_net()
        b.external_peer("R1", asn=65099, name="N1", subnet="192.0.2.0/30")
        net = b.build()
        s = only_session(net, "R1")
        peer_ip = iplib.parse_ip("192.0.2.2")
        assert s.peer == ExternalPeer(name="N1", router="R1",
                                      router_iface="eth1", peer_ip=peer_ip,
                                      asn=65099)
        assert s.peer_device is None
        assert s.internal is False
        assert s.edge is None
        assert s.local_address == iplib.parse_ip("192.0.2.1")
        assert s.reverse is None
        assert net.external("R1", "N1") is s.peer
        assert net.external("R1", peer_ip) is s.peer
        assert net.external("R2", "N1") is None
        assert net.external("R2", peer_ip) is None

    def test_dead_session(self):
        b = two_router_net()
        b.device("R1").bgp_neighbor("203.0.113.9", remote_as=65000)
        net = b.build()
        s = only_session(net, "R1")
        assert s.peer is None and s.peer_device is None
        assert s.internal is False
        assert s.edge is None
        assert s.local_address == iplib.parse_ip("10.0.12.1")
        assert s.reverse is None
        assert net.externals == []

    def test_owner_on_shutdown_interface(self):
        b = two_router_net()
        b.device("R2").interface("lo", "10.9.9.9/32").shutdown = True
        b.device("R1").bgp_neighbor("10.9.9.9", remote_as=65001)
        net = b.build()
        assert net.device_owning(iplib.parse_ip("10.9.9.9")) == "R2"
        s = only_session(net, "R1")
        assert s.peer == "R2"
        assert s.internal is True
        assert s.edge is None
        assert s.local_address == iplib.parse_ip("10.0.12.1")
        assert s.reverse is None

    def test_duplicated_address_goes_to_first_device(self):
        b = NetworkBuilder()
        for name in ("R3", "R1", "R2"):
            b.device(name).enable_bgp(65001)
        b.device("R3").interface("lo", "10.7.7.7/32")
        b.device("R1").interface("lo", "10.7.7.7/32")
        b.link("R2", "R1", subnet="10.0.12.0/30")
        b.device("R2").bgp_neighbor("10.7.7.7", remote_as=65001)
        net = b.build()
        # Devices order, not name order: R3 owns the address.
        assert net.device_owning(iplib.parse_ip("10.7.7.7")) == "R3"
        s = only_session(net, "R2")
        assert s.peer == "R3"
        assert s.internal is True
        assert s.edge is None
        assert s.local_address == iplib.parse_ip("10.0.12.1")
        assert s.reverse is None

    def test_one_sided_session(self):
        b = two_router_net()
        b.device("R1").bgp_neighbor("10.0.12.2", remote_as=65001)
        net = b.build()
        s = only_session(net, "R1")
        assert s.peer == "R2"
        assert s.internal is True
        assert s.edge == net.edge_between("R1", "R2")
        assert s.local_address == iplib.parse_ip("10.0.12.1")
        assert s.reverse is None
        assert net.sessions("R2") == ()

    def test_sessions_follow_statement_order(self):
        b = two_router_net()
        b.external_peer("R1", asn=65099)
        b.device("R1").bgp_neighbor("203.0.113.9", remote_as=65000)
        b.device("R1").bgp_neighbor("10.0.12.2", remote_as=65001)
        net = b.build()
        assert [s.nbr for s in net.sessions("R1")] == \
            net.device("R1").bgp.neighbors
        assert net.sessions("missing") == ()


def _index_networks():
    from repro.gen import build_cloud_network, build_fattree, random_scenario

    for seed in range(10):
        yield random_scenario(seed).network
    yield build_fattree(2).network
    for index in (0, 67, 96, 120, 151):
        yield build_cloud_network(index).network


def test_owner_index_matches_a_scan_of_every_interface():
    for net in _index_networks():
        in_use = {iface.address for dev in net.devices.values()
                  for iface in dev.interfaces.values()}
        in_use |= {nbr.peer_ip for dev in net.devices.values() if dev.bgp
                   for nbr in dev.bgp.neighbors}
        for address in in_use:
            scan = next((name for name, dev in net.devices.items()
                         for iface in dev.interfaces.values()
                         if iface.address == address), None)
            assert net.device_owning(address) == scan
