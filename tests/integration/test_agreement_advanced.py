"""Agreement tests for the harder §4 features: route reflectors, MED
comparison modes, multihop iBGP with recursive lookup, and failures."""

import pytest

from repro.net import NetworkBuilder
from repro.net import ip as iplib
from repro.sim import Environment, ExternalAnnouncement
from tests.integration.test_agreement import agreement_check


def addresses(builder, names):
    probe = builder.build()
    out = {}
    for name in names:
        dev = probe.device(name)
        out[name] = next(i.address for i in dev.interfaces.values()
                         if i.address)
    return out


class TestRouteReflector:
    def build(self):
        """hub-and-spoke: clients A, C peer only with reflector B."""
        builder = NetworkBuilder()
        for name in ("A", "B", "C"):
            dev = builder.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
            dev.enable_bgp(65001)
        builder.link("A", "B")
        builder.link("B", "C")
        builder.ibgp_session("A", "B")
        builder.ibgp_session("B", "C")
        for nbr in builder.device("B").config.bgp.neighbors:
            nbr.route_reflector_client = True
        builder.external_peer("A", asn=65100, name="EXT")
        return builder.build()

    def test_reflected_route_agreement(self):
        network = self.build()
        env = Environment.of([
            ExternalAnnouncement.make("EXT", "8.8.0.0/16")])
        for dst in ("8.8.8.8", "9.9.9.9"):
            agreement_check(network, env, iplib.parse_ip(dst))

    def test_client_reaches_external_via_reflector(self):
        from repro import Verifier
        from repro.core import properties as P

        network = self.build()
        result = Verifier(network).verify(
            P.Reachability(sources=["C"], dest_peer="EXT",
                           dest_prefix_text="8.0.0.0/8"),
            assumptions=[P.announces("EXT", min_length=8)])
        assert result.holds is True

    def test_without_reflector_client_is_isolated(self):
        builder = NetworkBuilder()
        for name in ("A", "B", "C"):
            dev = builder.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
            dev.enable_bgp(65001)
        builder.link("A", "B")
        builder.link("B", "C")
        builder.ibgp_session("A", "B")
        builder.ibgp_session("B", "C")   # B is NOT a reflector
        builder.external_peer("A", asn=65100, name="EXT")
        network = builder.build()
        from repro import Verifier
        from repro.core import properties as P

        result = Verifier(network).verify(
            P.Reachability(sources=["C"], dest_peer="EXT",
                           dest_prefix_text="8.0.0.0/8"),
            assumptions=[P.announces("EXT", min_length=8)])
        assert result.holds is False


class TestMedModes:
    def build(self, mode):
        builder = NetworkBuilder()
        dev = builder.device("R")
        dev.enable_bgp(65001)
        dev.config.bgp.med_mode = mode
        builder.external_peer("R", asn=65100, name="SAME_A")
        builder.external_peer("R", asn=65100, name="SAME_B")
        builder.external_peer("R", asn=65200, name="OTHER")
        return builder.build()

    @pytest.mark.parametrize("mode", ["always", "same-as", "ignore"])
    def test_agreement_across_modes(self, mode):
        network = self.build(mode)
        env = Environment.of([
            ExternalAnnouncement.make("SAME_A", "8.8.0.0/16", med=50,
                                      origin_asn=65100),
            ExternalAnnouncement.make("SAME_B", "8.8.0.0/16", med=10,
                                      origin_asn=65100),
            ExternalAnnouncement.make("OTHER", "8.8.0.0/16", med=30,
                                      origin_asn=65200),
        ])
        agreement_check(network, env, iplib.parse_ip("8.8.8.8"))


class TestMultihopIbgp:
    def build(self):
        """A -- M -- B with a multihop iBGP session A<->B; M in mesh."""
        builder = NetworkBuilder()
        for name in ("A", "M", "B"):
            dev = builder.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
            dev.enable_bgp(65001)
        builder.link("A", "M")
        builder.link("M", "B")
        addr = addresses(builder, ("A", "M", "B"))
        for x, y in (("A", "B"), ("A", "M"), ("M", "B")):
            builder.device(x).bgp_neighbor(iplib.format_ip(addr[y]),
                                           remote_as=65001)
            builder.device(y).bgp_neighbor(iplib.format_ip(addr[x]),
                                           remote_as=65001)
        builder.external_peer("B", asn=65100, name="EXT")
        return builder.build()

    def test_agreement_no_failures(self):
        network = self.build()
        env = Environment.of([
            ExternalAnnouncement.make("EXT", "8.8.0.0/16")])
        agreement_check(network, env, iplib.parse_ip("8.8.8.8"))

    def test_recursive_hop_breaks_ties_on_the_bgp_router_id(self):
        """S reaches its iBGP peer D's loopback over two equal-cost OSPF
        paths.  Z's configured BGP router id ranks it after B, so S's
        recursive first hop is B, in the simulator and in the encoder's
        BGP-free IGP view alike."""
        from repro.sim import Packet

        builder = NetworkBuilder()
        builder.device("D").interface("lo0", "10.9.9.9/32")
        for name in ("S", "Z", "B", "D"):
            dev = builder.device(name)
            dev.ospf_network("10.0.0.0/8")
            dev.enable_bgp(65001)
        for a, c in (("S", "Z"), ("S", "B"), ("Z", "D"), ("B", "D")):
            builder.link(a, c)
        builder.device("Z").config.bgp.router_id = iplib.parse_ip(
            "10.255.0.1")
        builder.ibgp_session("S", "D")
        builder.external_peer("D", asn=65100, name="EXT")
        env = Environment.of([
            ExternalAnnouncement.make("EXT", "8.8.0.0/16")])
        dst = iplib.parse_ip("8.8.8.8")
        _, _, dataplane = agreement_check(builder.build(), env, dst)
        assert dataplane.step("S", Packet(dst_ip=dst)) == (False, ("B",))

    def test_recursive_forwarding_reaches_exit(self):
        from repro import Verifier
        from repro.core import properties as P

        network = self.build()
        result = Verifier(network).verify(
            P.Reachability(sources=["A"], dest_peer="EXT",
                           dest_prefix_text="8.0.0.0/8"),
            assumptions=[P.announces("EXT", min_length=8)])
        assert result.holds is True

    def test_session_survives_failure_via_igp_copy(self):
        """Under k=1 the A<->B session rides the IGP: there is no
        alternate path here, so failing A-M kills it — and the encoder's
        §4 network-copy machinery must see that."""
        from repro import Verifier
        from repro.core import properties as P

        network = self.build()
        result = Verifier(network).verify(
            P.Reachability(sources=["A"], dest_peer="EXT",
                           dest_prefix_text="8.0.0.0/8"),
            max_failures=1,
            assumptions=[P.announces("EXT", min_length=8),
                         P.no_failures()])
        assert result.holds is True
        result2 = Verifier(network).verify(
            P.Reachability(sources=["A"], dest_peer="EXT",
                           dest_prefix_text="8.0.0.0/8"),
            max_failures=1,
            assumptions=[P.announces("EXT", min_length=8)])
        assert result2.holds is False

    def test_redundant_underlay_keeps_session_up(self):
        """With a second IGP path the copy proves the session stays up."""
        builder = NetworkBuilder()
        for name in ("A", "M", "N", "B"):
            dev = builder.device(name)
            dev.enable_ospf(multipath=False)
            dev.ospf_network("10.0.0.0/8")
        for name in ("A", "B"):
            builder.device(name).enable_bgp(65001)
        builder.link("A", "M")
        builder.link("M", "B")
        builder.link("A", "N")
        builder.link("N", "B")
        addr = addresses(builder, ("A", "B"))
        builder.device("A").bgp_neighbor(iplib.format_ip(addr["B"]),
                                         remote_as=65001)
        builder.device("B").bgp_neighbor(iplib.format_ip(addr["A"]),
                                         remote_as=65001)
        network = builder.build()
        from repro.core.encoder import EncoderOptions, NetworkEncoder
        from repro.smt import SAT, Solver, UNSAT, not_

        encoder = NetworkEncoder(network,
                                 EncoderOptions(max_failures=1))
        enc = encoder.encode()
        # The iBGP session-up term for (A -> B's address).
        (key,) = [k for k in encoder._ibgp_sessions if k[0] == "A"]
        up = encoder._ibgp_sessions[key]
        solver = Solver()
        solver.add(*enc.constraints)
        solver.add(not_(up))
        # Under <=1 failure the session can never be down: both underlay
        # paths would have to fail.
        assert solver.check() is UNSAT