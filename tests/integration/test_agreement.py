"""Encoder ↔ simulator agreement (the paper's §7 validation methodology).

With the symbolic environment pinned to a concrete one and the packet
destination fixed, the encoding's stable state must match the simulator's
fixpoint: the same per-router delivery verdicts and the same forwarding
edges.  Runs over hand-built scenarios and a seeded family of random
networks/environments.
"""

import pytest

from repro.core.concrete import counterexample_environment, pin_environment
from repro.core.encoder import EncoderOptions, NetworkEncoder
from repro.core.properties import reach_instrumentation
from repro.gen import random_scenario
from repro.net import ip as iplib
from repro.sim import DataPlane, Packet, simulate
from repro.smt import FALSE, SAT, Solver


def agreement_check(network, environment, dst_ip, options=None):
    """Assert encoder and simulator agree for one concrete scenario."""
    sim_result = simulate(network, environment)
    assert sim_result.converged, "simulator did not converge"
    dataplane = DataPlane(sim_result)

    encoder = NetworkEncoder(network, options or EncoderOptions())
    enc = encoder.encode()
    base = {r: enc.local_deliver.get(r, FALSE) for r in enc.routers()}
    reach = reach_instrumentation(enc, base, tag="agree")
    solver = Solver()
    solver.add(*enc.constraints)
    solver.add(*pin_environment(enc, environment, dst_ip))
    assert solver.check() is SAT, "no stable state under pinned environment"
    model = solver.model()

    packet = Packet(dst_ip=dst_ip)
    disagreements = []
    for router in network.router_names():
        sim_reaches = dataplane.reachable(router, packet)
        enc_reaches = model.eval(reach[router])
        if sim_reaches != enc_reaches:
            traces = dataplane.traces(router, packet)
            disagreements.append(
                (router, sim_reaches, enc_reaches,
                 [t.disposition for t in traces]))
        sim_targets = dataplane.step(router, packet)[1]
        enc_targets = tuple(sorted(
            target for target in enc.targets_of(router)
            if model.eval(enc.data_fwd(router, target))))
        if sim_targets != enc_targets:
            disagreements.append((router, sim_targets, enc_targets))
    assert not disagreements, (
        f"dst={iplib.format_ip(dst_ip)} disagreements={disagreements}")
    return model, enc, dataplane


class TestHandBuiltAgreement:
    def test_ospf_triangle(self):
        from tests.sim.test_simulator import ospf_triangle
        from repro.sim import Environment

        network = ospf_triangle().build()
        for dst in ("10.1.0.9", "10.2.0.9", "10.3.0.9", "10.250.0.1"):
            agreement_check(network, Environment.empty(),
                            iplib.parse_ip(dst))

    def test_ospf_triangle_under_failure(self):
        from tests.sim.test_simulator import ospf_triangle
        from repro.sim import Environment

        network = ospf_triangle().build()
        env = Environment.of(failed_links=[("R1", "R3")])
        options = EncoderOptions(max_failures=1)
        agreement_check(network, env, iplib.parse_ip("10.1.0.9"),
                        options=options)

    def test_bgp_with_announcement(self):
        from repro.net import NetworkBuilder
        from repro.sim import Environment, ExternalAnnouncement

        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.device("R2").enable_bgp(65001)
        b.link("R1", "R2")
        b.ibgp_session("R1", "R2")
        b.external_peer("R1", asn=65100, name="N1")
        network = b.build()
        env = Environment.of([
            ExternalAnnouncement.make("N1", "8.8.0.0/16", path_length=2)])
        for dst in ("8.8.8.8", "9.9.9.9"):
            agreement_check(network, env, iplib.parse_ip(dst))

    def test_paper_figure2_scenarios(self):
        """The §2.1 example must agree under all three environments, and
        the chosen exit must match the simulator's."""
        from tests.sim.test_simulator import TestPaperSection21

        helper = TestPaperSection21()
        network = helper.build()
        for peers in (("N1",), ("N1", "N2"), ("N1", "N2", "N3")):
            env = helper.announce(*peers)
            dst = iplib.parse_ip("8.8.8.8")
            model, enc, dataplane = agreement_check(network, env, dst)
            sim_exit = dataplane.traces("R3", Packet(dst))[0].exit_peer
            enc_exits = [
                peer.name for peer in network.externals
                if model.eval(enc.data_fwd(peer.router, peer.name))
            ]
            assert sim_exit in enc_exits

    def test_same_named_peers_are_told_apart_by_router(self):
        """R1 and R2 each peer with an external described ``ISP``.
        R2's exit toward its own ``ISP`` is ``eth2`` and denies every
        packet, so R2 hands 8.8.8.8 to no one; R1's exit ``eth1``,
        which on R2 is a plain host interface, must not stand in."""
        from repro import Verifier
        from repro.core import properties as P
        from repro.net import AclRule, NetworkBuilder
        from repro.sim import Environment, ExternalAnnouncement

        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        r2 = b.device("R2")
        r2.enable_bgp(65002)
        b.link("R1", "R2")
        b.device("R1").bgp_neighbor("10.128.0.2", remote_as=65002)
        r2.bgp_neighbor("10.128.0.1", remote_as=65001)
        r2.interface(r2.next_interface_name(), "10.9.0.1/24")
        b.external_peer("R1", asn=65100, name="ISP")
        b.external_peer("R2", asn=65100, name="ISP")
        r2.acl("DENY-ALL", [AclRule("deny")])
        r2.config.interfaces["eth2"].acl_out = "DENY-ALL"
        network = b.build()
        assert [(p.router, p.router_iface) for p in network.externals] == [
            ("R1", "eth1"), ("R2", "eth2")]
        env = Environment.of([
            ExternalAnnouncement.make("ISP", "8.0.0.0/8", path_length=1)])
        packet = Packet.to("8.8.8.8")
        _, _, dataplane = agreement_check(network, env, packet.dst_ip)
        assert dataplane.step("R2", packet) == (False, ())
        assert dataplane.step("R1", packet) == (False, ("ISP",))
        result = Verifier(network, preflight=False).verify(
            P.Reachability(sources=["R2"], dest_peer="ISP"))
        assert result.holds is False

    def test_statics_and_redistribution(self):
        from repro.net import NetworkBuilder
        from repro.sim import Environment

        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_ospf()
        r1.enable_bgp(65001)
        r2 = b.device("R2")
        r2.enable_ospf()
        b.link("R1", "R2")
        for name in ("R1", "R2"):
            b.device(name).ospf_network("10.0.0.0/8")
        r1.static_route("172.16.0.0/16", drop=True)
        r1.redistribute("bgp", "static")
        r1.redistribute("ospf", "static", metric=30)
        network = b.build()
        for dst in ("172.16.4.4", "10.128.0.2"):
            agreement_check(network, Environment.empty(),
                            iplib.parse_ip(dst))

    def test_origin_ties_a_learned_route_on_router_id(self):
        """R2's own OSPF route (a floating static, metric 20) ties the
        one learned from R1 (19 plus cost 1).  R1's lower router id
        wins in both, so R2 forwards to R1 rather than on its AD-250
        static."""
        from repro.net import NetworkBuilder
        from repro.sim import Environment

        b = NetworkBuilder()
        b.link("R1", "R2")
        for name, metric in (("R1", 19), ("R2", 20)):
            dev = b.device(name)
            dev.ospf_network("10.0.0.0/8")
            dev.static_route("172.16.0.0/16", drop=True).ad = 250
            dev.redistribute("ospf", "static", metric=metric)
        network = b.build()
        dst = iplib.parse_ip("172.16.0.1")
        _, _, dataplane = agreement_check(network, Environment.empty(), dst)
        assert dataplane.step("R2", Packet(dst_ip=dst)) == (False, ("R1",))

    def test_shutdown_interface_takes_no_packets(self):
        """A shut-down interface's address is not delivered locally, in
        the simulator as in the encoder's ``owns`` term."""
        from repro import Verifier
        from repro.core import properties as P
        from repro.net import NetworkBuilder
        from repro.sim import Environment

        b = NetworkBuilder()
        for name in ("R1", "R2"):
            dev = b.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
        b.link("R1", "R2")
        b.device("R2").interface("eth1", "10.9.0.1/24").shutdown = True
        network = b.build()
        packet = Packet.to("10.9.0.1")
        dataplane = DataPlane(simulate(network))
        assert dataplane.step("R2", packet) == (False, ())
        assert not dataplane.reachable("R2", packet)
        result = Verifier(network, preflight=False).verify(P.Reachability(
            sources=["R2"], dest_prefix_text="10.9.0.1/32"))
        assert result.holds is False
        agreement_check(network, Environment.empty(), packet.dst_ip)


class TestRandomAgreement:
    """Seeded random networks: simulator fixpoint == encoder stable state."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_scenario_agreement(self, seed):
        scenario = random_scenario(seed)
        sim_result = simulate(scenario.network, scenario.environment)
        if not sim_result.converged:
            pytest.skip("random scenario did not converge")
        for dst in scenario.probe_destinations[:4]:
            agreement_check(scenario.network, scenario.environment, dst)


def replay(network, cex):
    """Simulate ``network`` under a counterexample's environment and
    assert that every router forwards its packet as the counterexample
    says; returns the replay's data plane."""
    dataplane = DataPlane(simulate(network, counterexample_environment(cex)))
    packet = Packet(dst_ip=cex.dst_ip)
    for router in network.router_names():
        targets = list(dataplane.step(router, packet)[1])
        assert targets == cex.forwarding.get(router, []), router
    return dataplane


class TestCounterexampleReplay:
    """Verifier counterexamples replayed through the simulator must show
    the same violation along the same forwarding edges."""

    def test_hijack_counterexample_replays(self):
        from tests.core.test_verifier import TestHijack
        from repro import Verifier
        from repro.core import properties as P

        network = TestHijack().build().build()
        result = Verifier(network).verify(P.Reachability(
            sources=["R1"], dest_prefix_text="172.16.0.2/32"))
        assert result.holds is False
        cex = result.counterexample
        dataplane = replay(network, cex)
        assert not dataplane.reachable("R1", Packet(dst_ip=cex.dst_ip))

    def test_cloud_hijack_counterexample_replays(self):
        """The hijacked management /32 reaches a router (tor2) whose two
        equal-cost routes the router-id order decides."""
        from repro import Verifier
        from repro.core import properties as P
        from repro.gen import build_cloud_network

        network = build_cloud_network(31).network
        result = Verifier(network).verify(P.Reachability(
            sources="all", dest_prefix_text="172.16.31.2/32"))
        assert result.holds is False
        replay(network, result.counterexample)

    def test_blackhole_counterexample_replays(self):
        from repro import Verifier
        from repro.core import properties as P
        from tests.core.test_verifier import ospf_chain

        b, _names = ospf_chain(3)
        b.device("R2").static_route("10.9.0.0/24", drop=True)
        network = b.build()
        result = Verifier(network).verify(P.NoBlackHoles(
            dest_prefix_text="10.9.0.0/24"))
        assert result.holds is False
        cex = result.counterexample
        dataplane = replay(network, cex)
        traces = dataplane.traces("R1", Packet(dst_ip=cex.dst_ip))
        assert any(t.disposition in ("null-routed", "no-route")
                   for t in traces)


class TestRandomAgreementUnderFailure:
    """Random networks with one concrete failed link: the k=1 encoding
    pinned to that failure must match the simulator's rerouted fixpoint."""

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_with_failed_link(self, seed):
        from repro.sim import Environment

        scenario = random_scenario(seed)
        links = scenario.network.internal_links()
        if not links:
            pytest.skip("no internal links")
        edge = links[seed % len(links)]
        env = Environment.of(
            scenario.environment.announcements,
            [(edge.source, edge.target)])
        sim_result = simulate(scenario.network, env)
        if not sim_result.converged:
            pytest.skip("did not converge")
        options = EncoderOptions(max_failures=1)
        for dst in scenario.probe_destinations[:2]:
            agreement_check(scenario.network, env, dst, options=options)
