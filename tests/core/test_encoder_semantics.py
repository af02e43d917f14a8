"""Regression tests for subtle encoder semantics.

Each test here pins a bug class discovered during development:
ghost routes from redistribution feedback, origin suppression of learned
routes, environment sanity, and the guarded-equality discipline.
"""

import pytest

from repro import NetworkBuilder, Verifier
from repro.core import properties as P
from repro.core.encoder import EncoderOptions, NetworkEncoder
from repro.net import ip as iplib
from repro.smt import SAT, Solver, UNSAT


class TestGhostRoutes:
    """Mutual redistribution must not self-justify phantom routes."""

    def build_mutual_redistribution(self):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_ospf()
        r1.enable_bgp(65001)
        r1.redistribute("ospf", "bgp", metric=20)
        r1.redistribute("bgp", "ospf")
        r2 = b.device("R2")
        r2.enable_ospf()
        b.link("R1", "R2")
        for name in ("R1", "R2"):
            b.device(name).ospf_network("10.0.0.0/8")
        b.device("R1").interface("lan", "192.168.1.1/24")
        b.device("R1").ospf_network("192.168.1.0/24")
        b.external_peer("R1", asn=65100, name="UP")
        return b.build()

    def test_no_ghost_route_cycle_at_single_router(self):
        # Before the fix, a BGP<->OSPF redistribution ring at R1 could
        # justify a phantom /32 covering any destination — with NO
        # external announcement at all — shadowing the genuine connected
        # route and creating an R1<->R2 ping-pong.  (With announcements
        # allowed the unfiltered peer can genuinely hijack a /32, which is
        # correct behaviour; the ghost bug manifested under silence.)
        net = self.build_mutual_redistribution()
        result = Verifier(net).verify(
            P.Reachability(sources="all",
                           dest_prefix_text="192.168.1.0/24"),
            assumptions=[P.silent("UP")])
        assert result.holds is True

    def test_no_phantom_loops(self):
        net = self.build_mutual_redistribution()
        result = Verifier(net).verify(
            P.NoForwardingLoops(dest_prefix_text="192.168.1.0/24"),
            assumptions=[P.silent("UP")])
        assert result.holds is True

    def test_unfiltered_peer_hijack_is_still_found(self):
        # The genuine violation: an adversarial /32 announcement through
        # the unfiltered session diverts the LAN space.
        net = self.build_mutual_redistribution()
        result = Verifier(net).verify(P.Reachability(
            sources="all", dest_prefix_text="192.168.1.0/24"))
        assert result.holds is False
        assert any(a.peer == "UP"
                   for a in result.counterexample.announcements)


class TestOriginSuppression:
    """A locally-sourced route wins selection but forwards via its
    source protocol — learned routes it beats are suppressed."""

    def build(self, redistribute_back: bool):
        b = NetworkBuilder()
        r1 = b.device("R1")
        r1.enable_ospf()
        r1.enable_bgp(65001)
        r2 = b.device("R2")
        r2.enable_ospf()
        b.link("R1", "R2")
        for name in ("R1", "R2"):
            b.device(name).ospf_network("10.0.0.0/8")
            b.device(name).ospf_network("172.16.0.0/12")
        r2.interface("mgmt", "172.16.0.9/32", management=True)
        r1.redistribute("ospf", "bgp", metric=20)
        if redistribute_back:
            r1.redistribute("bgp", "ospf")
        b.external_peer("R1", asn=65100, name="EXT")
        return b.build()

    def test_redistributed_internal_space_blocks_hijack(self):
        # With OSPF redistributed into BGP, R1's locally-sourced BGP route
        # for the /32 out-prefers any external announcement (weight on
        # real routers), so the management interface is NOT hijackable.
        net = self.build(redistribute_back=True)
        result = Verifier(net).verify(P.Reachability(
            sources="all", dest_prefix_text="172.16.0.9/32"))
        assert result.holds is True

    def test_without_redistribution_hijack_exists(self):
        net = self.build(redistribute_back=False)
        result = Verifier(net).verify(P.Reachability(
            sources="all", dest_prefix_text="172.16.0.9/32"))
        assert result.holds is False
        cex = result.counterexample
        assert any(a.peer == "EXT" for a in cex.announcements)


class TestOspfMetricOverflow:
    """An OSPF path costing more than 16 bits hold is unusable, not a
    wrapped-around cheap route."""

    RACK = "10.9.0.0/24"

    def build(self, r1_cost):
        """R1 -(r1_cost)- R2 -(1)- R3, with R3 owning the rack."""
        b = NetworkBuilder()
        for name in ("R1", "R2", "R3"):
            b.device(name).enable_ospf()
            b.device(name).ospf_network("10.0.0.0/8")
        r1_iface, _ = b.link("R1", "R2")
        r1_iface.ospf_cost = r1_cost
        b.link("R2", "R3")
        b.device("R3").interface("host", "10.9.0.1/24")
        return b.build()

    def test_overflowing_path_matches_the_simulator(self):
        # Before the guard, 65535 + 1 wrapped to 0: an R1<->R2 cycle
        # could self-justify a ghost route that even R3 followed.
        from repro.sim import DataPlane, Environment, Packet, simulate

        net = self.build(65535)
        dataplane = DataPlane(simulate(net, Environment.empty()))
        packet = Packet(dst_ip=iplib.parse_ip("10.9.0.5"))
        verdicts = {
            router: Verifier(net).verify(P.Reachability(
                sources=[router], dest_prefix_text=self.RACK)).holds
            for router in net.router_names()
        }
        assert verdicts == {"R1": False, "R2": True, "R3": True}
        assert verdicts == {router: dataplane.reachable(router, packet)
                            for router in net.router_names()}

    def test_path_just_below_overflow_holds(self):
        result = Verifier(self.build(65534)).verify(
            P.Reachability(sources="all", dest_prefix_text=self.RACK))
        assert result.holds is True

    def test_no_guard_when_sums_cannot_wrap(self):
        assert NetworkEncoder(self.build(65534))._guard_ospf_metric
        assert not NetworkEncoder(self.build(100))._guard_ospf_metric


class TestEnvironmentSanity:
    def test_announcements_have_nonzero_path_length(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.external_peer("R1", asn=65100, name="N1")
        net = b.build()
        enc = NetworkEncoder(net, EncoderOptions()).encode()
        solver = Solver()
        solver.add(*enc.constraints)
        env = enc.env["N1"]
        from repro.smt import bv_val, eq
        solver.add(env.valid)
        assert solver.check() is SAT
        assert solver.check(
            [eq(env.metric, bv_val(0, env.metric.width))]) is UNSAT

    def test_prefix_length_bounded_to_32(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.external_peer("R1", asn=65100, name="N1")
        net = b.build()
        enc = NetworkEncoder(net, EncoderOptions()).encode()
        solver = Solver()
        solver.add(*enc.constraints)
        env = enc.env["N1"]
        from repro.smt import bv_val, ugt
        solver.add(env.valid)
        assert solver.check(
            [ugt(env.prefix_len, bv_val(32, env.prefix_len.width))]) \
            is UNSAT


class TestStableStateExistence:
    """The network constraints alone must always be satisfiable (a stable
    state exists), for a spread of configurations and options."""

    @pytest.mark.parametrize("options", [
        EncoderOptions(),
        EncoderOptions(hoist_prefixes=False),
        EncoderOptions(merge_edge_records=False),
        EncoderOptions(max_failures=1),
    ], ids=["default", "nohoist", "nomerge", "k1"])
    def test_every_network_has_a_stable_state(self, options):
        from repro.gen import random_scenario

        for seed in (1, 5, 9):
            scenario = random_scenario(seed)
            enc = NetworkEncoder(scenario.network, options).encode()
            solver = Solver()
            solver.add(*enc.constraints)
            assert solver.check() is SAT, f"seed {seed}"

    def test_destination_sliced_encoding_satisfiable(self):
        from repro.gen import build_fattree

        tree = build_fattree(2)
        enc = NetworkEncoder(tree.network, EncoderOptions()).encode(
            dst_prefix=iplib.parse_prefix("10.0.0.0/24"))
        solver = Solver()
        solver.add(*enc.constraints)
        assert solver.check() is SAT


class TestEncodingSizes:
    """Slicing/hoisting must strictly shrink the CNF (§6)."""

    def sizes(self, options) -> tuple:
        from repro.gen import build_fattree

        tree = build_fattree(2)
        enc = NetworkEncoder(tree.network, options).encode()
        solver = Solver()
        solver.add(*enc.constraints)
        return solver.num_variables, solver.num_clauses

    def test_hoisting_removes_prefix_variables(self):
        small = self.sizes(EncoderOptions())
        big = self.sizes(EncoderOptions(hoist_prefixes=False))
        assert big[0] > small[0] * 1.5
        assert big[1] > small[1]

    def test_merging_removes_edge_records(self):
        small = self.sizes(EncoderOptions())
        big = self.sizes(EncoderOptions(merge_edge_records=False))
        assert big[0] > small[0]

    def test_failure_vars_only_when_requested(self):
        from repro.gen import build_fattree

        tree = build_fattree(2)
        enc0 = NetworkEncoder(tree.network, EncoderOptions()).encode()
        enc1 = NetworkEncoder(tree.network,
                              EncoderOptions(max_failures=1)).encode()
        assert not enc0.failed and not enc0.failed_ext
        assert enc1.failed
        assert enc1.failed_ext

    def test_fail_external_flag(self):
        from repro.gen import build_fattree

        tree = build_fattree(2)
        enc = NetworkEncoder(
            tree.network,
            EncoderOptions(max_failures=1, fail_external=False)).encode()
        assert enc.failed and not enc.failed_ext


class TestRouterIdWidth:
    def test_router_id_width_fits_every_sender(self):
        """320 routers and 64 peers: 384 ranks need 9 bits, and each
        must stay a distinct constant."""
        from repro.gen import build_fattree

        encoder = NetworkEncoder(build_fattree(16).network)
        width = encoder.widths.router_id
        ranks = [*encoder.router_index.values(),
                 *encoder.peer_index.values()]
        assert len(ranks) == 384 and width == 9
        assert len(set(ranks)) == len(ranks)
        assert max(ranks) < 2 ** width


class TestPrefixLeakScoping:
    def test_router_filter_limits_check(self):
        from repro.core import properties as P

        b = NetworkBuilder()
        leaky = b.device("LEAKY")
        leaky.enable_bgp(65001)
        leaky.interface("host", "10.9.0.1/28")
        leaky.bgp_network("10.9.0.0/28")
        b.external_peer("LEAKY", asn=65100, name="N1")
        clean = b.device("CLEAN")
        clean.enable_bgp(65002)
        b.external_peer("CLEAN", asn=65200, name="N2")
        net = b.build()
        verifier = Verifier(net)
        quiet = [P.silent("N1"), P.silent("N2")]
        both = verifier.verify(
            P.NoPrefixLeak(max_length=24,
                           dest_prefix_text="10.9.0.0/24"),
            assumptions=quiet)
        assert both.holds is False
        assert "LEAKY" in both.message
        only_clean = verifier.verify(
            P.NoPrefixLeak(max_length=24, routers=["CLEAN"],
                           dest_prefix_text="10.9.0.0/24"),
            assumptions=quiet)
        assert only_clean.holds is True
