"""The §6.1 loop pivot rule against exhaustive encodings and the simulator.

``NoForwardingLoops`` pivots only the routers that
:func:`repro.analysis.dataflow.loop_candidates` calls risky, and none at
all when no router is.  These tests check that claim from both sides:

* networks with no risky router stay loop-free under the all-router
  encoding (every router a pivot) at k=0 and k=1, and in the
  simulator's data plane;
* networks with a planted loop are still caught under the default
  candidates, and the counterexample replays as a loop in ``repro.sim``.
"""

import pytest

from repro import NetworkBuilder, Verifier
from repro.analysis.dataflow import loop_candidates
from repro.core import properties as P
from repro.core.concrete import counterexample_environment
from repro.gen import build_fattree, random_scenario
from repro.net import ip as iplib
from repro.sim import LOOP, DataPlane, Environment, Packet, simulate

#: ``random_scenario`` seeds below 60 without a risky router.  Its BGP is
#: single-AS (iBGP), so these are the OSPF-only networks without statics.
NO_RISK_SEEDS = (0, 6, 28, 32, 50, 55)


def ebgp_link(b, x, y):
    """Link ``x`` and ``y`` and peer them over eBGP."""
    if_x, if_y = b.link(x, y)
    asn_x = b.device(x).config.bgp.asn
    asn_y = b.device(y).config.bgp.asn
    b.device(x).bgp_neighbor(iplib.format_ip(if_y.address), remote_as=asn_y)
    b.device(y).bgp_neighbor(iplib.format_ip(if_x.address), remote_as=asn_x)


def ebgp_triangle():
    """Three single-router ASes in a triangle, multipath on; A
    originates a /24 and C has an external peer."""
    b = NetworkBuilder()
    names = ("A", "B", "C")
    for i, name in enumerate(names):
        b.device(name).enable_bgp(65001 + i, multipath=True)
    for x, y in (("A", "B"), ("B", "C"), ("A", "C")):
        ebgp_link(b, x, y)
    b.device("A").interface("rack", "10.9.0.1/24")
    b.device("A").bgp_network("10.9.0.0/24")
    b.external_peer("C", asn=65100, name="up")
    return b.build()


def no_risk_networks():
    """(network, destination prefix or None) cases without a risky
    router: the OSPF-only random seeds plus one-AS-per-router eBGP."""
    cases = [
        pytest.param(random_scenario(seed).network, None, id=f"random-{seed}")
        for seed in NO_RISK_SEEDS
    ]
    tree = build_fattree(2)
    rack = tree.tor_subnet(tree.tors[0])
    cases.append(pytest.param(tree.network, rack, id="fattree-2"))
    cases.append(pytest.param(ebgp_triangle(), None, id="ebgp-triangle"))
    return cases


NO_RISK = no_risk_networks()


def sim_loops(network, environment, destinations):
    """(router, dst) pairs whose simulated forwarding loops."""
    dataplane = DataPlane(simulate(network, environment))
    return [
        (router, iplib.format_ip(dst))
        for dst in destinations
        for router in network.router_names()
        if any(
            trace.disposition == LOOP
            for trace in dataplane.traces(router, Packet(dst_ip=dst))
        )
    ]


def replays_as_loop(network, result):
    cex = result.counterexample
    assert cex is not None
    return bool(
        sim_loops(network, counterexample_environment(cex), [cex.dst_ip])
    )


@pytest.mark.parametrize("seed", NO_RISK_SEEDS)
def test_ospf_only_random_networks_have_no_candidates(seed):
    assert loop_candidates(random_scenario(seed).network) == ()


@pytest.mark.parametrize("network,prefix", NO_RISK)
def test_no_risky_router_means_no_loop(network, prefix):
    # The pivot-free default must agree with pivoting every router.
    assert loop_candidates(network) == ()
    verifier = Verifier(network, preflight=False)
    every = P.NoForwardingLoops(
        candidates=network.router_names(), dest_prefix_text=prefix
    )
    for k in (0, 1):
        result = verifier.verify(every, max_failures=k)
        assert result.holds is True, f"k={k}: {result.message}"
    default = verifier.verify(P.NoForwardingLoops(dest_prefix_text=prefix))
    assert default.holds is True and default.conflicts == 0


@pytest.mark.parametrize("seed", NO_RISK_SEEDS)
def test_no_risky_random_network_never_loops_in_the_simulator(seed):
    scenario = random_scenario(seed)
    assert not sim_loops(
        scenario.network, scenario.environment, scenario.probe_destinations
    )


def test_planted_static_loop_is_caught_and_replays():
    b = NetworkBuilder()
    b.link("A", "B", subnet="10.0.0.0/30")
    b.device("A").static_route("172.16.0.0/16", next_hop="10.0.0.2")
    b.device("B").static_route("172.16.0.0/16", next_hop="10.0.0.1")
    network = b.build()
    assert loop_candidates(network) == ("A", "B")
    result = Verifier(network, preflight=False).verify(
        P.NoForwardingLoops(dest_prefix_text="172.16.0.0/16")
    )
    assert result.holds is False
    assert replays_as_loop(network, result)


def test_network_origin_beside_ospf_is_a_pivot():
    # N originates X's OSPF subnet into eBGP.  M prefers the eBGP route
    # (AD 20) back to N, while N forwards by OSPF (AD 110) to M: a loop
    # with no static route, redistribution or preference rewrite.
    b = NetworkBuilder()
    for name in ("N", "M", "X"):
        b.device(name).enable_ospf()
        b.device(name).ospf_network("10.0.0.0/8")
    b.device("N").enable_bgp(65001)
    b.device("M").enable_bgp(65002)
    ebgp_link(b, "N", "M")
    b.link("M", "X")
    b.device("X").interface("host", "10.5.0.1/24")
    b.device("N").bgp_network("10.5.0.0/24")
    network = b.build()
    assert loop_candidates(network) == ("N",)
    assert sim_loops(
        network, Environment.empty(), [iplib.parse_ip("10.5.0.9")]
    )
    result = Verifier(network, preflight=False).verify(
        P.NoForwardingLoops(dest_prefix_text="10.5.0.0/24")
    )
    assert result.holds is False
    assert replays_as_loop(network, result)
