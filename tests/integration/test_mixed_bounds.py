"""One encoding per batch: a batch mixing failure bounds.

The batch engine encodes the network once, at the largest bound K among
its queries, and checks a query with k < K under "at most k links
fail".  Every such answer must match a fresh ``Verifier.verify`` built
at the query's own k, including on networks whose iBGP sessions are
multihop (the encoder resolves those concretely at k=0 and through an
IGP copy at k >= 1).
"""

import pytest

from repro import Verifier, obs
from repro.core import BatchQuery, properties as P
from repro.gen import random_scenario
from repro.net import AclRule, NetworkBuilder
from repro.net import ip as iplib
from repro.sim import DataPlane, Packet, simulate

# Seed 128 has a multihop iBGP session; the others peer over adjacent
# links.  All three run iBGP with external peers.
SEEDS = (128, 1, 8)
BOUNDS = (1, 0, 2)


def multihop_sessions(network):
    return sum(
        1
        for name in network.devices
        for s in network.sessions(name)
        if s.internal and s.peer_device and s.edge is None)


def test_seed_set_includes_a_multihop_session():
    assert multihop_sessions(random_scenario(128).network) >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_bounds_match_fresh_verify(seed):
    scenario = random_scenario(seed)
    network = scenario.network
    prefixes = sorted({
        f"{iplib.format_ip(iplib.network_of(probe, 24))}/24"
        for probe in scenario.probe_destinations})[:2]
    # With the external peers silent, internal reachability holds at
    # k=0 and breaks once links may fail, so the bounds disagree.
    silent = tuple(P.silent(peer.name) for peer in network.externals)
    queries = []
    for prefix in prefixes:
        for k in BOUNDS:
            queries.append(BatchQuery(
                P.Reachability(sources="all", dest_prefix_text=prefix),
                max_failures=k, assumptions=silent,
                label=f"reach {prefix} k={k}"))
            queries.append(BatchQuery(
                P.NoBlackHoles(dest_prefix_text=prefix),
                max_failures=k, label=f"holes {prefix} k={k}"))

    tracer = obs.Tracer()
    verifier = Verifier(network, preflight=False)
    with obs.use(tracer):
        results = verifier.verify_batch(queries)
    snap = tracer.metrics.snapshot()
    assert snap["batch.groups"]["value"] == 1
    bounds = [s["attrs"]["max_failures"] for s in tracer.spans
              if s["name"] == "batch.group"]
    assert bounds == [max(BOUNDS)]

    for query, batched in zip(queries, results):
        fresh = Verifier(network, preflight=False).verify(
            query.prop, max_failures=query.max_failures,
            assumptions=query.assumptions)
        assert batched.holds == fresh.holds, query.label
        if batched.holds is False and query.max_failures == 0:
            assert batched.counterexample.failed_links == [], query.label
    # The bound changes some verdict, so a dropped assumption would show.
    verdicts = {}
    for query, batched in zip(queries, results):
        verdicts.setdefault(query.label.split(" k=")[0], set()).add(
            batched.holds)
    assert any(len(seen) == 2 for seen in verdicts.values())


def ibgp_behind_acl():
    """R1-R2-R3 running OSPF; R1 and R3 peer iBGP on their loopbacks.
    R3 announces 192.168.9.0/24 into BGP only, so R1 routes to it only
    while the session is up.  R2 denies packets from R1 addressed to
    R3's loopback: the ACL filters data traffic, while the session
    (control plane) still comes up, as in the simulator."""
    b = NetworkBuilder()
    for name, loopback in (("R1", "10.0.0.1/32"), ("R2", "10.0.0.2/32"),
                           ("R3", "10.0.0.3/32")):
        dev = b.device(name)
        dev.interface("lo0", loopback)
        dev.ospf_network("10.0.0.0/8")
    b.link("R1", "R2", acl_in_b="NO_LO3")
    _, r3_side = b.link("R2", "R3")
    b.device("R2").acl("NO_LO3", [
        AclRule("deny", dst_network=iplib.parse_ip("10.0.0.3"),
                dst_length=32),
        AclRule("permit")])
    b.device("R2").static_route("192.168.9.0/24",
                                next_hop=iplib.format_ip(r3_side.address))
    r1, r3 = b.device("R1"), b.device("R3")
    r1.enable_bgp(65001)
    r3.enable_bgp(65001)
    r1.bgp_neighbor("10.0.0.3", remote_as=65001)
    r3.bgp_neighbor("10.0.0.1", remote_as=65001)
    r3.interface("host", "192.168.9.1/24")
    r3.bgp_network("192.168.9.0/24")
    return b.build()


def test_acl_on_the_igp_path_does_not_split_the_bounds():
    network = ibgp_behind_acl()
    assert multihop_sessions(network) == 2
    queries = [BatchQuery(P.Reachability(sources=["R1"],
                                         dest_prefix_text="192.168.9.0/24"),
                          max_failures=k, label=f"k={k}")
               for k in (0, 1)]
    batched = Verifier(network, preflight=False).verify_batch(queries)
    fresh = [Verifier(network, preflight=False).verify(
                 q.prop, max_failures=q.max_failures) for q in queries]
    assert [r.holds for r in batched] == [r.holds for r in fresh]
    assert [r.holds for r in fresh] == [True, False]
    # The simulator brings the session up and delivers the packet.
    dataplane = DataPlane(simulate(network))
    assert dataplane.reachable("R1", Packet.to("192.168.9.1"))
