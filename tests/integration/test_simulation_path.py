"""Queries decided without an encoding agree with the SAT encoding.

``Verifier.verify`` answers a query from the simulated stable state
whenever :func:`repro.analysis.stable.fixed_verdict` says the network
fixes its verdict.  Every such answer is compared here with
``GroupEncoding.solve_one`` called directly, the SAT path, on the
random scenarios of the encoder/simulator agreement suite and on the
pods-2 fat-tree with its backbone.  One disagreement means the rule is
wrong, not the test.
"""

from concurrent.futures import Future

import pytest

from repro import Verifier, obs
from repro.analysis.stable import fixed_verdict
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.core import engine as engine_mod
from repro.core.encoder import EncoderOptions
from repro.core.engine import GroupEncoding
from repro.gen import build_fattree, random_scenario
from repro.net import NetworkBuilder
from repro.net import ip as iplib
from repro.net.policy import PrefixList, PrefixListEntry, RouteMapClause
from repro.serve import TTLLRUCache

#: The seeds of ``test_agreement.TestRandomAgreement``.
AGREEMENT_SEEDS = range(24)
#: A /24 no router announces.
UNROUTED = "192.0.2.0/24"


def forwarding_queries(network, prefix):
    """Reach from all and from each router, loops and black holes."""
    props = [P.Reachability(sources="all", dest_prefix_text=prefix)]
    props += [
        P.Reachability(sources=[router], dest_prefix_text=prefix)
        for router in network.router_names()
    ]
    props += [
        P.NoForwardingLoops(dest_prefix_text=prefix),
        P.NoBlackHoles(dest_prefix_text=prefix),
    ]
    return props


def check_agreement(network, prefix):
    """Compare every decided k=0 query on ``prefix`` with the SAT
    path; returns how many were decided."""
    decided = [
        prop
        for prop in forwarding_queries(network, prefix)
        if fixed_verdict(network, prop, 0) is not None
    ]
    if not decided:
        return 0
    group = GroupEncoding(
        network,
        EncoderOptions(max_failures=0),
        dst_prefix=iplib.parse_prefix(prefix),
    )
    verifier = Verifier(network, preflight=False)
    for prop in decided:
        fast = verifier.verify(prop, max_failures=0)
        sat = group.solve_one(BatchQuery(prop, max_failures=0))
        what = f"{type(prop).__name__} {prefix} {fast.message}"
        assert fast.method == "simulation", what
        assert sat.method == "sat", what
        assert fast.holds == sat.holds, what
        counts = (fast.num_variables, fast.num_clauses, fast.conflicts)
        assert counts == (0, 0, 0), what
        for result in (fast, sat):
            violated = result.holds is False
            assert violated == (result.counterexample is not None), what
    return len(decided)


def scenario_prefixes(scenario):
    prefixes = {
        f"{iplib.format_ip(iplib.network_of(probe, 24))}/24"
        for probe in scenario.probe_destinations
    }
    return sorted(prefixes) + [UNROUTED]


def test_random_scenarios_agree_with_sat():
    accepted = []
    for seed in AGREEMENT_SEEDS:
        scenario = random_scenario(seed)
        for prefix in scenario_prefixes(scenario):
            if check_agreement(scenario.network, prefix):
                accepted.append((seed, prefix))
    assert any(prefix != UNROUTED for _, prefix in accepted), accepted


def test_fattree_racks_agree_with_sat():
    tree = build_fattree(2)
    for tor in tree.tors:
        prefix = tree.tor_subnet(tor)
        decided = check_agreement(tree.network, prefix)
        assert decided == len(forwarding_queries(tree.network, prefix))


def ospf_diamond(router_ids=()):
    """S-{Z,B}-D, single-path OSPF, D holding the rack.  S's two routes
    tie on cost; Z, linked first, has the lower router id (its highest
    address) unless ``router_ids`` configures ids."""
    b = NetworkBuilder()
    for name in ("S", "Z", "B", "D"):
        b.device(name).ospf_network("10.0.0.0/8")
    for a, c in (("S", "Z"), ("S", "B"), ("Z", "D"), ("B", "D")):
        b.link(a, c)
    b.device("D").interface("rack", "10.9.0.1/24")
    for name, rid in router_ids:
        b.device(name).enable_ospf().router_id = iplib.parse_ip(rid)
    return b.build()


def test_single_path_tie_is_decided():
    """The simulator and the encoding break S's tie alike, so the rule
    decides every k=0 query on the rack, with the SAT path's verdicts."""
    network = ospf_diamond()
    decided = check_agreement(network, RACK)
    assert decided == len(forwarding_queries(network, RACK))
    result = Verifier(network).verify(rack_reach())
    assert result.holds is True and result.method == "simulation"


@pytest.mark.parametrize(
    "router_ids, hop",
    [((), "Z"), ((("Z", "10.255.0.1"), ("B", "10.255.0.1")), "B")],
)
def test_single_path_tie_breaks_on_router_id_then_name(router_ids, hop):
    """S takes the neighbour with the lower router id, and the one
    named first when both have the same id, in the simulator and in
    the encoding's stable state."""
    from repro.sim import DataPlane, Environment, Packet, simulate
    from tests.integration.test_agreement import agreement_check

    network = ospf_diamond(router_ids)
    packet = Packet.to("10.9.0.5")
    assert DataPlane(simulate(network)).step("S", packet) == (False, (hop,))
    model, enc, _ = agreement_check(
        network, Environment.empty(), packet.dst_ip
    )
    assert model.eval(enc.data_fwd("S", hop))


# ---------------------------------------------------------------------------
# What the rule must leave to the encoding
# ---------------------------------------------------------------------------


def ebgp_chain(backbone=True):
    """R1-R2-R3, one AS each; R3 announces its rack 10.9.0.0/24, and an
    external peer at R1 (``backbone``) is filtered out of 10.0.0.0/8."""
    b = NetworkBuilder()
    for index, name in enumerate(("R1", "R2", "R3")):
        b.device(name).enable_bgp(65001 + index, multipath=True)
    for a, c in (("R1", "R2"), ("R2", "R3")):
        if_a, if_c = b.link(a, c)
        b.device(a).bgp_neighbor(
            iplib.format_ip(if_c.address),
            remote_as=b.device(c).config.bgp.asn,
        )
        b.device(c).bgp_neighbor(
            iplib.format_ip(if_a.address),
            remote_as=b.device(a).config.bgp.asn,
        )
    b.device("R3").interface("rack", "10.9.0.1/24")
    b.device("R3").bgp_network("10.9.0.0/24")
    if not backbone:
        return b
    r1 = b.device("R1")
    internal = PrefixListEntry("deny", iplib.parse_ip("10.0.0.0"), 8, le=32)
    anything = PrefixListEntry("permit", 0, 0, le=32)
    r1.prefix_list("BLOCK_INTERNAL", [internal, anything])
    clause = RouteMapClause(
        seq=10, action="permit", match_prefix_list="BLOCK_INTERNAL"
    )
    r1.route_map("BACKBONE_IN", [clause])
    b.external_peer("R1", asn=65000, name="bb", route_map_in="BACKBONE_IN")
    return b


RACK = "10.9.0.0/24"


def rack_reach(sources="all"):
    return P.Reachability(sources=sources, dest_prefix_text=RACK)


def test_filtered_chain_agrees_with_sat():
    """R2 keeps the rack from R1: reach from all is violated at R1 only,
    a verdict the simulated state fixes and the SAT path confirms."""
    b = ebgp_chain(backbone=False)
    r2 = b.device("R2")
    rack = PrefixListEntry("permit", iplib.parse_ip("10.9.0.0"), 24)
    r2.prefix_list("RACK", [rack])
    deny = RouteMapClause(seq=10, action="deny", match_prefix_list="RACK")
    r2.route_map("NO_RACK", [deny, RouteMapClause(seq=20, action="permit")])
    r2.config.bgp.neighbors[0].route_map_out = "NO_RACK"
    network = b.build()
    decided = check_agreement(network, RACK)
    assert decided == len(forwarding_queries(network, RACK))
    result = Verifier(network).verify(rack_reach())
    assert result.holds is False
    assert result.message.startswith("unreachable from R1 ")


def test_ebgp_chain_is_decided():
    decision = fixed_verdict(ebgp_chain().build(), rack_reach(), 0)
    assert decision is not None and decision.holds is True


def test_rejects_a_static_route():
    b = ebgp_chain()
    b.device("R2").static_route("192.0.2.0/24", drop=True)
    assert fixed_verdict(b.build(), rack_reach(), 0) is None


def test_rejects_an_ibgp_session():
    b = ebgp_chain()
    b.device("R4").enable_bgp(65002)
    b.link("R2", "R4")
    b.ibgp_session("R2", "R4")
    assert fixed_verdict(b.build(), rack_reach(), 0) is None


def test_rejects_set_local_preference():
    b = ebgp_chain()
    prefer = RouteMapClause(seq=10, action="permit", set_local_pref=200)
    b.device("R2").route_map("PREFER", [prefer])
    b.device("R2").config.bgp.neighbors[0].route_map_in = "PREFER"
    assert fixed_verdict(b.build(), rack_reach(), 0) is None


def test_rejects_backbone_import_without_the_internal_deny():
    tree = build_fattree(2)
    anything = PrefixListEntry("permit", 0, 0, le=32)
    permissive = PrefixList("BLOCK_INTERNAL", (anything,))
    for core in tree.cores:
        tree.network.device(core).prefix_lists[permissive.name] = permissive
    prop = P.Reachability(dest_prefix_text=tree.tor_subnet(tree.tors[0]))
    assert fixed_verdict(tree.network, prop, 0) is None


def test_rejects_reach_at_k1():
    assert fixed_verdict(ebgp_chain().build(), rack_reach(), 1) is None


def test_rejects_a_query_with_assumptions():
    network = ebgp_chain().build()
    assumptions = (P.silent("bb"),)
    assert fixed_verdict(network, rack_reach(), 0, assumptions) is None


def test_rejects_loops_with_explicit_candidates():
    network = ebgp_chain().build()
    prop = P.NoForwardingLoops(candidates=["R2"], dest_prefix_text=RACK)
    assert fixed_verdict(network, prop, 0) is None
    default = P.NoForwardingLoops(dest_prefix_text=RACK)
    assert fixed_verdict(network, default, 3).holds is True


def test_rejects_reach_to_the_dark_prefix():
    """No router holds a route to it, so an external covering route,
    which the backbone filter lets through, decides where it goes."""
    tree = build_fattree(2)
    prop = P.Reachability(dest_prefix_text="10.200.0.0/24")
    assert fixed_verdict(tree.network, prop, 0) is None


# ---------------------------------------------------------------------------
# Decided queries build and ship nothing
# ---------------------------------------------------------------------------


def rack_batch(tree):
    queries = []
    for tor in tree.tors:
        prefix = tree.tor_subnet(tor)
        queries += [
            BatchQuery(P.Reachability(dest_prefix_text=prefix)),
            BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix)),
            BatchQuery(P.NoBlackHoles(dest_prefix_text=prefix)),
        ]
    return queries


def test_decided_batch_builds_no_encoding(monkeypatch):
    def no_encoding(*args, **kwargs):
        raise AssertionError("a decided group built an encoding")

    monkeypatch.setattr(GroupEncoding, "__init__", no_encoding)
    tree = build_fattree(2)
    engine = BatchEngine(tree.network, encoding_cache=TTLLRUCache())
    tracer = obs.Tracer()
    with obs.use(tracer):
        results = engine.run(rack_batch(tree))
    assert [r.holds for r in results] == [True] * len(results)
    assert {r.method for r in results} == {"simulation"}
    assert engine.last_encoding_stats == {"hits": 0, "misses": 0}
    snap = tracer.metrics.snapshot()
    assert "engine.encoding_cache_miss" not in snap
    assert snap["engine.simulation_decided"]["value"] == len(results)
    names = [s["name"] for s in tracer.spans]
    assert names.count("sim.decide") == len(results)
    assert names.count("batch.group") == 0


class RecordingPool:
    """A process pool stand-in that runs each group in-process and
    records which groups it was handed."""

    shipped = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, network, options, budget, dst, members, **kw):
        RecordingPool.shipped.append(dst)
        future = Future()
        future.set_result(fn(network, options, budget, dst, members, **kw))
        return future


def test_workers_ship_no_decided_group(monkeypatch):
    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.shipped = []
    tree = build_fattree(2)
    dark = ["10.200.0.0/24", "10.201.0.0/24"]
    source = [tree.tors[0]]
    dark_reach = [
        BatchQuery(P.Reachability(sources=source, dest_prefix_text=p))
        for p in dark
    ]
    queries = rack_batch(tree) + dark_reach
    results = BatchEngine(tree.network, workers=2).run(queries)
    expected = [iplib.parse_prefix(p) for p in dark]
    assert sorted(RecordingPool.shipped) == expected
    assert [r.method for r in results[-2:]] == ["sat", "sat"]
    assert [r.holds for r in results[-2:]] == [False, False]


def test_a_dropped_network_is_freed_without_the_collector():
    """The stable state and the dataflow summary a network keeps hold
    no strong pointer back to it, so dropping the last reference frees
    it at once (the fattree-k4 rack operation, with gc off)."""
    import gc
    import weakref

    from repro.lang import write_config
    from repro.net import network_from_texts

    tree = build_fattree(4)
    texts = {
        f"{name}.cfg": write_config(tree.network.device(name))
        for name in tree.network.router_names()
    }
    prefix = tree.tor_subnet(tree.tors[0])
    batch = [
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=prefix)),
        BatchQuery(P.NoForwardingLoops(dest_prefix_text=prefix)),
    ]
    gc.collect()
    gc.disable()
    try:
        network = network_from_texts(texts)
        alive = weakref.ref(network)
        results = Verifier(network).verify_batch(batch)
        assert [r.method for r in results] == ["simulation"] * 2
        del network, results
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [0, 2])
def test_loop_query_without_pivot_needs_no_network(k):
    """No risky router means no pivot: the property is ``TRUE`` at any
    bound and for any prefix, the dark one included."""
    tree = build_fattree(2)
    result = Verifier(tree.network).verify(
        P.NoForwardingLoops(dest_prefix_text="10.200.0.0/24"),
        max_failures=k,
    )
    assert result.holds is True and result.method == "simulation"
    assert result.num_variables == 0
