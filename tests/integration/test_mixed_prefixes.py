"""One encoding per batch: a batch mixing destination prefixes.

A cached batch engine encodes the network once, restricted to no
prefix, and checks each query under the assumption that the packet's
destination lies in the query's prefix.  Every such answer must match
a fresh ``Verifier.verify``, which encodes the network restricted to
the query's prefix (the connected-route slice included), and every
counterexample must be a packet to the query's own prefix.
"""

import pytest

from repro import Verifier, obs
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.gen import build_cloud_network, build_fattree, random_scenario
from repro.net import ip as iplib
from repro.serve import TTLLRUCache


def fattree_case():
    tree = build_fattree(2)
    racks = [tree.tor_subnet(tor) for tor in tree.tors]
    return tree.network, racks + ["10.200.0.0/24"]


def random_case(seed):
    scenario = random_scenario(seed)
    prefixes = sorted(
        {
            f"{iplib.format_ip(iplib.network_of(probe, 24))}/24"
            for probe in scenario.probe_destinations
        }
    )
    return scenario.network, prefixes[:3]


def cloud_case(index):
    cloud = build_cloud_network(index)
    return cloud.network, cloud.management_prefixes[:3]


# pods-2 (one dark prefix), random scenarios (seed 128 has a multihop
# iBGP session, seed 1 an external announcement) and a cloud network.
CASES = {
    "pods-2": fattree_case,
    "random-128": lambda: random_case(128),
    "random-1": lambda: random_case(1),
    "cloud-40": lambda: cloud_case(40),
}


def mixed_batch(prefixes):
    queries = []
    for prefix in prefixes:
        for k in (0, 1):
            queries += [
                BatchQuery(
                    P.Reachability(sources="all", dest_prefix_text=prefix),
                    max_failures=k,
                    label=f"reach {prefix} k={k}",
                ),
                BatchQuery(
                    P.NoForwardingLoops(dest_prefix_text=prefix),
                    max_failures=k,
                    label=f"loops {prefix} k={k}",
                ),
                BatchQuery(
                    P.NoBlackHoles(dest_prefix_text=prefix),
                    max_failures=k,
                    label=f"holes {prefix} k={k}",
                ),
            ]
    return queries


def assert_matches_fresh(network, queries, results):
    for query, batched in zip(queries, results):
        fresh = Verifier(network, preflight=False).verify(
            query.prop, max_failures=query.max_failures
        )
        assert batched.holds == fresh.holds, query.label
        if batched.holds is False and batched.method == "sat":
            net, length = query.prop.dst_prefix()
            dst_ip = batched.counterexample.dst_ip
            assert iplib.prefix_contains(net, length, dst_ip), query.label


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_cached_encoding_answers_every_prefix(case):
    network, prefixes = CASES[case]()
    assert len(set(prefixes)) >= 3
    queries = mixed_batch(prefixes)
    cache = TTLLRUCache()
    engine = BatchEngine(network, encoding_cache=cache)
    tracer = obs.Tracer()
    with obs.use(tracer):
        results = engine.run(queries)
    assert engine.last_encoding_stats == {"hits": 0, "misses": 1}
    [encoding] = [cache.get(key) for key in cache.keys()]
    assert encoding.dst_prefix is None
    assert encoding.options.max_failures == 1
    assert tracer.metrics.snapshot()["batch.groups"]["value"] == 1
    solved = [r for r in results if r.method == "sat"]
    assert len({r.property_name.split()[1] for r in solved}) >= 2
    assert any(r.holds is False for r in solved)
    assert_matches_fresh(network, queries, results)


def test_pool_groups_give_the_same_answers():
    network, prefixes = random_case(1)
    queries = mixed_batch(prefixes)
    tracer = obs.Tracer()
    with obs.use(tracer):
        results = BatchEngine(network, workers=2).run(queries)
    snap = tracer.metrics.snapshot()
    assert snap["batch.groups"]["value"] == 2
    assert tracer.metrics.counter("engine.pool_fallback").value == 0
    lanes = {s.get("lane") for s in tracer.spans if s["name"] == "batch.group"}
    assert len(lanes) == 2
    serial = BatchEngine(network).run(queries)
    assert [r.holds for r in results] == [r.holds for r in serial]
    assert_matches_fresh(network, queries, results)


def test_restricted_encoding_refuses_another_prefix():
    from repro.core.encoder import EncoderOptions
    from repro.core.engine import GroupEncoding

    network, prefixes = random_case(1)
    group = GroupEncoding(
        network, EncoderOptions(), dst_prefix=iplib.parse_prefix(prefixes[0])
    )
    other = P.Reachability(sources="all", dest_prefix_text=prefixes[1])
    with pytest.raises(ValueError, match="restricted to"):
        group.solve_one(BatchQuery(other))
