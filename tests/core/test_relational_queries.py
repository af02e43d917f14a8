"""The relational §5 checks as queries: fault invariance (plain and
pairwise) and full equivalence compare two network copies over one
packet and one environment, in the same group pipeline as every
single-network property.

Each batched answer must match the one-shot ``Verifier`` method; the
copies must not share instrumentation or pin each other's packet
fields; and a lazy property, which has no term to compare, is refused.
"""

import pytest

from repro import Verifier, obs
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.core.encoder import EncoderOptions
from repro.core.engine import GroupEncoding
from repro.net import AclRule
from repro.net import ip as iplib
from repro.net.policy import Acl
from repro.serve import TTLLRUCache
from tests.core.test_verifier import diamond, ospf_chain

RACK = "10.9.0.0/24"
LINK = "10.128.0.0/30"


def chain_with_source_acl(source):
    """``ospf_chain(3)`` whose R2 drops packets from ``source``/8 arriving
    from R1: the only ACL in the network, so only it reads ``srcIp``."""
    net = ospf_chain(3)[0].build()
    r2 = net.device("R2")
    r2.acls["SRC"] = Acl(
        "SRC",
        (
            AclRule("deny", src_network=iplib.parse_ip(source), src_length=8),
            AclRule("permit"),
        ),
    )
    r2.interfaces[net.edge_between("R1", "R2").target_iface].acl_in = "SRC"
    return net


@pytest.mark.parametrize("source", ["10.0.0.0", "0.0.0.0"])
def test_full_equivalence_compares_a_field_one_network_never_reads(source):
    # The plain chain holds srcIp as the constant 0; equating it would
    # pin the filtered network's source to 0.0.0.0, outside 10.0.0.0/8.
    filtered = chain_with_source_acl(source)
    plain = ospf_chain(3)[0].build()
    for a, b in ((filtered, plain), (plain, filtered)):
        result = Verifier(a, preflight=False).verify_full_equivalence(b)
        assert result.holds is False


def test_fault_invariance_copies_do_not_share_instrumentation():
    # Losing R2-R3 cuts the chain, so reachability is not fault
    # invariant.  Both copies name their reach bits alike; unless the
    # names carry the copy's namespace, the copies share the bits and
    # the check trivially holds.
    net = ospf_chain(3)[0].build()
    reach = P.Reachability(sources="all", dest_prefix_text=RACK)
    verifier = Verifier(net, preflight=False)
    assert verifier.verify(reach, max_failures=1).holds is False
    result = verifier.verify_fault_invariance(reach, k=1)
    assert result.holds is False
    assert result.property_name == "FaultInvariance[Reachability, k=1]"
    assert "('R2', 'R3')" in result.message


def test_fault_invariance_refuses_a_lazy_property():
    balanced = P.LoadBalanced(
        source_loads={"S": 1},
        monitor=[("L", "R")],
        threshold=0.1,
        dest_prefix_text=RACK,
    )
    verifier = Verifier(diamond().build(), preflight=False)
    # Holds without failures, violated under one: not fault invariant,
    # but a lazy property has no term the two copies could compare.
    assert verifier.verify(balanced, max_failures=0).holds is True
    assert verifier.verify(balanced, max_failures=1).holds is False
    with pytest.raises(ValueError, match="LoadBalanced is lazy"):
        verifier.verify_fault_invariance(balanced, k=1)


def one_shot(verifier, query):
    """The ``Verifier`` method answer for one relational batch query."""
    prop = query.prop
    if isinstance(prop, P.PairwiseFaultInvariance):
        return verifier.verify_pairwise_fault_invariance(
            k=prop.k, dest_prefix=prop.dest_prefix_text
        )
    if isinstance(prop, P.FaultInvariance):
        return verifier.verify_fault_invariance(prop.prop, k=prop.k)
    if isinstance(prop, P.FullEquivalence):
        return verifier.verify_full_equivalence(prop.other)
    return verifier.verify(prop, max_failures=query.max_failures)


def mixed_batch():
    reach = P.Reachability(sources="all", dest_prefix_text=RACK)
    return [
        BatchQuery(P.PairwiseFaultInvariance(dest_prefix_text=RACK)),
        BatchQuery(P.FaultInvariance(reach)),
        BatchQuery(reach, max_failures=1),
        BatchQuery(P.PairwiseFaultInvariance(dest_prefix_text=LINK)),
        BatchQuery(P.FullEquivalence(diamond().build())),
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_relational_queries_in_a_batch(workers):
    verifier = Verifier(diamond().build(), preflight=False)
    queries = mixed_batch()
    results = verifier.verify_batch(queries, workers=workers)
    # Serially both pairwise queries share one encoding, restricted to
    # no prefix; with two workers each prefix has its own, so every
    # query is the first and only one of its group.
    shared = {0, 3} if workers == 1 else set()
    for index, (query, batched) in enumerate(zip(queries, results)):
        fresh = one_shot(verifier, query)
        assert batched.holds == fresh.holds, query
        assert batched.holds is not None
        if index not in shared:
            assert batched.num_variables == fresh.num_variables, query
            assert batched.num_clauses == fresh.num_clauses, query


def test_mixed_bounds_share_one_relational_encoding():
    # One two-copy encoding at bound 1 answers the k=0 query under "at
    # most 0 links fail" on both copies: each copy takes the bound, and
    # a failure in either one alone makes the copies differ.
    verifier = Verifier(ospf_chain(3)[0].build(), preflight=False)
    other = P.FullEquivalence(ospf_chain(3)[0].build())
    queries = [BatchQuery(other, max_failures=k) for k in (0, 1)]
    tracer = obs.Tracer()
    with obs.use(tracer):
        batched = verifier.verify_batch(queries)
    [group] = [s for s in tracer.spans if s["name"] == "batch.group"]
    assert group["attrs"]["queries"] == 2
    assert batched[0].holds is True
    for query, result in zip(queries, batched):
        fresh = verifier.verify(query.prop, max_failures=query.max_failures)
        assert result.holds == fresh.holds


def test_relational_groups_stay_out_of_the_encoding_cache():
    net = diamond().build()
    cache = TTLLRUCache()
    engine = BatchEngine(net, encoding_cache=cache)
    reach = P.Reachability(sources=["S"], dest_prefix_text=RACK)
    results = engine.run(
        [
            BatchQuery(reach, max_failures=1),
            BatchQuery(P.PairwiseFaultInvariance(dest_prefix_text=RACK)),
        ]
    )
    assert [r.holds for r in results] == [True, True]
    assert len(cache) == 1
    assert engine.last_encoding_stats == {"hits": 0, "misses": 1}


def test_a_group_refuses_a_query_on_other_copies():
    group = GroupEncoding(diamond().build(), EncoderOptions(max_failures=1))
    pairwise = P.PairwiseFaultInvariance(dest_prefix_text=RACK)
    with pytest.raises(ValueError, match="other network copies"):
        group.solve_one(BatchQuery(pairwise))
