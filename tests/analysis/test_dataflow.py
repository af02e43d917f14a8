"""Route-propagation dataflow analysis: domain, fixpoint, loop pivots.

The PrefixSet domain and the fixpoint are the soundness foundation of
the dataflow-tightened diff cones (test_deps.py), so the properties
here are deliberately adversarial: the ``ge < length`` prefix-list
corner and widening behavior on unbounded inputs.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.dataflow import (
    ANY,
    EMPTY,
    WIDEN_LIMIT,
    PrefixSet,
    analyze_dataflow,
    loop_candidates,
)
from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.net import ip as iplib, network_from_texts
from repro.net.policy import PrefixListEntry


def pfx(text):
    return iplib.parse_prefix(text)


def entry(text, ge=None, le=None, action="permit"):
    net, length = pfx(text)
    return PrefixListEntry(action=action, network=net, length=length,
                           ge=ge, le=le)


# ----------------------------------------------------------------------
# Abstract domain
# ----------------------------------------------------------------------

def test_singleton_overlaps_sub_and_super_prefixes():
    s = PrefixSet.from_prefix(*pfx("10.9.0.0/16"))
    assert s.overlaps(*pfx("10.9.4.0/24"))     # descendant
    assert s.overlaps(*pfx("10.0.0.0/8"))      # ancestor
    assert s.overlaps(*pfx("10.9.0.0/16"))     # itself
    assert not s.overlaps(*pfx("10.8.0.0/16"))  # sibling


def test_entry_range_respects_ge_le():
    s = PrefixSet.from_entry(entry("10.9.0.0/16", ge=24, le=28))
    # Routes in range overlap their own address space...
    assert s.overlaps(*pfx("10.9.4.0/24"))
    # ...but nothing outside the /16.
    assert not s.overlaps(*pfx("10.8.0.0/24"))


def test_ge_below_length_keeps_short_route_overlap_sound():
    # `ip prefix-list X permit 10.0.0.0/24 ge 8` compares only the
    # first 24 bits but accepts any length >= 8: it matches the route
    # 10.0.0.0/8, which overlaps 10.3.1.0/24 — an address nowhere near
    # 10.0.0.0/24.  The naive (network, length) range would miss it.
    s = PrefixSet.from_entry(entry("10.0.0.0/24", ge=8))
    e = entry("10.0.0.0/24", ge=8)
    assert e.matches(*pfx("10.0.0.0/8"))       # the concrete semantics
    assert s.overlaps(*pfx("10.3.1.0/24"))     # so the abstraction must


def test_unsatisfiable_entry_is_empty():
    assert PrefixSet.from_entry(entry("10.0.0.0/24", ge=28, le=26)).is_empty()
    assert PrefixSet.from_entry(entry("10.0.0.0/24", ge=33)).is_empty()


def test_union_subsumes_and_widens():
    wide = PrefixSet.from_entry(entry("10.0.0.0/8", ge=8, le=32))
    narrow = PrefixSet.from_prefix(*pfx("10.9.0.0/24"))
    assert wide.union(narrow) == wide           # subsumption
    assert EMPTY.union(narrow) == narrow
    assert ANY.union(narrow).is_any
    # Exceeding WIDEN_LIMIT disjoint ranges widens to ANY.
    s = EMPTY
    for i in range(WIDEN_LIMIT + 1):
        s = s.union(PrefixSet.from_prefix((i + 1) << 24, 24))
    assert s.is_any


def test_intersect_identities():
    s = PrefixSet.from_entry(entry("10.9.0.0/16", ge=16, le=24))
    assert ANY.intersect(s) == s
    assert s.intersect(ANY) == s
    assert s.intersect(EMPTY).is_empty()
    sibling = PrefixSet.from_prefix(*pfx("10.8.0.0/16"))
    assert s.intersect(sibling).is_empty()
    sub = PrefixSet.from_prefix(*pfx("10.9.4.0/24"))
    got = s.intersect(sub)
    assert got.overlaps(*pfx("10.9.4.0/24"))
    assert not got.overlaps(*pfx("10.9.5.0/24"))


@settings(max_examples=200, deadline=None)
@given(
    net=st.integers(min_value=0, max_value=(1 << 32) - 1),
    length=st.integers(min_value=0, max_value=32),
    base=st.integers(min_value=0, max_value=(1 << 32) - 1),
    elen=st.integers(min_value=0, max_value=32),
    ge=st.integers(min_value=0, max_value=32),
    width=st.integers(min_value=0, max_value=8),
)
def test_prop_entry_overlap_never_misses_concrete_match(
    net, length, base, elen, ge, width
):
    # Soundness of the abstraction: whenever the concrete entry matches
    # some route R and R overlaps the query prefix, overlaps() is True.
    e = entry(iplib.format_prefix(iplib.network_of(base, elen), elen),
              ge=ge, le=min(32, ge + width))
    s = PrefixSet.from_entry(e)
    route = (iplib.network_of(net, length), length)
    if e.matches(*route) and iplib.prefix_overlaps(
        route[0], route[1], net, length
    ):
        assert s.overlaps(net, length)


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------

CHAIN = {
    "a.cfg": """\
hostname a
interface eth0
 ip address 10.0.0.1 255.255.255.0
interface rack
 ip address 10.9.0.1 255.255.255.0
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
""",
    "b.cfg": """\
hostname b
interface eth0
 ip address 10.0.0.2 255.255.255.0
interface eth1
 ip address 10.0.1.1 255.255.255.0
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
 neighbor 10.0.1.2 remote-as 65003
""",
    "c.cfg": """\
hostname c
interface eth0
 ip address 10.0.1.2 255.255.255.0
router bgp 65003
 neighbor 10.0.1.1 remote-as 65002
""",
}


def test_fixpoint_propagates_across_the_chain():
    df = analyze_dataflow(network_from_texts(CHAIN))
    assert not df.widened
    rack = pfx("10.9.0.0/24")
    assert df.origin["a"].overlaps(*rack)
    assert df.learned["b"].overlaps(*rack)    # one hop
    assert df.learned["c"].overlaps(*rack)    # two hops (fixpoint)
    assert df.advertised["b"].overlaps(*rack)
    # a's rack prefix is not something c originates.
    assert not df.origin["c"].overlaps(*rack)


def test_export_filter_bounds_downstream_learning():
    texts = dict(CHAIN)
    texts["b.cfg"] = texts["b.cfg"] + """\
ip prefix-list LINKS seq 10 permit 10.0.0.0/16 le 32
route-map EXPORT permit 10
 match ip address prefix-list LINKS
router bgp 65002
 neighbor 10.0.1.2 route-map EXPORT out
"""
    df = analyze_dataflow(network_from_texts(texts))
    rack = pfx("10.9.0.0/24")
    assert df.learned["b"].overlaps(*rack)
    # b's export map only passes 10.0.0.0/16: c can never hear the rack.
    assert not df.learned["c"].overlaps(*rack)
    assert not df.session_inflow[("c", pfx("10.0.1.1/32")[0])].overlaps(*rack)


def test_external_peer_widens_session_inflow_to_any():
    texts = dict(CHAIN)
    texts["c.cfg"] = texts["c.cfg"] + """\
interface edge
 ip address 203.0.113.1 255.255.255.0
router bgp 65003
 neighbor 203.0.113.9 remote-as 65099
"""
    df = analyze_dataflow(network_from_texts(texts))
    assert df.session_inflow[("c", pfx("203.0.113.9/32")[0])].is_any
    assert df.learned["c"].is_any
    # The unbounded input stays local to reachable devices: a and b
    # hear it too (c re-advertises), but the analysis never *narrows*.
    assert df.learned["b"].is_any
    assert not df.widened   # ANY inflow is not fixpoint divergence


def test_unresolvable_session_contributes_nothing():
    texts = dict(CHAIN)
    texts["c.cfg"] = texts["c.cfg"] + """\
router bgp 65003
 neighbor 198.51.100.9 remote-as 65100
"""
    df = analyze_dataflow(network_from_texts(texts))
    assert df.session_inflow[("c", pfx("198.51.100.9/32")[0])].is_empty()
    assert not df.learned["c"].is_any


# Cloud-corpus networks whose fixpoint once took 4 or 5 iterations
# depending on the order a set of OSPF peer names iterated in.
_ORDERED_FIXPOINT = """
from repro.analysis.dataflow import _fixpoint
from repro.gen import build_cloud_network
print([_fixpoint(build_cloud_network(i).network).iterations
       for i in (9, 87, 105)])
"""


def test_fixpoint_iterations_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    counts = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _ORDERED_FIXPOINT],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        counts.append(done.stdout.strip())
    assert counts[0] == counts[1]


def test_hot_clause_seqs_distinguish_relevant_clauses():
    texts = dict(CHAIN)
    texts["b.cfg"] = texts["b.cfg"] + """\
ip prefix-list RACK seq 10 permit 10.9.0.0/24
ip prefix-list OTHER seq 10 permit 172.16.0.0/16 le 24
route-map IMPORT deny 10
 match ip address prefix-list OTHER
route-map IMPORT permit 20
 match ip address prefix-list RACK
router bgp 65002
 neighbor 10.0.0.1 route-map IMPORT in
"""
    df = analyze_dataflow(network_from_texts(texts))
    rack = pfx("10.9.0.0/24")
    hot = df.hot_clause_seqs("b", "IMPORT", rack)
    # Clause 10 matches 172.16/16 routes the session never carries and
    # that cannot overlap the rack anyway; clause 20 is the live one.
    assert hot == frozenset({20})
    # An unbound map has no inputs: everything cold.
    assert df.hot_clause_seqs("b", "NOSUCH", rack) == frozenset()


def with_text(base, **extra):
    """``base`` with each keyword's text appended to ``<key>.cfg``."""
    texts = dict(base)
    for name, text in extra.items():
        texts[f"{name}.cfg"] += text
    return texts


def test_loop_candidates_mirror_default_candidates():
    # The pseudo-fragment hashed into structural cones must equal the
    # property's pivot set, which holds exactly the risky devices.
    sets_pref = """\
route-map PREF permit 10
 set local-preference 200
router bgp 65002
 neighbor 10.0.0.1 route-map PREF in
"""
    sets_metric = sets_pref.replace("set local-preference 200",
                                    "set metric 3")
    # A setter under a match no route can satisfy still counts.
    cold_setter = """\
ip prefix-list COLD seq 10 permit 172.16.0.0/16 le 24
route-map IMPORT permit 10
 match ip address prefix-list COLD
 set metric 7
router bgp 65002
 neighbor 10.0.0.1 route-map IMPORT in
"""
    ibgp = dict(CHAIN)
    ibgp["b.cfg"] = ibgp["b.cfg"].replace(
        "neighbor 10.0.1.2 remote-as 65003",
        "neighbor 10.0.1.2 remote-as 65002")
    ibgp["c.cfg"] = ibgp["c.cfg"].replace("router bgp 65003",
                                          "router bgp 65002")
    ospf = "router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
    cases = [
        (CHAIN, ()),
        (with_text(CHAIN, b=sets_pref), ("b",)),
        (with_text(CHAIN, b=sets_metric), ("b",)),
        (with_text(CHAIN, b=cold_setter), ("b",)),
        (ibgp, ("b", "c")),
        # a's network statement only counts alongside OSPF.
        (with_text(CHAIN, a=ospf), ("a",)),
        (with_text(CHAIN, b=ospf, c=ospf), ()),
    ]
    from repro.core.encoder import NetworkEncoder

    for case, risky in cases:
        net = network_from_texts(case)
        enc = NetworkEncoder(net, EncoderOptions()).encode()
        assert loop_candidates(net) == risky
        assert tuple(P.NoForwardingLoops.default_candidates(enc)) == risky

