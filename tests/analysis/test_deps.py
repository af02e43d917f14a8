"""Dependency analysis: cones of influence, slice hashes, DEP001.

The slice-hash properties are the soundness contract of the verdict
cache (``repro diff``):

a. edits outside a query's cone never change its cache key;
b. semantic edits inside the cone always change it;
c. comment/whitespace edits never change it (the parser discards them
   before the canonical fragments are written).
"""

from dataclasses import fields

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import obs
from repro.analysis import analyze_configs
from repro.analysis.deps import (
    _SEMANTIC_OPTION_FIELDS,
    cache_key,
    device_hash,
    network_facts,
    options_digest,
    options_fingerprint,
    query_cone,
)
from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.net import network_from_texts


def line_of(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not in config")


# ----------------------------------------------------------------------
# A two-router fixture: r1 announces a rack /24 and carries a stub
# interface that no session, static route or link can observe.
# ----------------------------------------------------------------------

R1 = """\
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.0
interface rack
 ip address 10.9.0.1 255.255.255.0
interface stub
 ip address 192.168.{stub_octet}.1 255.255.255.0
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
"""

R2 = """\
hostname r2
interface eth0
 ip address 10.0.0.2 255.255.255.0
interface rack
 ip address 10.8.0.1 255.255.255.0
router bgp 65002
 network 10.8.0.0 mask 255.255.255.0
 neighbor 10.0.0.1 remote-as 65001
"""

DST = "10.9.0.0/24"


def build(stub_octet=5, r1_extra="", r2_text=R2):
    texts = {"r1.cfg": R1.format(stub_octet=stub_octet) + r1_extra,
             "r2.cfg": r2_text}
    return network_from_texts(texts)


def key_of(network, prop=None, **kw):
    if prop is None:
        prop = P.Reachability(sources="all", dest_prefix_text=DST)
    return cache_key(network, prop, max_failures=kw.pop("max_failures", None),
                     assumptions=kw.pop("assumptions", ()),
                     options=kw.pop("options", None))


# ----------------------------------------------------------------------
# Cone computation
# ----------------------------------------------------------------------

def test_cone_excludes_stub_interface():
    net = build()
    prop = P.Reachability(sources="all", dest_prefix_text=DST)
    cone = query_cone(net, prop)
    assert cone is not None and cone.bounded
    r1 = cone.fragments["r1"]
    assert "interface:stub" not in r1
    assert "interface:eth0" in r1      # link subnet + session address
    assert "interface:rack" in r1      # overlaps the destination
    assert "bgp" in r1 and "bgp.neighbor:10.0.0.2" in r1
    assert "bgp.network:10.9.0.0/24" in r1
    # r2's announcement of a non-overlapping rack is out of the cone.
    assert "bgp.network:10.8.0.0/24" not in cone.fragments["r2"]


def test_stub_with_session_address_inside_is_kept():
    # If any device's BGP session address falls inside the stub subnet,
    # session resolution depends on it: it must stay in the slice.
    net = build(r1_extra="router bgp 65001\n"
                         " neighbor 192.168.5.9 remote-as 65003\n")
    facts = network_facts(net)
    assert any(192 << 24 <= ip for ip in facts.neighbor_ips)
    cone = query_cone(net, P.Reachability(sources="all",
                                          dest_prefix_text=DST))
    assert "interface:stub" in cone.fragments["r1"]


def test_unbounded_cone_covers_everything():
    net = build()
    prop = P.NoForwardingLoops()          # no destination prefix
    cone = query_cone(net, prop)
    assert cone is not None and not cone.bounded
    assert cone.reason
    full = query_cone(net, P.Reachability(sources="all",
                                          dest_prefix_text=DST))
    for name in net.devices:
        assert full.fragments[name] <= cone.fragments[name]
    # Still cacheable: a hit just means nothing at all changed.
    assert key_of(net, prop) is not None


def test_structural_loops_property_keeps_all_route_maps():
    extra = ("route-map SHADOW permit 10\n"
             " set local-preference 200\n"
             "router bgp 65002\n"
             " neighbor 10.0.0.1 route-map SHADOW in\n")
    net = build(r2_text=R2 + extra)
    cone = query_cone(net, P.NoForwardingLoops(dest_prefix_text=DST))
    assert "route-map:SHADOW" in cone.fragments["r2"]


# ----------------------------------------------------------------------
# Uncacheable queries
# ----------------------------------------------------------------------

def test_unknown_property_subclass_is_not_cacheable():
    class Custom(P.Reachability):
        pass

    net = build()
    prop = Custom(sources="all", dest_prefix_text=DST)
    assert query_cone(net, prop) is None
    assert key_of(net, prop) is None


def test_unknown_assumption_is_not_cacheable():
    net = build()
    assert key_of(net, assumptions=(object(),)) is None


def test_auto_named_external_peer_is_not_cacheable():
    # r2's neighbor 10.0.0.99 resolves via the link subnet but nobody
    # owns the address: the topology layer invents the peer name from a
    # global counter, so queries naming it cannot be cached.
    net = build(r2_text=R2 + "router bgp 65002\n"
                             " neighbor 10.0.0.99 remote-as 65099\n")
    (ext,) = net.externals
    assert ext.name.startswith("ext-")
    prop = P.Reachability(sources="all", dest_peer=ext.name)
    assert key_of(net, prop) is None


def test_lazy_property_is_not_cacheable():
    net = build()
    prop = P.Reachability(sources="all", dest_prefix_text=DST)
    prop.lazy = True
    assert query_cone(net, prop) is None


# ----------------------------------------------------------------------
# Slice-hash / cache-key properties (satellite: the soundness contract)
# ----------------------------------------------------------------------

def test_out_of_cone_edit_keeps_cache_key():
    base = key_of(build(stub_octet=5))
    edited = key_of(build(stub_octet=6))
    assert base is not None
    assert base == edited


def test_in_cone_semantic_edit_changes_cache_key():
    base = key_of(build())
    # Announcing one more prefix inside the destination's /24 clearly
    # lands in the cone.
    edited = key_of(build(
        r1_extra="router bgp 65001\n"
                 " network 10.9.0.128 mask 255.255.255.128\n"))
    assert base != edited


def test_remote_in_cone_edit_changes_cache_key():
    # An edit on the *other* device (session policy) is in the cone too.
    extra = ("route-map NOPE deny 10\n"
             "router bgp 65002\n"
             " neighbor 10.0.0.1 route-map NOPE out\n")
    assert key_of(build()) != key_of(build(r2_text=R2 + extra))


def test_comment_and_whitespace_edits_are_hash_neutral():
    noisy = R2.replace("interface eth0",
                       "! core uplink\ninterface eth0") + "\n!\n\n"
    assert key_of(build()) == key_of(build(r2_text=noisy))


def test_failure_bound_and_options_change_the_key():
    net = build()
    assert key_of(net) != key_of(net, max_failures=1)
    assert key_of(net) != key_of(
        net, options=EncoderOptions(fail_external=False))
    # Solver-side strategies are verdict-preserving: same key.
    assert key_of(net) == key_of(
        net, options=EncoderOptions(preprocess=False))
    # Pinned so persisted verdict caches and encoding-cache keys stay
    # valid when solver-only options are added or removed; only a
    # change to the semantic option set may move it.
    assert options_digest(EncoderOptions()) == "654d6bcf21de"


def test_options_fingerprint_covers_every_option():
    # A new option must be hashed into verdict-cache keys or be listed
    # here as verdict-neutral, so it cannot leave cached keys stale.
    assert {f.name for f in fields(EncoderOptions)} == \
        set(_SEMANTIC_OPTION_FIELDS) | {"max_failures", "preprocess"}


def test_options_fingerprint_ignores_solver_strategy_fields():
    a = options_fingerprint(EncoderOptions())
    assert a == options_fingerprint(EncoderOptions(preprocess=False))
    assert a != options_fingerprint(EncoderOptions(fail_external=False))


def test_device_hash_tracks_canonical_form():
    net_a, net_b = build(), build(stub_octet=6)
    h = device_hash
    assert h(net_a.devices["r1"]) != h(net_b.devices["r1"])
    assert h(net_a.devices["r2"]) == h(net_b.devices["r2"])


@settings(max_examples=25, deadline=None)
@given(octet=st.integers(min_value=2, max_value=254))
def test_prop_out_of_cone_stub_renumber_never_changes_key(octet):
    assert key_of(build(stub_octet=octet)) == key_of(build(stub_octet=5))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_prop_comment_insertion_never_changes_key(data):
    lines = R2.splitlines()
    pos = data.draw(st.integers(min_value=0, max_value=len(lines)))
    comment = data.draw(st.sampled_from(["!", "! note", ""]))
    noisy = "\n".join(lines[:pos] + [comment] + lines[pos:]) + "\n"
    assert key_of(build(r2_text=noisy)) == key_of(build())


# ----------------------------------------------------------------------
# Dataflow-tightened cones: clause-level projection
# ----------------------------------------------------------------------

# r2 imports from r1 through a two-clause map: clause 10 only matches
# corporate space the session can never carry (and that cannot overlap
# DST), clause 20 matches the rack.  The dataflow analysis proves
# clause 10 cold, so the cone carries only the clause-20 fragment.
PROJ_EXTRA = """\
ip prefix-list COLD seq 10 permit 172.{cold_octet}.0.0/16 le 24
ip prefix-list RACK seq 10 permit 10.9.0.0/24
route-map IMPORT deny 10
 match ip address prefix-list COLD
route-map IMPORT permit 20
 match ip address prefix-list RACK
router bgp 65002
 neighbor 10.0.0.1 route-map IMPORT in
"""


def proj_build(cold_octet=16, **kw):
    return build(r2_text=R2 + PROJ_EXTRA.format(cold_octet=cold_octet), **kw)


def test_partial_hot_map_projects_to_clause_fragments():
    cone = query_cone(proj_build(),
                      P.Reachability(sources="all", dest_prefix_text=DST))
    r2 = cone.fragments["r2"]
    assert "route-map:IMPORT:20" in r2     # the hot clause
    assert "route-map:IMPORT:10" not in r2  # provably cold
    assert "route-map:IMPORT" not in r2     # not the whole-map fragment
    # Lists are pulled in only by INCLUDED clauses.
    assert "prefix-list:RACK" in r2
    assert "prefix-list:COLD" not in r2


def test_all_cold_map_is_excluded_entirely():
    # Strip the hot clause: everything the map can do is irrelevant to
    # DST, so no fragment of it (or its list) is in the cone.
    extra = """\
ip prefix-list COLD seq 10 permit 172.16.0.0/16 le 24
route-map IMPORT deny 10
 match ip address prefix-list COLD
router bgp 65002
 neighbor 10.0.0.1 route-map IMPORT in
"""
    cone = query_cone(build(r2_text=R2 + extra),
                      P.Reachability(sources="all", dest_prefix_text=DST))
    r2 = cone.fragments["r2"]
    assert not any(f.startswith("route-map:IMPORT") for f in r2)
    assert "prefix-list:COLD" not in r2


def test_cold_clause_edit_keeps_cache_key():
    base = key_of(proj_build(cold_octet=16))
    assert base is not None
    assert base == key_of(proj_build(cold_octet=17))


def test_hot_clause_edit_changes_cache_key():
    edited = R2 + PROJ_EXTRA.format(cold_octet=16).replace(
        "ip prefix-list RACK seq 10 permit 10.9.0.0/24",
        "ip prefix-list RACK seq 10 permit 10.9.0.0/25")
    assert key_of(proj_build()) != key_of(build(r2_text=edited))


def test_cold_to_hot_flip_changes_cache_key():
    # Re-pointing the cold clause's list at the destination makes the
    # clause hot: the inclusion SET changes, so the key must change
    # even though the clause's own text does not.
    edited = R2 + PROJ_EXTRA.format(cold_octet=16).replace(
        "permit 172.16.0.0/16 le 24", "permit 10.9.0.0/24")
    assert key_of(proj_build()) != key_of(build(r2_text=edited))


def test_structural_cone_tracks_loop_candidates_via_extras():
    # An UNBOUND local-pref-setting map is in no propagation path — the
    # dataflow projection excludes its fragments — but it still flips
    # the device into NoForwardingLoops' default candidate set.  The
    # pseudo-fragment hashed into structural cones must catch that.
    prop = P.NoForwardingLoops(dest_prefix_text=DST)
    plain = key_of(build(), prop)
    extra = "route-map UNBOUND permit 10\n set local-preference 200\n"
    risky = key_of(build(r2_text=R2 + extra), prop)
    assert plain is not None and plain != risky
    cone = query_cone(build(), prop)
    assert any(key == "dataflow:loop-candidates" for key, _ in cone.extras)


def test_set_metric_flips_loop_candidates_and_cache_key():
    # Neither device of the fixture is risky, so the loop query has no
    # pivots.  An unbound `set metric` map on r2 makes r2 a pivot: the
    # loop query's key must change, the reachability query's must not.
    loops = P.NoForwardingLoops(dest_prefix_text=DST)
    extra = "route-map UNBOUND permit 10\n set metric 5\n"
    edited = build(r2_text=R2 + extra)
    assert key_of(build(), loops) != key_of(edited, loops)
    assert key_of(build()) == key_of(edited)


def test_dataflow_fixpoint_runs_once_per_network():
    # The fixpoint lives as long as its Network: a second cone on the
    # same network (a verdict replay) runs no iteration, and its keys
    # equal those of a network that never had the fixpoint cached.
    reach = P.Reachability(sources="all", dest_prefix_text=DST)
    loops = P.NoForwardingLoops(dest_prefix_text=DST)
    net = proj_build()
    tracer = obs.Tracer()
    with obs.use(tracer):
        first = [key_of(net, prop) for prop in (reach, loops)]
        counter = tracer.metrics.counter("dataflow.fixpoint_iterations")
        iterations = counter.value
        assert iterations > 0
        again = [key_of(net, prop) for prop in (reach, loops)]
        assert query_cone(net, reach) == query_cone(proj_build(), reach)
        assert counter.value == 2 * iterations  # only the fresh build ran
    assert again == first
    assert first == [key_of(proj_build(), prop) for prop in (reach, loops)]


@settings(max_examples=25, deadline=None)
@given(octet=st.integers(min_value=16, max_value=31))
def test_prop_out_of_cone_edit_never_changes_tightened_key(octet):
    # Renumbering the cold clause's match space (any 172.x/16) is an
    # out-of-cone edit for DST: the dataflow-tightened slice — and so
    # the cache key — must be unaffected, for every choice of octet.
    assert key_of(proj_build(cold_octet=octet)) == key_of(proj_build())


# ----------------------------------------------------------------------
# DEP001 — referenced policy outside every propagation path
# ----------------------------------------------------------------------

def analyze(texts):
    return analyze_configs(texts, smt=False)


DEP_BASE = """\
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.0
"""

DEP001_DEAD_MAP = DEP_BASE + """\
route-map DEADPOL deny 10
 match ip address prefix-list DEADPL
ip prefix-list DEADPL seq 10 permit 10.9.0.0/16
router bgp 65001
 neighbor 10.0.0.9 remote-as 65002
 neighbor 203.0.113.9 remote-as 65003
 neighbor 203.0.113.9 route-map DEADPOL in
"""

DEP001_LIVE_MAP = DEP_BASE + """\
route-map DEADPOL deny 10
 match ip address prefix-list DEADPL
ip prefix-list DEADPL seq 10 permit 10.9.0.0/16
router bgp 65001
 neighbor 10.0.0.9 remote-as 65002
 neighbor 10.0.0.9 route-map DEADPOL in
 neighbor 203.0.113.9 remote-as 65003
 neighbor 203.0.113.9 route-map DEADPOL in
"""


def test_dep001_dead_session_map_fires_with_span():
    report = analyze({"r1.cfg": DEP001_DEAD_MAP})
    diags = report.by_rule("DEP001")
    messages = [d.message for d in diags]
    assert any("DEADPOL" in m and "203.0.113.9" in m for m in messages)
    assert any("DEADPL" in m for m in messages)
    (map_diag,) = [d for d in diags if "route-map DEADPOL" in d.message]
    assert map_diag.file == "r1.cfg"
    assert map_diag.line == line_of(DEP001_DEAD_MAP,
                                    "route-map DEADPOL in")


def test_dep001_near_miss_map_also_on_live_session():
    # Bound to a resolvable session too: the policy is reachable.
    assert not analyze({"r1.cfg": DEP001_LIVE_MAP}).by_rule("DEP001")


DEP001_SHUT_ACL = DEP_BASE + """\
access-list EDGE deny ip any
interface unused
 ip address 10.3.0.1 255.255.255.0
 ip access-group EDGE in
 shutdown
"""

DEP001_LIVE_ACL = DEP001_SHUT_ACL + """\
interface live
 ip address 10.4.0.1 255.255.255.0
 ip access-group EDGE in
"""


def test_dep001_shutdown_acl_fires_with_span():
    report = analyze({"r1.cfg": DEP001_SHUT_ACL})
    (diag,) = report.by_rule("DEP001")
    assert "EDGE" in diag.message and "unused" in diag.message
    assert diag.line == line_of(DEP001_SHUT_ACL, "ip access-group EDGE")


def test_dep001_near_miss_acl_also_live():
    assert not analyze({"r1.cfg": DEP001_LIVE_ACL}).by_rule("DEP001")


def test_dep001_silent_on_clean_fixture():
    assert not analyze({"r1.cfg": R1.format(stub_octet=5),
                        "r2.cfg": R2}).by_rule("DEP001")
