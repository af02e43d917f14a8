"""Concrete-evaluation tests for ACLs, prefix lists and route maps."""


from repro.net import (
    Acl,
    AclRule,
    CommunityList,
    DeviceConfig,
    PrefixList,
    PrefixListEntry,
    Route,
    RouteMap,
    RouteMapClause,
)
from repro.net import ip as iplib
from repro.sim.decision import overall_best, protocol_key


def ip(text):
    return iplib.parse_ip(text)


class TestAcl:
    def test_implicit_deny(self):
        acl = Acl("empty")
        assert not acl.permits(ip("10.0.0.1"))

    def test_first_match_wins(self):
        acl = Acl("a", (
            AclRule("deny", dst_network=ip("10.1.0.0"), dst_length=16),
            AclRule("permit"),
        ))
        assert not acl.permits(ip("10.1.2.3"))
        assert acl.permits(ip("10.2.0.1"))

    def test_source_match(self):
        rule = AclRule("permit", src_network=ip("192.168.0.0"), src_length=16)
        assert rule.matches(0, src_ip=ip("192.168.4.4"))
        assert not rule.matches(0, src_ip=ip("10.0.0.1"))

    def test_protocol_and_port_match(self):
        rule = AclRule("deny", protocol=6, dst_port_low=22, dst_port_high=22)
        assert rule.matches(0, protocol=6, dst_port=22)
        assert not rule.matches(0, protocol=17, dst_port=22)
        assert not rule.matches(0, protocol=6, dst_port=80)

    def test_port_range(self):
        rule = AclRule("permit", dst_port_low=8000, dst_port_high=8080)
        assert rule.matches(0, dst_port=8042)
        assert not rule.matches(0, dst_port=9000)


class TestPrefixList:
    def test_exact_match_default_bounds(self):
        entry = PrefixListEntry("permit", ip("10.0.0.0"), 8)
        assert entry.matches(ip("10.0.0.0"), 8)
        assert not entry.matches(ip("10.0.0.0"), 9)

    def test_ge_le_window(self):
        entry = PrefixListEntry("permit", ip("10.0.0.0"), 8, ge=16, le=24)
        assert entry.matches(ip("10.5.0.0"), 16)
        assert entry.matches(ip("10.5.5.0"), 24)
        assert not entry.matches(ip("10.0.0.0"), 8)
        assert not entry.matches(ip("10.5.5.5"), 32)
        assert not entry.matches(ip("11.0.0.0"), 16)

    def test_paper_example_deny_192_168(self):
        # ip prefix_list L deny 192.168.0.0/16 le 32 ; allow everything else
        plist = PrefixList("L", (
            PrefixListEntry("deny", ip("192.168.0.0"), 16, ge=16, le=32),
            PrefixListEntry("permit", 0, 0, le=32),
        ))
        assert not plist.permits(ip("192.168.4.0"), 24)
        assert not plist.permits(ip("192.168.0.0"), 16)
        assert plist.permits(ip("10.0.0.0"), 8)

    def test_default_deny(self):
        plist = PrefixList("empty")
        assert not plist.permits(ip("10.0.0.0"), 8)


class TestCommunityList:
    def test_permit_any_listed(self):
        clist = CommunityList("c", communities=("65001:1", "65001:2"))
        assert clist.permits(frozenset({"65001:2"}))
        assert not clist.permits(frozenset({"65001:3"}))

    def test_deny_inverts(self):
        clist = CommunityList("c", action="deny",
                              communities=("65001:1",))
        assert not clist.permits(frozenset({"65001:1"}))
        assert clist.permits(frozenset())


def make_device():
    dev = DeviceConfig(hostname="T")
    dev.prefix_lists["PL"] = PrefixList("PL", (
        PrefixListEntry("permit", ip("10.0.0.0"), 8, ge=8, le=32),
    ))
    dev.community_lists["CL"] = CommunityList(
        "CL", communities=("65001:7",))
    return dev


def route(prefix="10.1.0.0/16", **kwargs):
    net, length = iplib.parse_prefix(prefix)
    return Route(network=net, length=length, protocol="bgp", ad=20, **kwargs)


class TestRouteMap:
    def test_default_deny_when_no_clause_matches(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=10, action="permit", match_prefix_list="PL"),
        ))
        assert rmap.evaluate(route("192.168.0.0/16"), make_device()) is None

    def test_permit_applies_sets(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=10, action="permit", match_prefix_list="PL",
                           set_local_pref=200, set_metric=5,
                           add_communities=("65001:9",)),
        ))
        out = rmap.evaluate(route(), make_device())
        assert out.local_pref == 200
        assert out.metric == 5
        assert "65001:9" in out.communities

    def test_deny_clause_blocks(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=5, action="deny", match_prefix_list="PL"),
            RouteMapClause(seq=10, action="permit"),
        ))
        assert rmap.evaluate(route(), make_device()) is None
        assert rmap.evaluate(route("172.16.0.0/16"), make_device()) is not None

    def test_clauses_evaluated_in_seq_order(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=20, action="permit", set_local_pref=2),
            RouteMapClause(seq=10, action="permit", set_local_pref=1),
        ))
        out = rmap.evaluate(route(), make_device())
        assert out.local_pref == 1

    def test_community_match(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=10, action="permit",
                           match_community_list="CL", set_local_pref=300),
            RouteMapClause(seq=20, action="permit"),
        ))
        tagged = route(communities=frozenset({"65001:7"}))
        plain = route()
        assert rmap.evaluate(tagged, make_device()).local_pref == 300
        assert rmap.evaluate(plain, make_device()).local_pref == 100

    def test_community_delete(self):
        rmap = RouteMap("RM", (
            RouteMapClause(seq=10, action="permit",
                           delete_communities=("65001:7",)),
        ))
        tagged = route(communities=frozenset({"65001:7", "65001:8"}))
        out = rmap.evaluate(tagged, make_device())
        assert out.communities == frozenset({"65001:8"})

    def test_missing_prefix_list_never_matches(self):
        from repro.analysis.hazards import collect_dangling

        rmap = RouteMap("RM", (
            RouteMapClause(seq=10, action="permit",
                           match_prefix_list="NOPE"),
        ))
        with collect_dangling() as seen:
            assert rmap.evaluate(route(), make_device()) is None
        assert [(r.kind, r.name) for r in seen] == [("prefix-list", "NOPE")]


class TestRoutePreference:
    """The simulator's route-selection order (:mod:`repro.sim.decision`)."""

    def test_lower_ad_wins(self):
        ebgp = [route()]
        ospf = [Route(**{**route().__dict__, "protocol": "ospf", "ad": 110})]
        assert overall_best([ospf, ebgp]) == ebgp
        assert overall_best([ebgp, ospf]) == ebgp

    def test_higher_local_pref_wins_within_ad(self):
        base = route()
        hi = Route(**{**base.__dict__, "local_pref": 200})
        lo = Route(**{**base.__dict__, "local_pref": 100})
        assert protocol_key(hi) < protocol_key(lo)

    def test_lower_metric_then_med_then_ebgp_then_rid(self):
        base = route().__dict__
        assert protocol_key(Route(**{**base, "metric": 1})) < \
            protocol_key(Route(**{**base, "metric": 2}))
        assert protocol_key(Route(**{**base, "med": 0})) < \
            protocol_key(Route(**{**base, "med": 9}))
        assert protocol_key(Route(**{**base, "bgp_internal": False})) < \
            protocol_key(Route(**{**base, "bgp_internal": True}))
        assert protocol_key(Route(**{**base, "router_id": 1})) < \
            protocol_key(Route(**{**base, "router_id": 2}))

    def test_covers_longest_prefix(self):
        r = route("10.1.0.0/16")
        assert r.covers(ip("10.1.200.3"))
        assert not r.covers(ip("10.2.0.1"))
