"""Cross-device dataflow rules XDF001–XDF004: firing and near-miss.

Every rule gets one fixture where it must fire (with a meaningful
span) and one *near-miss* — the minimal edit that makes the situation
legitimate — where it must stay silent.
"""

from repro.analysis import analyze_configs


def analyze(texts):
    return analyze_configs(texts, smt=False)


def line_of(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not in config")


# `hub` speaks BGP to two internal neighbors (left, right) so the
# egress-consistency rules have redundant paths to compare.
LEFT = """\
hostname left
interface eth0
 ip address 10.0.0.2 255.255.255.0
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
"""

RIGHT = """\
hostname right
interface eth0
 ip address 10.0.1.2 255.255.255.0
router bgp 65003
 neighbor 10.0.1.1 remote-as 65001
"""

HUB_BASE = """\
hostname hub
interface eth0
 ip address 10.0.0.1 255.255.255.0
interface eth1
 ip address 10.0.1.1 255.255.255.0
interface rack
 ip address 10.9.0.1 255.255.255.0
"""


def network(hub_tail, left=LEFT, right=RIGHT):
    return {"hub.cfg": HUB_BASE + hub_tail, "left.cfg": left,
            "right.cfg": right}


# ----------------------------------------------------------------------
# XDF001 — announced prefix filtered on every egress
# ----------------------------------------------------------------------

XDF001_FIRES = network("""\
ip prefix-list NOT_RACK seq 10 permit 172.16.0.0/16
route-map EXPORT permit 10
 match ip address prefix-list NOT_RACK
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map EXPORT out
 neighbor 10.0.1.2 remote-as 65003
 neighbor 10.0.1.2 route-map EXPORT out
""")


def test_xdf001_fires_when_every_egress_denies():
    report = analyze(XDF001_FIRES)
    (diag,) = report.by_rule("XDF001")
    assert "10.9.0.0/24" in diag.message
    assert diag.device == "hub"
    assert diag.file == "hub.cfg"
    assert diag.line == line_of(XDF001_FIRES["hub.cfg"], "router bgp 65001")


def test_xdf001_near_miss_one_session_passes():
    # Unfiltering ONE of the two sessions gives the route a way out.
    texts = network("""\
ip prefix-list NOT_RACK seq 10 permit 172.16.0.0/16
route-map EXPORT permit 10
 match ip address prefix-list NOT_RACK
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map EXPORT out
 neighbor 10.0.1.2 remote-as 65003
""")
    assert not analyze(texts).by_rule("XDF001")
    # ...but advertising to only one of two redundant paths is exactly
    # the XDF004 asymmetry.
    assert analyze(texts).by_rule("XDF004")


def test_xdf001_silent_when_export_permits_the_prefix():
    texts = network("""\
ip prefix-list RACK seq 10 permit 10.9.0.0/24
route-map EXPORT permit 10
 match ip address prefix-list RACK
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map EXPORT out
 neighbor 10.0.1.2 remote-as 65003
 neighbor 10.0.1.2 route-map EXPORT out
""")
    report = analyze(texts)
    assert not report.by_rule("XDF001")
    assert not report.by_rule("XDF004")


# ----------------------------------------------------------------------
# XDF002 — import clause shadowed by upstream filtering
# ----------------------------------------------------------------------

def hub_announcing(extra=""):
    return HUB_BASE + """\
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
""" + extra


LEFT_SHADOWED = """\
hostname left
interface eth0
 ip address 10.0.0.2 255.255.255.0
ip prefix-list CORP seq 10 permit 172.16.0.0/16 le 24
route-map IMPORT deny 10
 match ip address prefix-list CORP
route-map IMPORT permit 20
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
 neighbor 10.0.0.1 route-map IMPORT in
"""


def test_xdf002_fires_on_unreachable_match():
    # hub can only ever send 10.* routes; left's clause 10 matches
    # 172.16/16 — nothing that session can carry.
    texts = network("", left=LEFT_SHADOWED)
    texts["hub.cfg"] = hub_announcing()
    report = analyze(texts)
    diags = report.by_rule("XDF002")
    assert len(diags) == 1
    diag = diags[0]
    assert "clause 10" in diag.message and "hub" in diag.message
    assert diag.device == "left"
    assert diag.line == line_of(LEFT_SHADOWED, "route-map IMPORT deny 10")


def test_xdf002_near_miss_upstream_announces_the_prefix():
    # The same import policy is legitimate once hub can actually send
    # a 172.16/16 route.
    texts = network("", left=LEFT_SHADOWED)
    texts["hub.cfg"] = hub_announcing(
        " network 172.16.4.0 mask 255.255.255.0\n")
    assert not analyze(texts).by_rule("XDF002")


def test_xdf002_silent_for_external_sessions():
    # An external peer can announce anything: never shadowed.
    texts = {"left.cfg": LEFT_SHADOWED.replace(
        "neighbor 10.0.0.1", "neighbor 10.0.0.9")}
    assert not analyze(texts).by_rule("XDF002")


# ----------------------------------------------------------------------
# XDF003 — community set but never matched network-wide
# ----------------------------------------------------------------------

HUB_TAGS = """\
route-map TAG permit 10
 set community 65001:99
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map TAG out
"""

LEFT_MATCHES = """\
hostname left
interface eth0
 ip address 10.0.0.2 255.255.255.0
ip community-list standard FROM_HUB permit 65001:99
route-map IMPORT permit 10
 match community FROM_HUB
router bgp 65002
 neighbor 10.0.0.1 remote-as 65001
 neighbor 10.0.0.1 route-map IMPORT in
"""


def test_xdf003_fires_when_no_list_matches_the_value():
    texts = network(HUB_TAGS)
    report = analyze(texts)
    (diag,) = report.by_rule("XDF003")
    assert "65001:99" in diag.message
    assert diag.device == "hub"
    assert diag.line == line_of(texts["hub.cfg"], "route-map TAG permit 10")
    assert str(diag.severity) == "info"


def test_xdf003_near_miss_value_matched_elsewhere():
    # The matching community-list lives on a DIFFERENT device — only a
    # network-wide view can tell this apart from the typo case.
    assert not analyze(network(HUB_TAGS, left=LEFT_MATCHES)).by_rule("XDF003")


def test_xdf003_fires_on_value_mismatch_typo():
    # A list exists but matches a different value: classic fat-finger.
    left = LEFT_MATCHES.replace("65001:99", "65001:90")
    diags = analyze(network(HUB_TAGS, left=left)).by_rule("XDF003")
    assert len(diags) == 1


# ----------------------------------------------------------------------
# XDF004 — asymmetric filtering across redundant egresses
# ----------------------------------------------------------------------

XDF004_FIRES = network("""\
ip prefix-list RACK seq 10 permit 10.9.0.0/24
route-map LEAN deny 10
 match ip address prefix-list RACK
route-map LEAN permit 20
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map LEAN out
 neighbor 10.0.1.2 remote-as 65003
""")


def test_xdf004_fires_on_asymmetric_egress_policy():
    report = analyze(XDF004_FIRES)
    (diag,) = report.by_rule("XDF004")
    assert "10.9.0.0/24" in diag.message
    assert "10.0.0.2" in diag.message     # filtered toward
    assert "10.0.1.2" in diag.message     # advertised to
    assert diag.device == "hub"


def test_xdf004_near_miss_symmetric_policy():
    # Applying the same deny on BOTH egresses is consistent — that
    # situation is XDF001's finding (never leaves), not asymmetry.
    texts = network("""\
ip prefix-list RACK seq 10 permit 10.9.0.0/24
route-map LEAN deny 10
 match ip address prefix-list RACK
route-map LEAN permit 20
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map LEAN out
 neighbor 10.0.1.2 remote-as 65003
 neighbor 10.0.1.2 route-map LEAN out
""")
    report = analyze(texts)
    assert not report.by_rule("XDF004")
    assert report.by_rule("XDF001")


def test_xdf004_silent_with_single_session():
    # One egress cannot be asymmetric with itself.
    texts = {"hub.cfg": HUB_BASE + """\
ip prefix-list RACK seq 10 permit 10.9.0.0/24
route-map LEAN deny 10
 match ip address prefix-list RACK
route-map LEAN permit 20
router bgp 65001
 network 10.9.0.0 mask 255.255.255.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map LEAN out
""", "left.cfg": LEFT}
    assert not analyze(texts).by_rule("XDF004")
