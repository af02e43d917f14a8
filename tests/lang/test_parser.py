"""Parser tests: full configs, individual stanzas, error reporting."""

import pytest

from repro.lang import ConfigSyntaxError, parse_config
from repro.net import ip as iplib

FULL_CONFIG = """\
hostname R1
!
interface Ethernet0
 ip address 10.0.1.1 255.255.255.0
 ip ospf cost 10
 ip access-group BLOCKIN in
!
interface Management0
 ip address 172.16.0.1 255.255.255.255
 description management interface
!
router ospf 1
 router-id 1.1.1.1
 maximum-paths 4
 redistribute bgp metric 20
 network 10.0.1.0 0.0.0.255 area 0
!
router bgp 65001
 bgp router-id 1.1.1.1
 bgp bestpath med same-as
 maximum-paths 8
 network 192.168.1.0 mask 255.255.255.0
 aggregate-address 192.168.0.0 255.255.0.0 summary-only
 redistribute ospf metric 5
 redistribute connected
 neighbor 10.0.1.2 remote-as 65002
 neighbor 10.0.1.2 description N1 upstream
 neighbor 10.0.1.2 route-map IMPORT in
 neighbor 10.0.1.2 route-map EXPORT out
 neighbor 10.0.1.3 remote-as 65001
 neighbor 10.0.1.3 route-reflector-client
!
ip route 172.16.0.0 255.255.0.0 10.0.1.2
ip route 172.17.0.0 255.255.0.0 Null0
ip route 172.18.0.0 255.255.0.0 Ethernet0
!
ip prefix-list PL seq 5 deny 192.168.0.0/16 le 32
ip prefix-list PL seq 10 permit 0.0.0.0/0 ge 8 le 24
!
ip community-list standard CL permit 65001:100 65001:200
!
ip access-list extended BLOCKIN
 deny ip any 172.10.1.0 0.0.0.255
 deny tcp 10.0.0.0 0.255.255.255 any eq 22
 permit udp any 10.9.0.0 0.0.255.255 range 5000 6000
 permit ip any any
!
access-list 7 deny ip 172.10.2.0 0.0.0.255
access-list 7 permit ip any any
!
route-map IMPORT permit 10
 match ip address prefix-list PL
 set local-preference 120
 set community 65001:300 additive
route-map IMPORT deny 20
!
route-map EXPORT permit 10
 match community CL
 set metric 50
 set med 7
 set comm-list-delete 65001:100
!
"""


@pytest.fixture(scope="module")
def config():
    return parse_config(FULL_CONFIG)


class TestFullConfig:
    def test_hostname_and_line_count(self, config):
        assert config.hostname == "R1"
        assert config.config_lines > 30

    def test_interfaces(self, config):
        eth0 = config.interfaces["Ethernet0"]
        assert eth0.address == iplib.parse_ip("10.0.1.1")
        assert eth0.prefix_length == 24
        assert eth0.ospf_cost == 10
        assert eth0.acl_in == "BLOCKIN"
        mgmt = config.interfaces["Management0"]
        assert mgmt.is_management
        assert mgmt.prefix_length == 32

    def test_ospf(self, config):
        ospf = config.ospf
        assert ospf.process_id == 1
        assert ospf.router_id == iplib.parse_ip("1.1.1.1")
        assert ospf.multipath
        assert ospf.redistribute == {"bgp": 20}
        assert ospf.networks == [(iplib.parse_ip("10.0.1.0"), 24, 0)]

    def test_bgp(self, config):
        bgp = config.bgp
        assert bgp.asn == 65001
        assert bgp.med_mode == "same-as"
        assert bgp.multipath
        assert bgp.networks == [(iplib.parse_ip("192.168.1.0"), 24)]
        assert bgp.aggregates == [(iplib.parse_ip("192.168.0.0"), 16)]
        assert bgp.redistribute == {"ospf": 5, "connected": 0}

    def test_bgp_neighbors(self, config):
        n1 = config.bgp.neighbor(iplib.parse_ip("10.0.1.2"))
        assert n1.remote_as == 65002
        assert n1.description == "N1 upstream"
        assert n1.route_map_in == "IMPORT"
        assert n1.route_map_out == "EXPORT"
        n2 = config.bgp.neighbor(iplib.parse_ip("10.0.1.3"))
        assert n2.remote_as == 65001
        assert n2.route_reflector_client
        assert config.bgp.is_internal(n2)

    def test_static_routes(self, config):
        statics = config.static_routes
        assert len(statics) == 3
        assert statics[0].next_hop_ip == iplib.parse_ip("10.0.1.2")
        assert statics[1].drop
        assert statics[2].interface == "Ethernet0"

    def test_prefix_list(self, config):
        plist = config.prefix_lists["PL"]
        assert len(plist.entries) == 2
        deny, permit = plist.entries
        assert deny.action == "deny"
        assert deny.length == 16 and deny.le == 32 and deny.ge is None
        assert permit.ge == 8 and permit.le == 24

    def test_community_list(self, config):
        clist = config.community_lists["CL"]
        assert clist.communities == ("65001:100", "65001:200")

    def test_extended_acl(self, config):
        acl = config.acls["BLOCKIN"]
        assert len(acl.rules) == 4
        r0, r1, r2, r3 = acl.rules
        assert r0.action == "deny"
        assert r0.dst_network == iplib.parse_ip("172.10.1.0")
        assert r0.dst_length == 24 and r0.src_network is None
        assert r1.protocol == 6
        assert r1.src_network == iplib.parse_ip("10.0.0.0")
        assert r1.src_length == 8
        assert r1.dst_port_low == 22
        assert r2.protocol == 17
        assert (r2.dst_port_low, r2.dst_port_high) == (5000, 6000)
        assert r3.dst_length == 0 and r3.src_network is None

    def test_numbered_acl_short_form_matches_destination(self, config):
        acl = config.acls["7"]
        assert acl.rules[0].dst_network == iplib.parse_ip("172.10.2.0")
        assert acl.rules[0].dst_length == 24
        assert not acl.permits(iplib.parse_ip("172.10.2.9"))
        assert acl.permits(iplib.parse_ip("8.8.8.8"))

    def test_route_maps(self, config):
        imp = config.route_maps["IMPORT"]
        assert [c.seq for c in imp.clauses] == [10, 20]
        c10 = imp.clauses[0]
        assert c10.match_prefix_list == "PL"
        assert c10.set_local_pref == 120
        assert c10.add_communities == ("65001:300",)
        assert imp.clauses[1].action == "deny"
        exp = config.route_maps["EXPORT"]
        assert exp.clauses[0].match_community_list == "CL"
        assert exp.clauses[0].set_metric == 50
        assert exp.clauses[0].set_med == 7
        assert exp.clauses[0].delete_communities == ("65001:100",)


class TestErrors:
    def test_unknown_top_command(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config("hostname X\nfrobnicate everything\n")
        assert err.value.lineno == 2

    def test_unknown_interface_subcommand(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("interface e0\n spanning-tree portfast\n")

    def test_neighbor_without_remote_as(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("router bgp 1\n neighbor 1.2.3.4 route-map M in\n")

    def test_bad_prefix_list_action(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("ip prefix-list P seq 5 allow 10.0.0.0/8\n")

    def test_bad_acl_protocol(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("ip access-list extended A\n permit gre any any\n")

    def test_standard_named_acl_unsupported(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("ip access-list standard A\n")

    def test_route_map_bad_action(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("route-map M allow 10\n")

    @pytest.mark.parametrize("cost", ["0", "-1", "65536"])
    def test_ospf_cost_out_of_range(self, cost):
        # Cost 0 lets two neighbors each pick the other as an equal-cost
        # next hop; a negative cost wraps in the 16-bit metric.
        text = f"interface e0\n ip address 10.0.0.1 255.255.255.0\n" \
            f" ip ospf cost {cost}\n"
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(text)
        assert err.value.lineno == 3

    @pytest.mark.parametrize("metric", ["-1", "65536", "70000"])
    @pytest.mark.parametrize("header", ["router ospf 1", "router bgp 65001"])
    def test_redistribute_metric_out_of_range(self, header, metric):
        # The encoder's 16-bit metric would wrap N while the simulator
        # keeps it whole (70000 -> 4464).
        text = f"{header}\n redistribute static metric {metric}\n"
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(text)
        assert err.value.lineno == 2

    def test_redistribute_metric_bounds_accepted(self):
        text = "router ospf 1\n redistribute static metric 65535\n" \
            "router bgp 65001\n redistribute connected metric 0\n"
        config = parse_config(text)
        assert config.ospf.redistribute == {"static": 65535}
        assert config.bgp.redistribute == {"connected": 0}

    def test_ospf_cost_range_bounds_accepted(self):
        for cost in (1, 65535):
            config = parse_config(f"interface e0\n ip ospf cost {cost}\n")
            assert config.interfaces["e0"].ospf_cost == cost


class TestSmallStanzas:
    def test_bgp_network_short_form_defaults_to_24(self):
        cfg = parse_config("router bgp 1\n network 10.1.1.0\n")
        assert cfg.bgp.networks == [(iplib.parse_ip("10.1.1.0"), 24)]

    def test_comment_and_blank_lines_ignored(self):
        cfg = parse_config("! comment\n\nhostname X\n!\n")
        assert cfg.hostname == "X"
        assert cfg.config_lines == 1

    def test_shutdown_interface(self):
        cfg = parse_config("interface e0\n shutdown\n")
        assert cfg.interfaces["e0"].shutdown

    def test_reopening_router_bgp_keeps_state(self):
        cfg = parse_config(
            "router bgp 5\n neighbor 1.1.1.1 remote-as 6\n"
            "hostname Y\n"
            "router bgp 5\n neighbor 2.2.2.2 remote-as 7\n")
        assert len(cfg.bgp.neighbors) == 2
