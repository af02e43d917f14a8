"""Parser for the Cisco-IOS-like configuration language.

Line-oriented and stateful like real IOS configs: top-level commands open
blocks (``interface``, ``router bgp``, ``route-map`` ...) whose sub-commands
apply until the next top-level command.  Unknown lines raise
:class:`ConfigSyntaxError` with the offending line number — silently
skipping directives is how configuration checkers get false negatives.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net import ip as iplib
from repro.net.device import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    Interface,
    OspfConfig,
    StaticRoute,
)
from repro.net.policy import (
    Acl,
    AclRule,
    CommunityList,
    DENY,
    PERMIT,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)

__all__ = ["parse_config", "ConfigSyntaxError"]

_ACL_PROTOCOLS = {"ip": None, "tcp": 6, "udp": 17, "icmp": 1}


class ConfigSyntaxError(ValueError):
    """A configuration line the parser does not understand."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line.strip()!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


class _Parser:
    def __init__(self, text: str, source: str = "") -> None:
        self.config = DeviceConfig(hostname="unnamed", source_file=source)
        self.lines = text.splitlines()
        self.lineno = 0
        # Current open block: one of None, ("interface", Interface),
        # ("ospf",), ("bgp",), ("acl", name, rules),
        # ("route-map", name, clause-dict).
        self.block: Optional[tuple] = None

    def run(self) -> DeviceConfig:
        meaningful = 0
        for raw in self.lines:
            self.lineno += 1
            line = raw.rstrip()
            stripped = line.strip()
            if not stripped or stripped.startswith("!"):
                continue
            meaningful += 1
            indented = line[:1] in (" ", "\t")
            tokens = stripped.split()
            if indented and self.block is not None:
                self._sub_command(tokens, line)
            else:
                self._top_command(tokens, line)
        self._close_block()
        self.config.config_lines = meaningful
        return self.config

    # ------------------------------------------------------------------
    # Top-level commands
    # ------------------------------------------------------------------

    def _top_command(self, tokens: List[str], line: str) -> None:
        self._close_block()
        head = tokens[0]
        if head == "hostname":
            self.config.hostname = tokens[1]
            self.config.hostname_line = self.lineno
        elif head == "interface":
            iface = Interface(name=tokens[1], line=self.lineno)
            self.config.interfaces[iface.name] = iface
            self.block = ("interface", iface)
        elif head == "router" and tokens[1] == "ospf":
            self.config.ospf = self.config.ospf or OspfConfig(
                process_id=int(tokens[2]), line=self.lineno)
            self.block = ("ospf",)
        elif head == "router" and tokens[1] == "bgp":
            self.config.bgp = self.config.bgp or BgpConfig(
                asn=int(tokens[2]), line=self.lineno)
            self.block = ("bgp",)
        elif head == "ip" and tokens[1] == "route":
            self._parse_static(tokens)
        elif head == "ip" and tokens[1] == "prefix-list":
            self._parse_prefix_list(tokens, line)
        elif head == "ip" and tokens[1] == "community-list":
            self._parse_community_list(tokens, line)
        elif head == "ip" and tokens[1] == "access-list":
            # ip access-list extended NAME
            if tokens[2] != "extended":
                raise ConfigSyntaxError(self.lineno, line,
                                        "only extended named ACLs supported")
            self.block = ("acl", tokens[3], [])
        elif head == "access-list":
            self._parse_numbered_acl(tokens, line)
        elif head == "route-map":
            name, action, seq = tokens[1], tokens[2], int(tokens[3])
            if action not in (PERMIT, DENY):
                raise ConfigSyntaxError(self.lineno, line,
                                        "route-map action must be permit/deny")
            self.block = ("route-map", name,
                          {"seq": seq, "action": action,
                           "line": self.lineno})
        else:
            raise ConfigSyntaxError(self.lineno, line, "unknown command")

    # ------------------------------------------------------------------
    # Sub-commands
    # ------------------------------------------------------------------

    def _sub_command(self, tokens: List[str], line: str) -> None:
        kind = self.block[0]
        if kind == "interface":
            self._interface_sub(self.block[1], tokens, line)
        elif kind == "ospf":
            self._ospf_sub(tokens, line)
        elif kind == "bgp":
            self._bgp_sub(tokens, line)
        elif kind == "acl":
            self.block[2].append(self._parse_acl_rule(tokens, line))
        elif kind == "route-map":
            self._route_map_sub(self.block[2], tokens, line)
        else:  # pragma: no cover - defensive
            raise ConfigSyntaxError(self.lineno, line, "orphan sub-command")

    def _interface_sub(self, iface: Interface, tokens: List[str],
                       line: str) -> None:
        if tokens[:2] == ["ip", "address"]:
            iface.address = iplib.parse_ip(tokens[2])
            iface.prefix_length = iplib.mask_to_length(
                iplib.parse_ip(tokens[3]))
        elif tokens[:3] == ["ip", "ospf", "cost"]:
            cost = int(tokens[3])
            if not 1 <= cost <= 65535:
                raise ConfigSyntaxError(self.lineno, line,
                                        "OSPF cost must be in 1..65535")
            iface.ospf_cost = cost
        elif tokens[:2] == ["ip", "access-group"]:
            if tokens[3] == "in":
                iface.acl_in = tokens[2]
                iface.acl_in_line = self.lineno
            elif tokens[3] == "out":
                iface.acl_out = tokens[2]
                iface.acl_out_line = self.lineno
            else:
                raise ConfigSyntaxError(self.lineno, line,
                                        "access-group direction")
        elif tokens[0] == "description":
            if "management" in " ".join(tokens[1:]).lower():
                iface.is_management = True
        elif tokens[0] == "shutdown":
            iface.shutdown = True
        else:
            raise ConfigSyntaxError(self.lineno, line,
                                    "unknown interface sub-command")

    def _ospf_sub(self, tokens: List[str], line: str) -> None:
        ospf = self.config.ospf
        if tokens[0] == "router-id":
            ospf.router_id = iplib.parse_ip(tokens[1])
            ospf.router_id_line = self.lineno
        elif tokens[0] == "maximum-paths":
            ospf.multipath = int(tokens[1]) > 1
        elif tokens[0] == "redistribute":
            ospf.redistribute[tokens[1]] = self._redistribute_metric(
                tokens, line)
        elif tokens[0] == "network":
            network = iplib.parse_ip(tokens[1])
            length = iplib.wildcard_to_length(iplib.parse_ip(tokens[2]))
            if tokens[3] != "area":
                raise ConfigSyntaxError(self.lineno, line, "expected 'area'")
            ospf.networks.append((network, length, int(tokens[4])))
        else:
            raise ConfigSyntaxError(self.lineno, line,
                                    "unknown ospf sub-command")

    def _redistribute_metric(self, tokens: List[str], line: str) -> int:
        """The ``metric N`` of a redistribute line (0 when absent)."""
        if "metric" not in tokens:
            return 0
        metric = int(tokens[tokens.index("metric") + 1])
        # The encoder's metric field is 16 bits wide.
        if not 0 <= metric <= 65535:
            raise ConfigSyntaxError(self.lineno, line,
                                    "redistribute metric must be in 0..65535")
        return metric

    def _bgp_sub(self, tokens: List[str], line: str) -> None:
        bgp = self.config.bgp
        if tokens[:2] == ["bgp", "router-id"]:
            bgp.router_id = iplib.parse_ip(tokens[2])
            bgp.router_id_line = self.lineno
        elif tokens[:3] == ["bgp", "bestpath", "med"]:
            if tokens[3] not in ("always", "same-as", "ignore"):
                raise ConfigSyntaxError(self.lineno, line, "bad med mode")
            bgp.med_mode = tokens[3]
        elif tokens[0] == "maximum-paths":
            bgp.multipath = int(tokens[1]) > 1
        elif tokens[0] == "network":
            network = iplib.parse_ip(tokens[1])
            if len(tokens) >= 4 and tokens[2] == "mask":
                length = iplib.mask_to_length(iplib.parse_ip(tokens[3]))
            else:
                length = 24  # classful-ish default for short form
            bgp.networks.append((network, length))
        elif tokens[0] == "aggregate-address":
            network = iplib.parse_ip(tokens[1])
            length = iplib.mask_to_length(iplib.parse_ip(tokens[2]))
            bgp.aggregates.append((network, length))
        elif tokens[0] == "redistribute":
            bgp.redistribute[tokens[1]] = self._redistribute_metric(
                tokens, line)
        elif tokens[0] == "neighbor":
            self._bgp_neighbor_sub(bgp, tokens, line)
        else:
            raise ConfigSyntaxError(self.lineno, line,
                                    "unknown bgp sub-command")

    def _bgp_neighbor_sub(self, bgp: BgpConfig, tokens: List[str],
                          line: str) -> None:
        peer_ip = iplib.parse_ip(tokens[1])
        nbr = bgp.neighbor(peer_ip)
        command = tokens[2]
        if command == "remote-as":
            if nbr is None:
                bgp.neighbors.append(BgpNeighbor(peer_ip=peer_ip,
                                                 remote_as=int(tokens[3]),
                                                 line=self.lineno))
            else:
                nbr.remote_as = int(tokens[3])
            return
        if nbr is None:
            raise ConfigSyntaxError(self.lineno, line,
                                    "neighbor needs remote-as first")
        if command == "route-map":
            if tokens[4] == "in":
                nbr.route_map_in = tokens[3]
                nbr.route_map_in_line = self.lineno
            elif tokens[4] == "out":
                nbr.route_map_out = tokens[3]
                nbr.route_map_out_line = self.lineno
            else:
                raise ConfigSyntaxError(self.lineno, line,
                                        "route-map direction")
        elif command == "route-reflector-client":
            nbr.route_reflector_client = True
        elif command == "description":
            nbr.description = " ".join(tokens[3:])
        else:
            raise ConfigSyntaxError(self.lineno, line,
                                    "unknown neighbor sub-command")

    def _route_map_sub(self, clause: dict, tokens: List[str],
                       line: str) -> None:
        if tokens[:4] == ["match", "ip", "address", "prefix-list"]:
            clause["match_prefix_list"] = tokens[4]
        elif tokens[:2] == ["match", "community"]:
            clause["match_community_list"] = tokens[2]
        elif tokens[:2] == ["set", "local-preference"]:
            clause["set_local_pref"] = int(tokens[2])
        elif tokens[:2] == ["set", "metric"]:
            clause["set_metric"] = int(tokens[2])
        elif tokens[:2] == ["set", "med"]:
            clause["set_med"] = int(tokens[2])
        elif tokens[:2] == ["set", "community"]:
            comms = [t for t in tokens[2:] if t != "additive"]
            clause["add_communities"] = tuple(comms)
        elif tokens[:2] == ["set", "comm-list-delete"]:
            clause["delete_communities"] = tuple(tokens[2:])
        else:
            raise ConfigSyntaxError(self.lineno, line,
                                    "unknown route-map sub-command")

    # ------------------------------------------------------------------
    # One-line directives
    # ------------------------------------------------------------------

    def _parse_static(self, tokens: List[str]) -> None:
        network = iplib.parse_ip(tokens[2])
        length = iplib.mask_to_length(iplib.parse_ip(tokens[3]))
        target = tokens[4]
        route = StaticRoute(network=network, length=length,
                            line=self.lineno)
        if target.lower() == "null0":
            route.drop = True
        elif target[0].isdigit():
            route.next_hop_ip = iplib.parse_ip(target)
        else:
            route.interface = target
        self.config.static_routes.append(route)

    def _parse_prefix_list(self, tokens: List[str], line: str) -> None:
        # ip prefix-list NAME [seq N] permit|deny P/L [ge N] [le N]
        rest = tokens[2:]
        name = rest[0]
        rest = rest[1:]
        if rest[0] == "seq":
            rest = rest[2:]
        action = rest[0]
        if action not in (PERMIT, DENY):
            raise ConfigSyntaxError(self.lineno, line,
                                    "prefix-list action must be permit/deny")
        network, length = iplib.parse_prefix(rest[1])
        ge = le = None
        rest = rest[2:]
        while rest:
            if rest[0] == "ge":
                ge = int(rest[1])
            elif rest[0] == "le":
                le = int(rest[1])
            else:
                raise ConfigSyntaxError(self.lineno, line,
                                        "unknown prefix-list modifier")
            rest = rest[2:]
        entry = PrefixListEntry(action=action, network=network,
                                length=length, ge=ge, le=le,
                                line=self.lineno)
        existing = self.config.prefix_lists.get(name)
        entries = (existing.entries if existing else ()) + (entry,)
        first_line = existing.line if existing else self.lineno
        self.config.prefix_lists[name] = PrefixList(name=name,
                                                    entries=entries,
                                                    line=first_line)

    def _parse_community_list(self, tokens: List[str], line: str) -> None:
        # ip community-list standard NAME permit|deny COMM...
        if tokens[2] != "standard":
            raise ConfigSyntaxError(self.lineno, line,
                                    "only standard community-lists supported")
        name, action = tokens[3], tokens[4]
        self.config.community_lists[name] = CommunityList(
            name=name, action=action, communities=tuple(tokens[5:]),
            line=self.lineno)

    def _parse_numbered_acl(self, tokens: List[str], line: str) -> None:
        # access-list NUM permit|deny ip DST WILDCARD   (paper's form: the
        # single address matches the packet's destination)
        name = tokens[1]
        rule_tokens = tokens[2:]
        rule = self._parse_acl_rule(rule_tokens, line)
        existing = self.config.acls.get(name)
        rules = (existing.rules if existing else ()) + (rule,)
        first_line = existing.line if existing else self.lineno
        self.config.acls[name] = Acl(name=name, rules=rules,
                                     line=first_line)

    def _parse_acl_rule(self, tokens: List[str], line: str) -> AclRule:
        action = tokens[0]
        if action not in (PERMIT, DENY):
            raise ConfigSyntaxError(self.lineno, line,
                                    "ACL action must be permit/deny")
        proto_name = tokens[1]
        if proto_name not in _ACL_PROTOCOLS:
            raise ConfigSyntaxError(self.lineno, line,
                                    f"unknown protocol {proto_name!r}")
        protocol = _ACL_PROTOCOLS[proto_name]
        rest = tokens[2:]
        # Two accepted shapes: "SRC DST [ports]" (full IOS form) and the
        # paper's short form "DST [ports]" with source implied any.  After
        # consuming one address spec, a following address spec means the
        # first one was the source.
        first, rest = self._parse_acl_address(rest, line)
        if rest and (rest[0] == "any" or rest[0][0].isdigit()):
            src = first
            dst, rest = self._parse_acl_address(rest, line)
        else:
            src = (None, 0)
            dst = first
        port_low = port_high = None
        if rest:
            if rest[0] == "eq":
                port_low = port_high = int(rest[1])
                rest = rest[2:]
            elif rest[0] == "range":
                port_low, port_high = int(rest[1]), int(rest[2])
                rest = rest[3:]
        if rest:
            raise ConfigSyntaxError(self.lineno, line,
                                    "trailing tokens in ACL rule")
        dst_network = dst[0] if dst[0] is not None else 0
        return AclRule(
            action=action,
            dst_network=dst_network,
            dst_length=dst[1],
            src_network=src[0],
            src_length=src[1],
            protocol=protocol,
            dst_port_low=port_low,
            dst_port_high=port_high,
            line=self.lineno,
        )

    def _parse_acl_address(self, rest: List[str], line: str):
        if not rest:
            raise ConfigSyntaxError(self.lineno, line,
                                    "missing address in ACL rule")
        if rest[0] == "any":
            return (None, 0), rest[1:]
        if len(rest) < 2:
            raise ConfigSyntaxError(self.lineno, line,
                                    "missing wildcard in ACL rule")
        network = iplib.parse_ip(rest[0])
        length = iplib.wildcard_to_length(iplib.parse_ip(rest[1]))
        return (iplib.network_of(network, length), length), rest[2:]

    # ------------------------------------------------------------------

    def _close_block(self) -> None:
        if self.block is None:
            return
        kind = self.block[0]
        if kind == "acl":
            _, name, rules = self.block
            existing = self.config.acls.get(name)
            merged = (existing.rules if existing else ()) + tuple(rules)
            first = rules[0].line if rules else self.lineno
            first_line = existing.line if existing else first
            self.config.acls[name] = Acl(name=name, rules=merged,
                                         line=first_line)
        elif kind == "route-map":
            _, name, fields = self.block
            clause = RouteMapClause(
                seq=fields["seq"],
                action=fields["action"],
                match_prefix_list=fields.get("match_prefix_list"),
                match_community_list=fields.get("match_community_list"),
                set_local_pref=fields.get("set_local_pref"),
                set_metric=fields.get("set_metric"),
                set_med=fields.get("set_med"),
                add_communities=fields.get("add_communities", ()),
                delete_communities=fields.get("delete_communities", ()),
                line=fields.get("line"),
            )
            existing = self.config.route_maps.get(name)
            clauses = (existing.clauses if existing else ()) + (clause,)
            first_line = existing.line if existing else clause.line
            self.config.route_maps[name] = RouteMap(name=name,
                                                    clauses=clauses,
                                                    line=first_line)
        self.block = None


def parse_config(text: str, source: str = "") -> DeviceConfig:
    """Parse one device's configuration text.

    ``source`` (usually a file name) is recorded on the returned config so
    diagnostics can carry ``file:line`` spans.
    """
    return _Parser(text, source=source).run()
