"""Syntactic and cross-reference lint rules.

Rule ids are stable API: tests, docs and downstream tooling key on them.
The catalog lives in ``docs/ANALYSIS.md``; keep the two in sync.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.net import ip as iplib
from repro.net.device import DeviceConfig
from repro.net.topology import Network

from .diagnostics import Severity
from .registry import Finding, ParsedConfig, rule

__all__: List[str] = []


# ----------------------------------------------------------------------
# Device-scope: dangling references
# ----------------------------------------------------------------------


@rule("REF001", "undefined route-map reference", Severity.ERROR, "device")
def undefined_route_map(device: DeviceConfig) -> Iterator[Finding]:
    """A BGP neighbor applies a route-map that is not defined.

    The encoder treats a missing map as permit-all (paper semantics for
    "no policy") while operators usually intended a filter — a typo'd
    name silently opens the session.
    """
    if not device.bgp:
        return
    for nbr in device.bgp.neighbors:
        peer = iplib.format_ip(nbr.peer_ip)
        for attr, line_attr, direction in (
            ("route_map_in", "route_map_in_line", "in"),
            ("route_map_out", "route_map_out_line", "out"),
        ):
            name = getattr(nbr, attr)
            if name is not None and name not in device.route_maps:
                yield Finding(
                    message=(
                        f"neighbor {peer} applies undefined "
                        f"route-map {name!r} ({direction})"
                    ),
                    device=device.hostname,
                    line=getattr(nbr, line_attr) or nbr.line,
                )


@rule("REF002", "undefined prefix-list reference", Severity.ERROR, "device")
def undefined_prefix_list(device: DeviceConfig) -> Iterator[Finding]:
    """A route-map clause matches on a prefix-list that is not defined.

    Both encoder and simulator treat the clause as never matching, so
    the route falls through to later clauses — almost never what the
    author meant.
    """
    for rmap in device.route_maps.values():
        for clause in rmap.clauses:
            name = clause.match_prefix_list
            if name is not None and name not in device.prefix_lists:
                yield Finding(
                    message=(
                        f"route-map {rmap.name!r} seq {clause.seq} "
                        f"matches undefined prefix-list {name!r}"
                    ),
                    device=device.hostname,
                    line=clause.line,
                )


@rule("REF003", "undefined community-list reference", Severity.ERROR, "device")
def undefined_community_list(device: DeviceConfig) -> Iterator[Finding]:
    """A route-map clause matches on a community-list that is not defined."""
    for rmap in device.route_maps.values():
        for clause in rmap.clauses:
            name = clause.match_community_list
            if name is not None and name not in device.community_lists:
                yield Finding(
                    message=(
                        f"route-map {rmap.name!r} seq {clause.seq} "
                        f"matches undefined community-list {name!r}"
                    ),
                    device=device.hostname,
                    line=clause.line,
                )


@rule("REF004", "undefined ACL reference", Severity.ERROR, "device")
def undefined_acl(device: DeviceConfig) -> Iterator[Finding]:
    """An interface applies an access-group that names no configured ACL.

    The data plane treats a missing ACL as permit-all, silently
    disabling the intended packet filter.
    """
    for iface in device.interfaces.values():
        for attr, line_attr, direction in (
            ("acl_in", "acl_in_line", "in"),
            ("acl_out", "acl_out_line", "out"),
        ):
            name = getattr(iface, attr)
            if name is not None and name not in device.acls:
                yield Finding(
                    message=(
                        f"interface {iface.name} applies undefined "
                        f"ACL {name!r} ({direction})"
                    ),
                    device=device.hostname,
                    line=getattr(iface, line_attr) or iface.line,
                )


# ----------------------------------------------------------------------
# Device-scope: policy hygiene
# ----------------------------------------------------------------------


@rule("POL001", "defined but unused policy object", Severity.WARNING, "device")
def unused_policy(device: DeviceConfig) -> Iterator[Finding]:
    """A route-map, prefix-list, community-list or ACL is never applied.

    Dead policy is a maintenance hazard: edits to it look meaningful
    but change nothing.
    """
    used_maps: Set[str] = set()
    if device.bgp:
        for nbr in device.bgp.neighbors:
            if nbr.route_map_in:
                used_maps.add(nbr.route_map_in)
            if nbr.route_map_out:
                used_maps.add(nbr.route_map_out)
    used_plists: Set[str] = set()
    used_clists: Set[str] = set()
    for rmap in device.route_maps.values():
        for clause in rmap.clauses:
            if clause.match_prefix_list:
                used_plists.add(clause.match_prefix_list)
            if clause.match_community_list:
                used_clists.add(clause.match_community_list)
    used_acls: Set[str] = set()
    for iface in device.interfaces.values():
        if iface.acl_in:
            used_acls.add(iface.acl_in)
        if iface.acl_out:
            used_acls.add(iface.acl_out)
    for kind, defined, used in (
        ("route-map", device.route_maps, used_maps),
        ("prefix-list", device.prefix_lists, used_plists),
        ("community-list", device.community_lists, used_clists),
        ("ACL", device.acls, used_acls),
    ):
        for name in sorted(set(defined) - used):
            yield Finding(
                message=f"{kind} {name!r} is defined but never used",
                device=device.hostname,
                line=defined[name].line,
            )


@rule(
    "POL002", "duplicate route-map sequence number", Severity.WARNING, "device"
)
def duplicate_route_map_seq(device: DeviceConfig) -> Iterator[Finding]:
    """Two clauses of one route-map share a sequence number.

    Evaluation order between them is undefined on real devices; here
    the clause listed first wins, which may not match the router.
    """
    for rmap in device.route_maps.values():
        seen: Dict[int, int] = {}
        for clause in rmap.clauses:
            if clause.seq in seen:
                yield Finding(
                    message=(
                        f"route-map {rmap.name!r} repeats sequence "
                        f"number {clause.seq}"
                    ),
                    device=device.hostname,
                    line=clause.line,
                )
            else:
                seen[clause.seq] = clause.line or 0


@rule("STA001", "unresolvable static route", Severity.WARNING, "device")
def unresolvable_static(device: DeviceConfig) -> Iterator[Finding]:
    """A static route's next-hop is not reachable from this device.

    The next-hop IP lies in no connected subnet, or the named exit
    interface does not exist; the route can never be installed.
    """
    for sroute in device.static_routes:
        prefix = iplib.format_prefix(sroute.network, sroute.length)
        if sroute.drop:
            continue
        if sroute.interface is not None:
            if sroute.interface not in device.interfaces:
                yield Finding(
                    message=(
                        f"static route {prefix} exits via undefined "
                        f"interface {sroute.interface!r}"
                    ),
                    device=device.hostname,
                    line=sroute.line,
                )
        elif sroute.next_hop_ip is not None:
            if device.interface_for_subnet(sroute.next_hop_ip) is None:
                hop = iplib.format_ip(sroute.next_hop_ip)
                yield Finding(
                    message=(
                        f"static route {prefix} has next-hop {hop} "
                        "in no connected subnet"
                    ),
                    device=device.hostname,
                    line=sroute.line,
                )


@rule("CFG001", "missing hostname", Severity.WARNING, "device")
def missing_hostname(device: DeviceConfig) -> Iterator[Finding]:
    """The config has no ``hostname`` directive.

    The device gets the placeholder name ``unnamed``; a second such
    config collides (see TOP005).
    """
    if device.hostname == "unnamed" and device.hostname_line is None:
        yield Finding(
            message="config has no hostname directive",
            device=device.hostname,
            line=1,
        )


# ----------------------------------------------------------------------
# Network-scope: cross-device consistency
# ----------------------------------------------------------------------


@rule("TOP001", "asymmetric BGP session", Severity.WARNING, "network")
def bgp_asymmetry(network: Network) -> Iterator[Finding]:
    """A BGP session is configured on one side only.

    The neighbor address belongs to an internal device that has no
    session back; the session never establishes.
    """
    for name in network.router_names():
        for session in network.sessions(name):
            nbr, peer_name = session.nbr, session.peer_device
            if peer_name is None or peer_name == name:
                continue  # external peer: environment's job
            peer_dev = network.device(peer_name)
            reciprocal = peer_dev.bgp is not None and any(
                network.device_owning(back.peer_ip) == name
                for back in peer_dev.bgp.neighbors
            )
            if not reciprocal:
                peer = iplib.format_ip(nbr.peer_ip)
                yield Finding(
                    message=(
                        f"BGP session to {peer} ({peer_name}) is not "
                        f"configured on {peer_name}"
                    ),
                    device=name,
                    line=nbr.line,
                )


@rule("TOP002", "BGP remote-as mismatch", Severity.ERROR, "network")
def remote_as_mismatch(network: Network) -> Iterator[Finding]:
    """``neighbor ... remote-as`` disagrees with the peer's actual ASN.

    The OPEN negotiation fails and the session never establishes.
    """
    for name in network.router_names():
        for session in network.sessions(name):
            nbr, peer_name = session.nbr, session.peer_device
            if peer_name is None or peer_name == name:
                continue
            peer_bgp = network.device(peer_name).bgp
            if peer_bgp is not None and nbr.remote_as != peer_bgp.asn:
                peer = iplib.format_ip(nbr.peer_ip)
                yield Finding(
                    message=(
                        f"neighbor {peer} ({peer_name}) declared as "
                        f"AS {nbr.remote_as} but {peer_name} runs "
                        f"AS {peer_bgp.asn}"
                    ),
                    device=name,
                    line=nbr.line,
                )


@rule("TOP003", "interface subnet mismatch", Severity.WARNING, "network")
def subnet_mismatch(network: Network) -> Iterator[Finding]:
    """Two interfaces' subnets overlap without being identical.

    Identical subnets form a link (or LAN); overlapping-but-different
    masks mean one side was misconfigured and the link never forms.
    """
    by_subnet: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
    details: Dict[Tuple[str, str], int] = {}
    for name in network.router_names():
        for iface in network.device(name).interfaces.values():
            if iface.shutdown or not iface.address:
                continue
            by_subnet.setdefault(iface.subnet, []).append((name, iface.name))
            details[(name, iface.name)] = iface.line or 0
    reported = set()
    for (net, length), members in sorted(by_subnet.items()):
        # Any strict ancestor prefix that is also someone's subnet
        # overlaps this one.
        for shorter in range(length):
            ancestor = (iplib.network_of(net, shorter), shorter)
            for other in by_subnet.get(ancestor, ()):
                for mine in members:
                    if other[0] == mine[0]:
                        continue  # same device: not a link mismatch
                    key = tuple(sorted((mine, other)))
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Finding(
                        message=(
                            f"{mine[0]}:{mine[1]} "
                            f"({iplib.format_prefix(net, length)}) "
                            f"overlaps {other[0]}:{other[1]} "
                            f"({iplib.format_prefix(*ancestor)}) "
                            "with a different mask"
                        ),
                        device=mine[0],
                        line=details.get(mine) or None,
                    )


@rule("TOP004", "duplicate router-id", Severity.ERROR, "network")
def duplicate_router_id(network: Network) -> Iterator[Finding]:
    """Two devices configure the same nonzero router-id.

    OSPF adjacencies flap and BGP identifies both routers as one
    speaker.
    """
    seen: Dict[int, str] = {}
    for name in network.router_names():
        dev = network.device(name)
        for proto in (dev.bgp, dev.ospf):
            if proto is None or not proto.router_id:
                continue
            rid = proto.router_id
            if rid in seen and seen[rid] != name:
                yield Finding(
                    message=(
                        f"router-id {iplib.format_ip(rid)} is also "
                        f"configured on {seen[rid]}"
                    ),
                    device=name,
                    line=proto.router_id_line or proto.line,
                )
            else:
                seen.setdefault(rid, name)


@rule("TOP006", "duplicate interface address", Severity.ERROR, "network")
def duplicate_address(network: Network) -> Iterator[Finding]:
    """One IP address is configured on interfaces of two devices."""
    seen: Dict[int, Tuple[str, str]] = {}
    for name in network.router_names():
        for iface in network.device(name).interfaces.values():
            if not iface.address or iface.shutdown:
                continue
            prior = seen.get(iface.address)
            if prior is not None and prior[0] != name:
                addr = iplib.format_ip(iface.address)
                yield Finding(
                    message=(
                        f"address {addr} on {iface.name} is also "
                        f"configured on {prior[0]}:{prior[1]}"
                    ),
                    device=name,
                    line=iface.line,
                )
            else:
                seen.setdefault(iface.address, (name, iface.name))


# ----------------------------------------------------------------------
# Configs-scope: pre-topology checks on the raw file set
# ----------------------------------------------------------------------


@rule("SYN001", "configuration syntax error", Severity.ERROR, "configs")
def syntax_error(parsed: List[ParsedConfig]) -> Iterator[Finding]:
    """A config file failed to parse."""
    for entry in parsed:
        if entry.error is not None:
            yield Finding(
                message=str(entry.error),
                file=entry.filename,
                line=entry.error_line,
            )


@rule("TOP005", "duplicate hostname", Severity.ERROR, "configs")
def duplicate_hostname(parsed: List[ParsedConfig]) -> Iterator[Finding]:
    """Two config files declare the same hostname.

    The topology loader refuses such a file set; report every file
    after the first with the colliding name.
    """
    seen: Dict[str, str] = {}
    for entry in parsed:
        if entry.config is None:
            continue
        host = entry.config.hostname
        if host in seen:
            yield Finding(
                message=(
                    f"hostname {host!r} is also declared in {seen[host]}"
                ),
                device=host,
                file=entry.filename,
                line=entry.config.hostname_line or 1,
            )
        else:
            seen[host] = entry.filename
