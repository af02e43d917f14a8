"""Vendor-independent device model: the output of config parsing.

Plays the role of Batfish's vendor-independent representation in the
original system — both the symbolic encoder and the concrete simulator
consume these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import ip as iplib
from .policy import Acl, CommunityList, PrefixList, RouteMap

__all__ = [
    "Interface",
    "StaticRoute",
    "BgpNeighbor",
    "BgpConfig",
    "OspfConfig",
    "DeviceConfig",
]


@dataclass
class Interface:
    """A layer-3 interface with an address and optional ACLs."""

    name: str
    address: int = 0
    prefix_length: int = 0
    ospf_cost: int = 1
    acl_in: Optional[str] = None      # filters packets arriving here
    acl_out: Optional[str] = None     # filters packets leaving here
    is_management: bool = False
    shutdown: bool = False
    # Source spans (None for programmatically built configs).
    line: Optional[int] = None
    acl_in_line: Optional[int] = None
    acl_out_line: Optional[int] = None

    @property
    def network(self) -> int:
        return iplib.network_of(self.address, self.prefix_length)

    @property
    def subnet(self) -> Tuple[int, int]:
        return self.network, self.prefix_length


@dataclass
class StaticRoute:
    """``ip route NET MASK (NEXTHOP | IFACE | Null0)``."""

    network: int
    length: int
    next_hop_ip: Optional[int] = None
    interface: Optional[str] = None
    drop: bool = False                # Null0: explicit discard
    ad: int = 1
    line: Optional[int] = None


@dataclass
class BgpNeighbor:
    """One configured BGP session."""

    peer_ip: int
    remote_as: int
    route_map_in: Optional[str] = None
    route_map_out: Optional[str] = None
    route_reflector_client: bool = False
    description: str = ""
    line: Optional[int] = None
    route_map_in_line: Optional[int] = None
    route_map_out_line: Optional[int] = None


@dataclass
class BgpConfig:
    """``router bgp ASN`` stanza."""

    asn: int
    router_id: int = 0
    neighbors: List[BgpNeighbor] = field(default_factory=list)
    networks: List[Tuple[int, int]] = field(default_factory=list)
    redistribute: Dict[str, int] = field(default_factory=dict)  # per proto
    aggregates: List[Tuple[int, int]] = field(default_factory=list)
    multipath: bool = False
    med_mode: str = "always"  # "always" | "same-as" | "ignore" (§4 MED)
    line: Optional[int] = None
    router_id_line: Optional[int] = None

    def neighbor(self, peer_ip: int) -> Optional[BgpNeighbor]:
        for nbr in self.neighbors:
            if nbr.peer_ip == peer_ip:
                return nbr
        return None

    def is_internal(self, nbr: BgpNeighbor) -> bool:
        return nbr.remote_as == self.asn


@dataclass
class OspfConfig:
    """``router ospf PID`` stanza."""

    process_id: int = 1
    router_id: int = 0
    networks: List[Tuple[int, int, int]] = field(default_factory=list)
    redistribute: Dict[str, int] = field(default_factory=dict)  # per proto
    multipath: bool = False
    line: Optional[int] = None
    router_id_line: Optional[int] = None

    def covers(self, address: int) -> bool:
        """Is an interface address activated by a ``network`` statement?"""
        return any(iplib.prefix_contains(net, length, address)
                   for net, length, _area in self.networks)


@dataclass
class DeviceConfig:
    """Everything parsed from one router's configuration file."""

    hostname: str
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    acls: Dict[str, Acl] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    bgp: Optional[BgpConfig] = None
    ospf: Optional[OspfConfig] = None
    static_routes: List[StaticRoute] = field(default_factory=list)
    config_lines: int = 0             # size metric used by Figure 7
    source_file: str = ""             # where this config was parsed from
    hostname_line: Optional[int] = None

    @property
    def router_id(self) -> int:
        """Effective router id: configured, else highest interface address."""
        if self.bgp and self.bgp.router_id:
            return self.bgp.router_id
        if self.ospf and self.ospf.router_id:
            return self.ospf.router_id
        addresses = [i.address for i in self.interfaces.values() if i.address]
        return max(addresses, default=0)

    def delivers_locally(self, address: int) -> bool:
        """Does the device take a packet to ``address`` as its own?  Only
        an up interface does, as in the encoder's ``owns`` term."""
        return any(i.address == address and not i.shutdown
                   for i in self.interfaces.values())

    def interface_for_subnet(self, address: int) -> Optional[Interface]:
        """The interface whose connected subnet contains ``address``."""
        for iface in self.interfaces.values():
            if iface.shutdown or not iface.address:
                continue
            if iplib.prefix_contains(iface.network, iface.prefix_length,
                                     address):
                return iface
        return None

    def connected_prefixes(self) -> List[Tuple[int, int]]:
        return [iface.subnet for iface in self.interfaces.values()
                if iface.address and not iface.shutdown]

    def protocols(self) -> Set[str]:
        """Routing information sources configured on this device."""
        out = {"connected"}
        if self.bgp:
            out.add("bgp")
        if self.ospf:
            out.add("ospf")
        if self.static_routes:
            out.add("static")
        return out
