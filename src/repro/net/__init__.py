"""Network model: devices, interfaces, policies, topology, IP utilities."""

from .builder import DeviceBuilder, NetworkBuilder
from .device import (
    BgpConfig,
    BgpNeighbor,
    DeviceConfig,
    Interface,
    OspfConfig,
    StaticRoute,
)
from .loader import load_config_texts, load_network, network_from_texts
from .policy import (
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
from .route import Route
from .topology import Edge, ExternalPeer, Network

__all__ = [
    "NetworkBuilder", "DeviceBuilder",
    "DeviceConfig", "Interface", "StaticRoute",
    "BgpConfig", "BgpNeighbor", "OspfConfig",
    "Acl", "AclRule", "PrefixList", "PrefixListEntry",
    "CommunityList", "RouteMap", "RouteMapClause", "PERMIT", "DENY",
    "Route", "Network", "Edge", "ExternalPeer",
    "load_config_texts", "load_network", "network_from_texts",
]
