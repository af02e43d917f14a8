"""Concrete route advertisements, shared by the simulator and policy code.

This is the concrete counterpart of the paper's symbolic control-plane
record (Figure 3): destination prefix, administrative distance, BGP local
preference, protocol metric, MED, neighbor router id, iBGP flag, plus
communities and the AS-path/cluster bookkeeping needed for loop prevention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from . import ip as iplib

__all__ = ["Route", "PROTO_CONNECTED", "PROTO_STATIC", "PROTO_OSPF",
           "PROTO_BGP", "DEFAULT_AD", "DEFAULT_LOCAL_PREF",
           "MAX_OSPF_METRIC"]

PROTO_CONNECTED = "connected"
PROTO_STATIC = "static"
PROTO_OSPF = "ospf"
PROTO_BGP = "bgp"

# Cisco default administrative distances.
DEFAULT_AD = {
    PROTO_CONNECTED: 0,
    PROTO_STATIC: 1,
    PROTO_BGP: 20,       # eBGP
    PROTO_OSPF: 110,
}
IBGP_AD = 200
DEFAULT_LOCAL_PREF = 100
# The OSPF metric is 16 bits wide: a path costing more is unusable.
MAX_OSPF_METRIC = 65535


@dataclass(frozen=True)
class Route:
    """A concrete route to ``network/length``."""

    network: int
    length: int
    protocol: str = PROTO_CONNECTED
    ad: int = 0
    local_pref: int = DEFAULT_LOCAL_PREF
    metric: int = 0
    med: int = 0
    router_id: int = 0
    bgp_internal: bool = False
    next_hop: Optional[str] = None        # neighbor device/peer name
    next_hop_ip: Optional[int] = None
    communities: FrozenSet[str] = frozenset()
    as_path: Tuple[int, ...] = ()
    originator: Optional[str] = None      # route-reflector originator
    drop: bool = False                    # Null0 static: explicit discard

    def covers(self, address: int) -> bool:
        """Longest-prefix-match containment test."""
        return iplib.prefix_contains(self.network, self.length, address)
