"""Network topology: devices, internal links and external BGP peers.

Adjacency is derived the way Batfish does it: two interfaces that share an
IP subnet are connected.  A configured BGP neighbor address owned by no
internal device becomes a symbolic *external peer* — the environment whose
announcements the verifier ranges over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from .device import DeviceConfig, Interface

__all__ = ["Edge", "ExternalPeer", "Network"]


@dataclass(frozen=True)
class Edge:
    """A directed internal adjacency (every link yields two edges)."""

    source: str
    source_iface: str
    target: str
    target_iface: str

    @property
    def link_key(self) -> Tuple[str, str]:
        """Undirected identity of the underlying link."""
        a = (self.source, self.source_iface)
        b = (self.target, self.target_iface)
        return (a, b) if a <= b else (b, a)

    def reversed(self) -> "Edge":
        return Edge(self.target, self.target_iface,
                    self.source, self.source_iface)


@dataclass(frozen=True)
class ExternalPeer:
    """An eBGP neighbor outside the configured network."""

    name: str
    router: str                # internal device terminating the session
    router_iface: str
    peer_ip: int
    asn: int


class Network:
    """A parsed network: device configs plus derived topology."""

    def __init__(self, devices: Iterable[DeviceConfig]) -> None:
        self.devices: Dict[str, DeviceConfig] = {}
        for dev in devices:
            if dev.hostname in self.devices:
                raise ValueError(f"duplicate hostname {dev.hostname!r}")
            self.devices[dev.hostname] = dev
        self.edges: List[Edge] = []
        self.externals: List[ExternalPeer] = []
        self._neighbors: Dict[str, List[Edge]] = {}
        self._build_edges()
        self._build_externals()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def _build_edges(self) -> None:
        subnet_members: Dict[Tuple[int, int], List[Tuple[str, Interface]]]
        subnet_members = {}
        for name, dev in self.devices.items():
            for iface in dev.interfaces.values():
                if iface.shutdown or not iface.address:
                    continue
                subnet_members.setdefault(iface.subnet, []).append(
                    (name, iface))
        seen = set()
        for members in subnet_members.values():
            for i, (dev_a, if_a) in enumerate(members):
                for dev_b, if_b in members[i + 1:]:
                    if dev_a == dev_b:
                        continue
                    edge = Edge(dev_a, if_a.name, dev_b, if_b.name)
                    if edge.link_key in seen:
                        continue
                    seen.add(edge.link_key)
                    self._add_edge(edge)
                    self._add_edge(edge.reversed())

    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._neighbors.setdefault(edge.source, []).append(edge)

    def _build_externals(self) -> None:
        owned = {
            iface.address
            for dev in self.devices.values()
            for iface in dev.interfaces.values()
            if iface.address
        }
        counter = 0
        for name, dev in self.devices.items():
            if not dev.bgp:
                continue
            for nbr in dev.bgp.neighbors:
                if nbr.peer_ip in owned:
                    continue
                iface = dev.interface_for_subnet(nbr.peer_ip)
                if iface is None:
                    # Session can never come up; ignore (like a down peer).
                    continue
                counter += 1
                peer_name = nbr.description or f"ext-{name}-{counter}"
                self.externals.append(ExternalPeer(
                    name=peer_name,
                    router=name,
                    router_iface=iface.name,
                    peer_ip=nbr.peer_ip,
                    asn=nbr.remote_as,
                ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def device(self, name: str) -> DeviceConfig:
        return self.devices[name]

    @cached_property
    def ranks(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(routers, peers)``: each sender's rank, from 1, in the
        decision process's final tie-break (lower wins).  Routers go by
        router id, external peers by address, equal ids by name; two
        lookups, since a peer may share a router's name."""
        senders = sorted(
            [(dev.router_id, name, 0) for name, dev in self.devices.items()]
            + [(p.peer_ip, p.name, 1) for p in self.externals])
        ranks: Tuple[Dict[str, int], Dict[str, int]] = ({}, {})
        for rank, (_, name, is_peer) in enumerate(senders, start=1):
            ranks[is_peer][name] = rank
        return ranks

    def router_names(self) -> List[str]:
        return sorted(self.devices)

    def edges_from(self, router: str) -> List[Edge]:
        return list(self._neighbors.get(router, []))

    def edge_between(self, a: str, b: str) -> Optional[Edge]:
        for edge in self._neighbors.get(a, []):
            if edge.target == b:
                return edge
        return None

    def externals_at(self, router: str) -> List[ExternalPeer]:
        return [p for p in self.externals if p.router == router]

    def internal_links(self) -> List[Edge]:
        """One representative edge per undirected internal link."""
        seen = set()
        out = []
        for edge in self.edges:
            if edge.link_key in seen:
                continue
            seen.add(edge.link_key)
            out.append(edge)
        return out

    def peer_address_on(self, edge: Edge) -> Optional[int]:
        """The target-side interface address of an internal edge."""
        iface = self.devices[edge.target].interfaces.get(edge.target_iface)
        return iface.address if iface else None

    def device_owning(self, address: int) -> Optional[str]:
        for name, dev in self.devices.items():
            if dev.owns_address(address):
                return name
        return None

    def total_config_lines(self) -> int:
        return sum(dev.config_lines for dev in self.devices.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Network {len(self.devices)} devices, "
                f"{len(self.internal_links())} links, "
                f"{len(self.externals)} external peers>")
