"""Network topology: devices, internal links, BGP sessions, external peers.

Adjacency is derived the way Batfish does it: two interfaces that share an
IP subnet are connected.  Every interface address has one owner, the first
device (in ``Network.devices`` order) holding it, shut down or not.

Each BGP ``neighbor`` statement is resolved once, on first use, into a
:class:`Session`: the device owning the peer address, or else a symbolic
*external peer* on a connected subnet (the environment whose announcements
the verifier ranges over), or nothing when the session can never come up;
plus the adjacency toward the peer, the address the peer sees us by, and
the peer's reverse entry.  The encoder, the simulator, the data plane and the analyses all
read this one table; only liveness under link failures stays theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .device import BgpNeighbor, DeviceConfig, Interface

__all__ = ["Edge", "ExternalPeer", "Network", "Session"]


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


@dataclass(frozen=True)
class Session:
    """One ``neighbor`` statement of a router, resolved against the
    topology.

    ``peer`` is the internal device owning ``nbr.peer_ip``, the
    :class:`ExternalPeer` the statement reaches on a connected subnet,
    or ``None`` for a session that can never come up.  ``edge`` is the
    adjacency whose far interface holds ``nbr.peer_ip`` (``None`` for a
    multihop or external session); ``local_address`` is the address
    the peer sees this router by, and ``reverse`` the peer's neighbor
    entry for it (its export policy toward this router)."""

    nbr: BgpNeighbor
    peer: Union[str, ExternalPeer, None]
    internal: bool                # iBGP: same ASN on both ends
    edge: Optional[Edge]
    local_address: Optional[int]
    reverse: Optional[BgpNeighbor]

    @property
    def peer_device(self) -> Optional[str]:
        """The internal peer's name, or ``None``."""
        return self.peer if isinstance(self.peer, str) else None


class Network:
    """A parsed network: device configs plus derived topology."""

    def __init__(self, devices: Iterable[DeviceConfig]) -> None:
        self.devices: Dict[str, DeviceConfig] = {}
        for dev in devices:
            if dev.hostname in self.devices:
                raise ValueError(f"duplicate hostname {dev.hostname!r}")
            self.devices[dev.hostname] = dev
        self.edges: List[Edge] = []
        self._neighbors: Dict[str, List[Edge]] = {}
        self._owner: Dict[int, str] = {}
        for name, dev in self.devices.items():
            for iface in dev.interfaces.values():
                self._owner.setdefault(iface.address, name)
        self._edge_to: Dict[str, Dict[int, Edge]] = {}
        self._build_edges()

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
        self._edge_to.setdefault(edge.source, {}).setdefault(
            self.peer_address_on(edge), edge)

    @cached_property
    def _session_table(self) -> Tuple[
            Dict[str, Tuple[Session, ...]], List[ExternalPeer],
            Dict[Tuple[str, Union[str, int]], ExternalPeer]]:
        """``(sessions, externals, external)``: every router's sessions,
        every external peer, and the peers by ``(router, name)`` and
        ``(router, peer_ip)``; resolved in one pass on first use."""
        table: Dict[str, Tuple[Session, ...]] = {}
        externals: List[ExternalPeer] = []
        by_key: Dict[Tuple[str, Union[str, int]], ExternalPeer] = {}
        counter = 0
        for name, dev in self.devices.items():
            if not dev.bgp:
                continue
            sessions = []
            for nbr in dev.bgp.neighbors:
                peer: Union[str, ExternalPeer, None]
                peer = self._owner.get(nbr.peer_ip)
                iface = dev.interface_for_subnet(nbr.peer_ip)
                if peer is None and iface is not None:
                    counter += 1
                    peer = ExternalPeer(
                        name=nbr.description or f"ext-{name}-{counter}",
                        router=name,
                        router_iface=iface.name,
                        peer_ip=nbr.peer_ip,
                        asn=nbr.remote_as,
                    )
                    externals.append(peer)
                    by_key.setdefault((name, peer.name), peer)
                    by_key.setdefault((name, peer.peer_ip), peer)
                if iface is not None:
                    local = iface.address
                else:
                    local = next((i.address for i in dev.interfaces.values()
                                  if i.address), None)
                reverse = None
                if isinstance(peer, str) and local:
                    peer_bgp = self.devices[peer].bgp
                    reverse = peer_bgp.neighbor(local) if peer_bgp else None
                sessions.append(Session(
                    nbr=nbr,
                    peer=peer,
                    internal=dev.bgp.is_internal(nbr),
                    edge=self.edge_to(name, nbr.peer_ip),
                    local_address=local,
                    reverse=reverse,
                ))
            table[name] = tuple(sessions)
        return table, externals, by_key

    @property
    def externals(self) -> List[ExternalPeer]:
        """Every external peer, in neighbor statement order."""
        return self._session_table[1]

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

    def external(self, router: str,
                 key: Union[str, int]) -> Optional[ExternalPeer]:
        """The external peer of ``router`` named ``key`` (a str) or at
        address ``key`` (an int); the first such, in statement order."""
        return self._session_table[2].get((router, key))

    def sessions(self, router: str) -> Tuple[Session, ...]:
        """``router``'s BGP sessions, in ``neighbor`` statement order."""
        return self._session_table[0].get(router, ())

    def edge_to(self, router: str, address: int) -> Optional[Edge]:
        """The first adjacency from ``router`` whose far interface holds
        ``address``."""
        return self._edge_to.get(router, {}).get(address)

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
        """The first device, in ``devices`` order, with an interface
        (shut down or not) holding ``address``."""
        return self._owner.get(address)

    def total_config_lines(self) -> int:
        return sum(dev.config_lines for dev in self.devices.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Network {len(self.devices)} devices, "
                f"{len(self.internal_links())} links, "
                f"{len(self.externals)} external peers>")
