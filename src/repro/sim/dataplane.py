"""Data-plane forwarding over a converged control plane.

Traces concrete packets through the FIBs produced by the simulator,
applying interface ACLs on egress and ingress, branching at ECMP sets,
resolving recursive (iBGP) next hops, and classifying the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net import ip as iplib
from repro.net.route import Route
from repro.net.topology import Network
from .simulator import SimulationResult

__all__ = ["Packet", "Trace", "DataPlane",
           "DELIVERED", "EXITED", "NO_ROUTE", "NULL_ROUTED",
           "DROPPED_ACL", "LOOP"]

DELIVERED = "delivered"
EXITED = "exited"            # handed to an external BGP peer
NO_ROUTE = "no-route"        # black hole: no FIB entry
NULL_ROUTED = "null-routed"  # explicit discard (Null0)
DROPPED_ACL = "dropped-acl"
LOOP = "loop"


@dataclass(frozen=True)
class Packet:
    """A concrete data-plane packet (the fields of Figure 3)."""

    dst_ip: int
    src_ip: int = 0
    protocol: int = 0
    dst_port: int = 0
    src_port: int = 0

    @classmethod
    def to(cls, dst: str, **kwargs) -> "Packet":
        return cls(dst_ip=iplib.parse_ip(dst), **kwargs)


@dataclass(frozen=True)
class Trace:
    """One forwarding branch: the device path and its disposition."""

    path: Tuple[str, ...]
    disposition: str
    exit_peer: Optional[str] = None

    @property
    def delivered(self) -> bool:
        return self.disposition == DELIVERED

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class DataPlane:
    """Forwarding queries against one :class:`SimulationResult`."""

    def __init__(self, state: SimulationResult) -> None:
        self.state = state
        self.network: Network = state.network

    # ------------------------------------------------------------------

    def traces(self, start: str, packet: Packet,
               max_depth: int = 64) -> List[Trace]:
        """All ECMP forwarding branches of ``packet`` injected at ``start``."""
        out: List[Trace] = []
        self._walk(start, packet, (start,), out, max_depth)
        return out

    def reachable(self, start: str, packet: Packet) -> bool:
        """Is the packet delivered along *some* branch?"""
        return any(t.delivered for t in self.traces(start, packet))

    def reachable_all_paths(self, start: str, packet: Packet) -> bool:
        """Is the packet delivered along *every* branch (multipath
        consistency's notion of agreement)?"""
        branches = self.traces(start, packet)
        return bool(branches) and all(t.delivered for t in branches)

    def step(self, device: str,
             packet: Packet) -> Tuple[bool, Tuple[str, ...]]:
        """One forwarding step of ``packet`` at ``device``, every
        equal-cost branch included: whether the device delivers it, and
        the neighbors and external peers it hands the packet to.

        This is the one-hop view :meth:`traces` walks, with the hops a
        branch could not take left out (a missing or failed link, an
        ACL that drops the packet): the concrete counterpart of the
        encoder's ``local_deliver`` and ``datafwd`` terms.
        """
        if self.network.device(device).delivers_locally(packet.dst_ip):
            return True, ()
        delivered, targets = False, set()
        for route in self.state.fib_lookup(device, packet.dst_ip):
            kind, target = self._resolve(device, route, packet.dst_ip,
                                         depth=8)
            if kind == "local":
                target = self._subnet_target(device, packet.dst_ip)
                if target is None:
                    delivered = True
                    continue
            elif kind != "next":
                continue
            if target in self.network.devices:
                passes = self._crosses(device, target, packet)
            else:
                # As in traces(): only a routed exit checks the ACL.
                passes = kind == "local" or self._exits(device, target,
                                                        packet)
            if passes:
                targets.add(target)
        return delivered, tuple(sorted(targets))

    # ------------------------------------------------------------------

    def _crosses(self, device: str, target: str, packet: Packet) -> bool:
        """Can ``packet`` cross the link from ``device`` to ``target``
        (the link exists and is up, and both ACLs permit it)?"""
        edge = self.network.edge_between(device, target)
        return (edge is not None
                and not self.state.environment.link_failed(device, target)
                and self._acl_permits(device, edge.source_iface, "acl_out",
                                      packet)
                and self._acl_permits(target, edge.target_iface, "acl_in",
                                      packet))

    def _exits(self, device: str, peer_name: str, packet: Packet) -> bool:
        """Does the egress ACL toward ``device``'s external peer
        ``peer_name`` let ``packet`` out?"""
        peer = self.network.external(device, peer_name)
        return peer is None or self._acl_permits(
            device, peer.router_iface, "acl_out", packet)

    def _subnet_target(self, device: str, dst_ip: int) -> Optional[str]:
        """Where a connected route at ``device`` hands ``dst_ip``: the
        neighbor device or external peer owning it, or None for plain
        hosts on the subnet (delivered)."""
        owner = self.network.device_owning(dst_ip)
        if owner is not None and owner != device:
            return owner
        peer = self.network.external(device, dst_ip)
        return peer.name if peer else None

    def _walk(self, device: str, packet: Packet, path: Tuple[str, ...],
              out: List[Trace], depth: int) -> None:
        if depth <= 0:
            out.append(Trace(path, LOOP))
            return
        dev = self.network.device(device)
        if dev.delivers_locally(packet.dst_ip):
            out.append(Trace(path, DELIVERED))
            return
        routes = self.state.fib_lookup(device, packet.dst_ip)
        if not routes:
            out.append(Trace(path, NO_ROUTE))
            return
        for route in routes:
            self._follow(device, route, packet, path, out, depth)

    def _follow(self, device: str, route: Route, packet: Packet,
                path: Tuple[str, ...], out: List[Trace], depth: int) -> None:
        resolved = self._resolve(device, route, packet.dst_ip, depth=8)
        kind = resolved[0]
        if kind == "drop":
            out.append(Trace(path, NULL_ROUTED))
            return
        if kind == "unresolved":
            out.append(Trace(path, NO_ROUTE))
            return
        if kind == "local":
            target = self._subnet_target(device, packet.dst_ip)
            if target is None:
                out.append(Trace(path, DELIVERED))
            elif target in self.network.devices:
                self._hop(device, target, packet, path, out, depth)
            else:
                out.append(Trace(path, EXITED, exit_peer=target))
            return
        target = resolved[1]
        if target in self.network.devices:
            self._hop(device, target, packet, path, out, depth)
        elif self._exits(device, target, packet):
            out.append(Trace(path, EXITED, exit_peer=target))
        else:
            out.append(Trace(path, DROPPED_ACL))

    def _hop(self, device: str, target: str, packet: Packet,
             path: Tuple[str, ...], out: List[Trace], depth: int) -> None:
        if target in path:
            out.append(Trace(path + (target,), LOOP))
            return
        edge = self.network.edge_between(device, target)
        if edge is None or self.state.environment.link_failed(device, target):
            out.append(Trace(path, NO_ROUTE))
            return
        if not self._acl_permits(device, edge.source_iface, "acl_out",
                                 packet):
            out.append(Trace(path, DROPPED_ACL))
            return
        if not self._acl_permits(target, edge.target_iface, "acl_in",
                                 packet):
            out.append(Trace(path + (target,), DROPPED_ACL))
            return
        self._walk(target, packet, path + (target,), out, depth - 1)

    # ------------------------------------------------------------------

    def _resolve(self, device: str, route: Route, dst_ip: int,
                 depth: int) -> Tuple[str, Optional[str]]:
        """Resolve a FIB route to an immediate action.

        Returns ``("drop", None)``, ``("local", None)``,
        ``("next", neighbor_name)`` or ``("unresolved", None)``.
        Recursive (iBGP) next hops are resolved through the device's own
        FIB, per the paper's §4 recursive-lookup semantics.
        """
        if depth <= 0:
            return ("unresolved", None)
        if route.drop:
            return ("drop", None)
        if route.next_hop is None:
            return ("local", None)
        target = route.next_hop
        if target not in self.network.devices:
            return ("next", target)  # external peer
        if self.network.edge_between(device, target) is not None:
            return ("next", target)
        # Remote next hop: recursive resolution via the IGP route toward
        # the next-hop address.
        if route.next_hop_ip is None:
            return ("unresolved", None)
        underlying = self.state.fib_lookup(device, route.next_hop_ip)
        for candidate in underlying:
            if candidate is route:
                continue
            resolved = self._resolve(device, candidate, route.next_hop_ip,
                                     depth - 1)
            if resolved[0] == "next":
                return resolved
        return ("unresolved", None)

    def _acl_permits(self, device: str, iface_name: str, direction: str,
                     packet: Packet) -> bool:
        """Does the interface's ACL in ``direction`` (``"acl_in"`` or
        ``"acl_out"``) permit the packet?  No ACL permits; a reference
        to a missing ACL denies."""
        iface = self.network.device(device).interfaces.get(iface_name)
        acl_name = getattr(iface, direction, None)
        if acl_name is None:
            return True
        acl = self.network.device(device).acls.get(acl_name)
        if acl is None:
            return False
        return acl.permits(packet.dst_ip, packet.src_ip, packet.protocol,
                           packet.dst_port)
