"""Concrete control-plane simulation to a routing fixpoint.

Plays the role Batfish plays for the original Minesweeper: given a network
and a single concrete :class:`Environment`, iterate synchronous rounds of
route origination, redistribution, export/import through policies and best
route selection until the routing state stops changing.  The result is a
per-device RIB/FIB from which :mod:`repro.sim.dataplane` answers forwarding
queries.

The fixpoint corresponds to one stable state of the control plane — the one
reached from cold start with simultaneous message delivery.  The symbolic
encoder reasons about *all* stable states; the integration tests exploit the
containment (every simulated state must satisfy properties the verifier
proves for all states).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.net import ip as iplib
from repro.net.device import DeviceConfig
from repro.net.route import (
    DEFAULT_AD,
    DEFAULT_LOCAL_PREF,
    IBGP_AD,
    MAX_OSPF_METRIC,
    PROTO_BGP,
    PROTO_CONNECTED,
    PROTO_OSPF,
    PROTO_STATIC,
    Route,
)
from repro.net.topology import ExternalPeer, Network, Session
from .decision import overall_best, select_best
from .environment import Environment

__all__ = ["ControlPlaneSimulator", "SimulationResult", "simulate"]

Prefix = Tuple[int, int]
Rib = Dict[str, Dict[Prefix, List[Route]]]       # protocol -> prefix -> best


@dataclass
class SimulationResult:
    """Converged routing state."""

    network: Network
    environment: Environment
    ribs: Dict[str, Rib]                         # device -> rib
    fibs: Dict[str, Dict[Prefix, List[Route]]]   # device -> prefix -> best
    converged: bool
    rounds: int

    def fib_lookup(self, device: str, dst_ip: int) -> List[Route]:
        """Longest-prefix-match FIB lookup."""
        return _longest_match(self.fibs.get(device, {}), dst_ip)


def _longest_match(table: Dict[Prefix, List[Route]],
                   dst_ip: int) -> List[Route]:
    """The routes of ``table``'s longest prefix containing ``dst_ip``
    (empty when none does)."""
    best_len = -1
    best: List[Route] = []
    for (network, length), routes in table.items():
        if length > best_len and iplib.prefix_contains(network, length,
                                                       dst_ip):
            best_len = length
            best = routes
    return best


class ControlPlaneSimulator:
    """Synchronous-round fixpoint computation."""

    def __init__(self, network: Network, environment: Environment,
                 max_rounds: int = 100) -> None:
        self.network = network
        self.env = environment
        self.max_rounds = max_rounds
        self._router_rank, self._peer_rank = network.ranks

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        ribs: Dict[str, Rib] = {
            name: {} for name in self.network.devices
        }
        fibs: Dict[str, Dict[Prefix, List[Route]]] = {
            name: {} for name in self.network.devices
        }
        converged = False
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            new_ribs: Dict[str, Rib] = {}
            for name, dev in self.network.devices.items():
                new_ribs[name] = self._device_rib(name, dev, ribs, fibs)
            new_fibs = {
                name: self._device_fib(rib) for name, rib in new_ribs.items()
            }
            if new_ribs == ribs and new_fibs == fibs:
                converged = True
                break
            ribs, fibs = new_ribs, new_fibs
        return SimulationResult(network=self.network, environment=self.env,
                                ribs=ribs, fibs=fibs, converged=converged,
                                rounds=rounds)

    # ------------------------------------------------------------------
    # Per-device computation for one round
    # ------------------------------------------------------------------

    def _device_rib(self, name: str, dev: DeviceConfig,
                    prev_ribs: Dict[str, Rib],
                    prev_fibs: Dict[str, Dict[Prefix, List[Route]]]) -> Rib:
        rib: Rib = {}
        rib[PROTO_CONNECTED] = self._connected_routes(dev)
        rib[PROTO_STATIC] = self._static_routes(name, dev)
        if dev.ospf:
            rib[PROTO_OSPF] = self._ospf_routes(name, dev, prev_ribs)
        if dev.bgp:
            rib[PROTO_BGP] = self._bgp_routes(name, dev, prev_ribs,
                                              prev_fibs)
        return rib

    def _device_fib(self, rib: Rib) -> Dict[Prefix, List[Route]]:
        prefixes: Set[Prefix] = set()
        for table in rib.values():
            prefixes.update(table)
        fib = {}
        for prefix in prefixes:
            groups = []
            for proto, table in rib.items():
                if prefix not in table:
                    continue
                routes = table[prefix]
                if proto in (PROTO_OSPF, PROTO_BGP):
                    # Origins and locally-redistributed routes (no next hop)
                    # are advertise-only: the device itself forwards with the
                    # source protocol's route, never the re-advertisement.
                    routes = [r for r in routes if r.next_hop is not None]
                if routes:
                    groups.append(routes)
            best = overall_best(groups)
            if best:
                fib[prefix] = best
        return fib

    # -- connected / static ---------------------------------------------

    def _connected_routes(self, dev: DeviceConfig) -> Dict[Prefix,
                                                           List[Route]]:
        out: Dict[Prefix, List[Route]] = {}
        for iface in dev.interfaces.values():
            if iface.shutdown or not iface.address:
                continue
            prefix = iface.subnet
            out[prefix] = [Route(network=prefix[0], length=prefix[1],
                                 protocol=PROTO_CONNECTED,
                                 ad=DEFAULT_AD[PROTO_CONNECTED])]
        return out

    def _static_routes(self, name: str,
                       dev: DeviceConfig) -> Dict[Prefix, List[Route]]:
        out: Dict[Prefix, List[Route]] = {}
        for static in dev.static_routes:
            prefix = (static.network, static.length)
            if static.drop:
                route = Route(network=static.network, length=static.length,
                              protocol=PROTO_STATIC, ad=static.ad, drop=True)
            elif static.interface is not None:
                iface = dev.interfaces.get(static.interface)
                if iface is None or iface.shutdown:
                    continue
                route = Route(network=static.network, length=static.length,
                              protocol=PROTO_STATIC, ad=static.ad)
            else:
                # Resolvable only if the next hop sits on a live local subnet.
                target = self._adjacent_target(name, dev, static.next_hop_ip)
                if target is None:
                    continue
                route = Route(network=static.network, length=static.length,
                              protocol=PROTO_STATIC, ad=static.ad,
                              next_hop=target, next_hop_ip=static.next_hop_ip)
            out.setdefault(prefix, [])
            out[prefix] = select_best(out[prefix] + [route])
        return out

    def _adjacent_target(self, name: str, dev: DeviceConfig,
                         next_hop_ip: Optional[int]) -> Optional[str]:
        """Neighbor (device or external peer) owning ``next_hop_ip`` on a
        live shared subnet."""
        if next_hop_ip is None:
            return None
        edge = self.network.edge_to(name, next_hop_ip)
        if edge is not None:
            failed = self.env.link_failed(edge.source, edge.target)
            return None if failed else edge.target
        peer = self.network.external(name, next_hop_ip)
        return peer.name if peer else None

    # -- OSPF -------------------------------------------------------------

    def _ospf_enabled_ifaces(self, dev: DeviceConfig):
        assert dev.ospf is not None
        return [iface for iface in dev.interfaces.values()
                if iface.address and not iface.shutdown
                and dev.ospf.covers(iface.address)]

    def _ospf_routes(self, name: str, dev: DeviceConfig,
                     prev_ribs: Dict[str, Rib]) -> Dict[Prefix, List[Route]]:
        candidates: Dict[Prefix, List[Route]] = {}

        def offer(route: Route) -> None:
            candidates.setdefault((route.network, route.length),
                                  []).append(route)

        own = self._router_rank[name]
        # Origins: subnets of OSPF-enabled interfaces.
        for iface in self._ospf_enabled_ifaces(dev):
            offer(Route(network=iface.network, length=iface.prefix_length,
                        protocol=PROTO_OSPF, ad=DEFAULT_AD[PROTO_OSPF],
                        metric=0, router_id=own))
        # Redistribution into OSPF from the previous round's other RIBs.
        my_prev = prev_ribs.get(name, {})
        # A Null0 static still redistributes (blackhole origination); only
        # the local forwarding behaviour discards.  Dynamic-protocol
        # sources redistribute their *learned* routes only (the routing
        # table), never their own advertise-only origins — same-router
        # redistribution feedback cannot re-inject routes.
        for proto, metric in dev.ospf.redistribute.items():
            for routes in my_prev.get(proto, {}).values():
                for route in routes:
                    if proto in (PROTO_OSPF, PROTO_BGP) \
                            and route.next_hop is None:
                        continue
                    offer(Route(network=route.network, length=route.length,
                                protocol=PROTO_OSPF,
                                ad=DEFAULT_AD[PROTO_OSPF],
                                metric=metric or 20, router_id=own))
        # Learned from OSPF neighbors over live, OSPF-enabled links.
        for edge in self.network.edges_from(name):
            if self.env.link_failed(edge.source, edge.target):
                continue
            local_iface = dev.interfaces[edge.source_iface]
            if not dev.ospf.covers(local_iface.address):
                continue
            peer_dev = self.network.device(edge.target)
            if peer_dev.ospf is None:
                continue
            remote_iface = peer_dev.interfaces[edge.target_iface]
            if not peer_dev.ospf.covers(remote_iface.address):
                continue
            peer_table = prev_ribs.get(edge.target, {}).get(PROTO_OSPF, {})
            for routes in peer_table.values():
                for route in routes:
                    metric = route.metric + local_iface.ospf_cost
                    if metric > MAX_OSPF_METRIC:
                        continue
                    offer(Route(
                        network=route.network, length=route.length,
                        protocol=PROTO_OSPF, ad=DEFAULT_AD[PROTO_OSPF],
                        metric=metric,
                        router_id=self._router_rank[edge.target],
                        next_hop=edge.target,
                        next_hop_ip=remote_iface.address,
                    ))
        return {
            prefix: select_best(group, multipath=dev.ospf.multipath)
            for prefix, group in candidates.items()
        }

    # -- BGP --------------------------------------------------------------

    def _bgp_routes(self, name: str, dev: DeviceConfig,
                    prev_ribs: Dict[str, Rib],
                    prev_fibs: Dict[str, Dict[Prefix, List[Route]]],
                    ) -> Dict[Prefix, List[Route]]:
        bgp = dev.bgp
        candidates: Dict[Prefix, List[Route]] = {}

        def offer(route: Route) -> None:
            candidates.setdefault((route.network, route.length),
                                  []).append(route)

        own = self._router_rank[name]
        # Origins from ``network`` statements.
        for network, length in bgp.networks:
            offer(Route(network=network, length=length, protocol=PROTO_BGP,
                        ad=DEFAULT_AD[PROTO_BGP],
                        local_pref=DEFAULT_LOCAL_PREF, metric=0,
                        router_id=own, originator=name))
        # Redistribution into BGP.
        my_prev = prev_ribs.get(name, {})
        for proto, metric in bgp.redistribute.items():
            for routes in my_prev.get(proto, {}).values():
                for route in routes:
                    if proto in (PROTO_OSPF, PROTO_BGP) \
                            and route.next_hop is None:
                        continue
                    offer(Route(network=route.network, length=route.length,
                                protocol=PROTO_BGP,
                                ad=DEFAULT_AD[PROTO_BGP],
                                local_pref=DEFAULT_LOCAL_PREF, metric=0,
                                med=metric, router_id=own, originator=name))
        # Per-session imports.
        for session in self.network.sessions(name):
            for route in self._session_imports(name, dev, session,
                                               prev_ribs, prev_fibs):
                offer(route)
        selected = {
            prefix: select_best(group, med_mode=bgp.med_mode,
                                multipath=bgp.multipath)
            for prefix, group in candidates.items()
        }
        # Aggregation (§4): a covered, selected route activates the
        # aggregate with a shortened prefix length.
        for agg_net, agg_len in bgp.aggregates:
            covered = [
                prefix for prefix in selected
                if prefix[1] > agg_len
                and iplib.prefix_contains(agg_net, agg_len, prefix[0])
            ]
            if covered:
                selected[(agg_net, agg_len)] = [Route(
                    network=agg_net, length=agg_len, protocol=PROTO_BGP,
                    ad=DEFAULT_AD[PROTO_BGP],
                    local_pref=DEFAULT_LOCAL_PREF, metric=0,
                    originator=name)]
        return selected

    def _session_imports(self, name: str, dev: DeviceConfig,
                         session: Session, prev_ribs: Dict[str, Rib],
                         prev_fibs: Dict[str, Dict[Prefix, List[Route]]],
                         ) -> List[Route]:
        if session.peer_device is not None:
            return self._import_from_device(name, dev, session,
                                            prev_ribs, prev_fibs)
        if session.peer is not None:
            return self._import_from_external(dev, session.nbr,
                                              session.peer)
        return []

    def _import_from_external(self, dev: DeviceConfig, nbr,
                              peer: ExternalPeer) -> List[Route]:
        iface = dev.interfaces[peer.router_iface]
        if iface.shutdown:
            return []
        out = []
        for ann in self.env.announcements_from(peer.name):
            if dev.bgp.asn in ann.as_path:
                continue  # eBGP loop prevention
            route = Route(
                network=ann.network, length=ann.length, protocol=PROTO_BGP,
                ad=DEFAULT_AD[PROTO_BGP], local_pref=DEFAULT_LOCAL_PREF,
                metric=len(ann.as_path), med=ann.med,
                router_id=self._peer_rank[peer.name], bgp_internal=False,
                next_hop=peer.name, next_hop_ip=peer.peer_ip,
                communities=ann.communities, as_path=ann.as_path,
            )
            route = self._apply_route_map(dev, nbr.route_map_in, route)
            if route is not None:
                out.append(route)
        return out

    def _import_from_device(self, name: str, dev: DeviceConfig,
                            session: Session, prev_ribs: Dict[str, Rib],
                            prev_fibs: Dict[str, Dict[Prefix, List[Route]]],
                            ) -> List[Route]:
        peer_name = session.peer_device
        peer_dev = self.network.device(peer_name)
        if peer_dev.bgp is None:
            return []
        nbr, internal = session.nbr, session.internal
        if not self._session_up(name, session, prev_fibs):
            return []
        # The peer's reverse session config (its export policy toward us).
        reverse = session.reverse
        out = []
        peer_table = prev_ribs.get(peer_name, {}).get(PROTO_BGP, {})
        for routes in peer_table.values():
            if not routes:
                continue
            route = routes[0]  # BGP exports only the best route
            exported = self._export_transform(peer_dev, reverse, route,
                                              internal, toward=name)
            if exported is None:
                continue
            imported = self._import_transform(dev, nbr, exported, internal,
                                              peer_name)
            if imported is not None:
                out.append(imported)
        return out

    def _session_up(self, name: str, session: Session,
                    prev_fibs: Dict[str, Dict[Prefix, List[Route]]]) -> bool:
        edge = session.edge
        if edge is not None:
            return not self.env.link_failed(edge.source, edge.target)
        if not session.internal:
            return False  # eBGP requires shared subnet in this model
        # Multihop iBGP: the peer address must be reachable in the previous
        # round's forwarding state (the recursive-lookup dependence of §4).
        return self._fib_reaches(name, session.nbr.peer_ip, prev_fibs)

    def _fib_reaches(self, start: str, dst_ip: int,
                     fibs: Dict[str, Dict[Prefix, List[Route]]],
                     max_hops: int = 64) -> bool:
        current = start
        for _ in range(max_hops):
            dev = self.network.device(current)
            if dev.delivers_locally(dst_ip):
                return True
            best = _longest_match(fibs.get(current, {}), dst_ip)
            if not best or best[0].drop:
                return False
            nxt = best[0].next_hop
            if nxt is None:
                # Connected subnet: delivered iff some neighbor owns it.
                owner = self.network.device_owning(dst_ip)
                return owner is not None
            if nxt not in self.network.devices:
                return False  # exits via an external peer
            edge = self.network.edge_between(current, nxt)
            if edge is not None and self.env.link_failed(current, nxt):
                return False
            current = nxt
        return False

    def _export_transform(self, peer_dev: DeviceConfig, reverse_nbr,
                          route: Route, internal: bool,
                          toward: str) -> Optional[Route]:
        """Apply the sender's export rules for one route (paper §3 step 6)."""
        from dataclasses import replace

        if route.drop:
            return None
        # iBGP-learned routes are not re-exported to iBGP peers, unless the
        # sender is a route reflector for this session.
        if internal and route.bgp_internal:
            is_reflector = reverse_nbr is not None and \
                reverse_nbr.route_reflector_client
            if not is_reflector:
                return None
            if route.originator == toward:
                return None  # never reflect back to the originator
        exported = route
        if reverse_nbr is not None and reverse_nbr.route_map_out:
            exported = self._apply_route_map(peer_dev,
                                             reverse_nbr.route_map_out,
                                             exported)
            if exported is None:
                return None
        if not internal:
            new_path = (peer_dev.bgp.asn,) + exported.as_path
            if len(new_path) > 255:
                return None  # AS-path overflow (§3 step 6)
            exported = replace(exported, as_path=new_path,
                               local_pref=DEFAULT_LOCAL_PREF,
                               med=0 if reverse_nbr is None
                               or not reverse_nbr.route_map_out
                               else exported.med)
        return exported

    def _import_transform(self, dev: DeviceConfig, nbr, route: Route,
                          internal: bool, peer_name: str) -> Optional[Route]:
        from dataclasses import replace

        if not internal and dev.bgp.asn in route.as_path:
            return None  # eBGP loop prevention
        session_ip = nbr.peer_ip
        imported = replace(
            route,
            ad=IBGP_AD if internal else DEFAULT_AD[PROTO_BGP],
            metric=len(route.as_path),
            bgp_internal=internal,
            router_id=self._router_rank[peer_name],
            next_hop=peer_name,
            next_hop_ip=session_ip,
            originator=route.originator if internal else peer_name,
        )
        if internal and not route.bgp_internal:
            # Entering the iBGP mesh: remember where.
            imported = replace(imported, originator=peer_name)
        if nbr.route_map_in:
            result = self._apply_route_map(dev, nbr.route_map_in, imported)
            return result
        return imported

    @staticmethod
    def _apply_route_map(dev: DeviceConfig, map_name: Optional[str],
                         route: Route) -> Optional[Route]:
        if map_name is None:
            return route
        rmap = dev.route_maps.get(map_name)
        if rmap is None:
            # Referencing a missing map blocks the session (matches the
            # encoder); strict mode raises instead of silently denying.
            from repro.analysis.hazards import dangling_reference

            dangling_reference(device=dev.hostname, kind="route-map",
                               name=map_name, context="BGP session")
            return None
        return rmap.evaluate(route, dev)


def simulate(network: Network,
             environment: Optional[Environment] = None,
             max_rounds: int = 100) -> SimulationResult:
    """Convenience wrapper: simulate ``network`` under ``environment``."""
    env = environment or Environment.empty()
    return ControlPlaneSimulator(network, env, max_rounds=max_rounds).run()
