"""Queries whose verdict the network fixes without an encoding.

The encoder answers a query over every stable state of every
environment.  Two kinds of query have a verdict that is fixed before
any formula is built, and :func:`fixed_verdict` is the one rule that
recognises them:

* **A loop query with no pivot.**  ``NoForwardingLoops`` with its
  default candidates pivots the routers of
  :func:`~repro.analysis.dataflow.loop_candidates`; when there are
  none the property encodes ``TRUE``, so it holds at any failure bound
  and for any prefix.
* **Forwarding on a prefix with one stable state.**  ``Reachability``
  to a prefix and ``NoBlackHoles`` at k=0 on a network whose routing
  for the prefix has exactly one stable state, the same in every
  environment.  That state is the simulator's fixpoint
  (:func:`stable_state`), and :class:`~repro.sim.DataPlane` answers
  the property on it exactly, one representative packet per packet
  class.

DESIGN.md ("Deciding queries without an encoding") argues why the
conditions checked here are enough.  The rule errs towards ``None``:
any configuration feature outside the argument sends the query to the
SAT encoding as before.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net import ip as iplib
from repro.net.device import DeviceConfig
from repro.net.policy import PERMIT, PrefixList, RouteMapClause
from repro.net.topology import Network

from .dataflow import loop_candidates

__all__ = ["Decision", "fixed_verdict", "packet_classes", "stable_state"]

#: A prefix split into more packet classes than this is left to the
#: encoding: each class costs one walk of every router.
MAX_PACKET_CLASSES = 64

Prefix = Tuple[int, int]

# Set status of a policy test over every announcement inside a prefix.
_ALL, _NONE, _SOME = "all", "none", "some"


@dataclass(frozen=True)
class Decision:
    """A verdict fixed without an encoding.

    ``counterexample`` is set exactly when ``holds`` is False: the
    simulated stable state under the silent environment, for the
    packet that violates the property.
    """

    holds: bool
    message: str = ""
    counterexample: Optional[object] = None


def fixed_verdict(
    network: Network, prop, k: int, assumptions: Sequence = ()
) -> Optional[Decision]:
    """The verdict of one query when the network fixes it, else None.

    ``k`` is the query's effective failure bound.  A query with
    ``assumptions`` is never decided here: an assumption is an
    arbitrary constraint over the encoding.
    """
    from repro.core import properties as P

    if assumptions:
        return None
    kind = type(prop)
    if kind is P.NoForwardingLoops:
        if prop.candidates is None and not loop_candidates(network):
            return Decision(holds=True)
        return None
    if k != 0 or kind not in (P.Reachability, P.NoBlackHoles):
        return None
    if kind is P.Reachability and prop.dest_peer is not None:
        return None
    dst = prop.dst_prefix()
    if dst is None:
        return None
    dst = (iplib.network_of(*dst), dst[1])
    state = stable_state(network)
    if state is None or not _imports_block(network, dst):
        return None
    sources = network.router_names()
    if kind is P.Reachability and prop.sources != "all":
        sources = list(prop.sources)
        if not set(sources) <= set(network.devices):
            return None
    classes = packet_classes(state, dst)
    if classes is None:
        return None
    from repro.sim import DataPlane, Packet

    dataplane = DataPlane(state)
    for dst_ip in classes:
        packet = Packet(dst_ip=dst_ip)
        steps = {r: dataplane.step(r, packet) for r in network.devices}
        if kind is P.Reachability:
            relevant = _visited(network, steps, sources)
        else:
            relevant = network.router_names()
        if not _fixed_at(state, dst, dst_ip, relevant):
            return None
        if kind is P.Reachability:
            bad = [s for s in sources if not _reaches(network, steps, s)]
            what = f"unreachable from {', '.join(bad)}"
        else:
            bad = _black_holes(network, steps, set(prop.allowed))
            what = f"black hole at {', '.join(bad)}"
        if bad:
            message = f"{what} for dstIp={iplib.format_ip(dst_ip)}"
            return Decision(
                holds=False,
                message=message,
                counterexample=_counterexample(dst_ip, steps),
            )
    return Decision(holds=True)


# ---------------------------------------------------------------------------
# The network's one stable state
# ---------------------------------------------------------------------------


def stable_state(network: Network):
    """The simulated stable state, when the network has only one.

    Returns the :class:`~repro.sim.SimulationResult` under the silent
    environment when every router's routing, for every prefix, is
    fixed by the configurations alone (up to the external routes that
    :func:`fixed_verdict` checks per prefix), else None.  Computed
    once per ``Network`` and kept on it, as
    :func:`~repro.analysis.dataflow.analyze_dataflow` keeps its
    fixpoint: no code edits a ``Network`` once it is built.  The
    result's ``network`` is a weak proxy, so it is usable only while
    the caller holds the network; a strong pointer back would leave
    both to the cyclic collector.
    """
    if "_stable_state" not in network.__dict__:
        state = None
        if _single_stable_state(network):
            from repro.sim import simulate

            result = simulate(network)
            if result.converged:
                state = replace(result, network=weakref.proxy(network))
        network._stable_state = state
    return network._stable_state


def _single_stable_state(network: Network) -> bool:
    """Network-wide conditions under which each prefix has one stable
    state: strictly increasing route cost along every path, and no
    feature where the simulator and the encoder could part ways."""
    if loop_candidates(network):
        return False
    asns: Set[int] = set()
    addresses: Set[int] = set()
    for dev in network.devices.values():
        for iface in dev.interfaces.values():
            if iface.acl_in or iface.acl_out:
                return False
            if not iface.address:
                continue
            if iface.shutdown or iface.address in addresses:
                return False
            addresses.add(iface.address)
            if dev.ospf and dev.ospf.covers(iface.address):
                if iface.ospf_cost < 1:
                    return False
        clauses = [c for rmap in dev.route_maps.values() for c in rmap.clauses]
        if not all(_filter_only(dev, clause) for clause in clauses):
            return False
        if dev.bgp:
            if dev.bgp.asn in asns or dev.bgp.aggregates:
                return False
            asns.add(dev.bgp.asn)
            connected = set(dev.connected_prefixes())
            if not set(dev.bgp.networks) <= connected:
                return False
            for nbr in dev.bgp.neighbors:
                for name in (nbr.route_map_in, nbr.route_map_out):
                    if name is not None and name not in dev.route_maps:
                        return False
    return _subnets_consistent(network)


def _filter_only(dev: DeviceConfig, clause: RouteMapClause) -> bool:
    """A clause that permits or denies on a defined prefix list, or on
    nothing, and rewrites no attribute."""
    plist = clause.match_prefix_list
    rewrites = (clause.set_local_pref, clause.set_metric, clause.set_med)
    return (
        clause.match_community_list is None
        and rewrites == (None, None, None)
        and not clause.add_communities
        and not clause.delete_communities
        and (plist is None or plist in dev.prefix_lists)
    )


def _subnets_consistent(network: Network) -> bool:
    """Every subnet holding another router's address is that router's
    own subnet, so the neighbor a connected route hands a packet to is
    the one the encoder wires to that subnet."""
    subnets = {
        iface.subnet
        for dev in network.devices.values()
        for iface in dev.interfaces.values()
        if iface.address
    }
    for dev in network.devices.values():
        for iface in dev.interfaces.values():
            if not iface.address:
                continue
            for length in range(33):
                holder = (iplib.network_of(iface.address, length), length)
                if holder in subnets and holder != iface.subnet:
                    return False
    return True


# ---------------------------------------------------------------------------
# External routes inside the prefix
# ---------------------------------------------------------------------------


def _imports_block(network: Network, dst: Prefix) -> bool:
    """Does every external session's import map deny every
    announcement inside ``dst`` (any length from the prefix's own to
    /32, any communities)?"""
    for peer in network.externals:
        dev = network.device(peer.router)
        nbr = dev.bgp.neighbor(peer.peer_ip)
        if nbr is None or _map_passes_some(dev, nbr.route_map_in, dst):
            return False
    return True


def _map_passes_some(
    dev: DeviceConfig, map_name: Optional[str], dst: Prefix
) -> bool:
    """A first-match walk of the import map over every announcement
    inside ``dst``: False only when each of them is denied.

    ``dataflow.match_set`` keeps permit entries only, so it cannot see
    a deny entry ahead of a permit-all one; this walk honours order.
    Every clause filters on a prefix list or on nothing
    (:func:`_filter_only`).
    """
    if map_name is None:
        return True
    clauses = dev.route_maps[map_name].clauses
    for clause in sorted(clauses, key=lambda c: c.seq):
        status = _ALL
        if clause.match_prefix_list is not None:
            plist = dev.prefix_lists[clause.match_prefix_list]
            status = _list_status(plist, dst)
        if status == _NONE:
            continue
        if clause.action == PERMIT:
            return True
        if status == _ALL:
            return False
    return False  # off the end: implicit deny


def _list_status(plist: PrefixList, dst: Prefix) -> str:
    """Does the prefix list permit all, none or some of the route
    prefixes inside ``dst``?"""
    net, length = dst
    for entry in plist.entries:
        low, high = entry.bounds()
        hit = _entry_status(entry, low, high, net, length)
        if hit == _SOME:
            return _SOME
        if hit == _ALL:
            return _ALL if entry.action == PERMIT else _NONE
    return _NONE


def _entry_status(entry, low: int, high: int, net: int, length: int) -> str:
    if high < length or low > 32:
        return _NONE
    if not iplib.prefix_overlaps(entry.network, entry.length, net, length):
        return _NONE
    covers = iplib.prefix_contains(entry.network, entry.length, net)
    if entry.length <= length and covers and low <= length and high >= 32:
        return _ALL
    return _SOME


# ---------------------------------------------------------------------------
# Packet classes and the per-class checks
# ---------------------------------------------------------------------------


def packet_classes(state, dst: Prefix) -> Optional[List[int]]:
    """One destination address per packet class of ``dst``, or None
    past :data:`MAX_PACKET_CLASSES`.

    Two addresses share a class when no FIB entry longer than the
    prefix and no interface or external peer address tells them apart,
    so every router forwards them alike.
    """
    net, length = dst
    network = state.network
    cuts: Set[Prefix] = set()
    for fib in state.fibs.values():
        for sub_net, sub_len in fib:
            if sub_len > length and _inside((sub_net, sub_len), dst):
                cuts.add((sub_net, sub_len))
    addresses = [peer.peer_ip for peer in network.externals]
    for dev in network.devices.values():
        addresses += [i.address for i in dev.interfaces.values() if i.address]
    for address in addresses:
        if iplib.prefix_contains(net, length, address):
            cuts.add((address, 32))
    if len(cuts) >= MAX_PACKET_CLASSES:
        return None
    out = []
    for block in sorted(cuts | {dst}, key=lambda c: (c[1], c[0])):
        inner = [c for c in cuts if c[1] > block[1] and _inside(c, block)]
        free = _free_address(block, inner)
        if free is not None:
            out.append(free)
    return out


def _inside(inner: Prefix, outer: Prefix) -> bool:
    return iplib.prefix_contains(outer[0], outer[1], inner[0])


def _free_address(block: Prefix, cuts: List[Prefix]) -> Optional[int]:
    """The lowest address of ``block`` outside every prefix in
    ``cuts`` (all strictly inside ``block``), or None."""
    if not cuts:
        return block[0]
    if any(cut == block for cut in cuts) or block[1] == 32:
        return None
    half = block[1] + 1
    for start in (block[0], block[0] | (1 << (32 - half))):
        sub = (start, half)
        found = _free_address(sub, [c for c in cuts if _inside(c, sub)])
        if found is not None:
            return found
    return None


def _visited(
    network: Network,
    steps: Dict[str, Tuple[bool, Tuple[str, ...]]],
    sources: Sequence[str],
) -> List[str]:
    """Every router some branch from ``sources`` passes through."""
    seen: List[str] = []
    todo = list(sources)
    while todo:
        router = todo.pop()
        if router in seen:
            continue
        seen.append(router)
        todo.extend(t for t in steps[router][1] if t in network.devices)
    return seen


def _fixed_at(state, dst: Prefix, dst_ip: int, routers: List[str]) -> bool:
    """Is the forwarding of ``dst_ip`` at each of ``routers`` the same
    in every stable state of every environment?

    It is when an up interface of the router holds the address (it
    delivers it locally), or when the router forwards it on a FIB
    entry at least as long as ``dst`` (no external route can beat it
    on longest-prefix match).  With no external peer at all there is
    no external route to beat.
    """
    network = state.network
    for router in routers:
        if network.device(router).delivers_locally(dst_ip):
            continue
        routes = state.fib_lookup(router, dst_ip)
        if not routes:
            if network.externals:
                return False
            continue
        if routes[0].length < dst[1] and network.externals:
            return False
    return True


def _reaches(network: Network, steps, source: str) -> bool:
    """Some branch from ``source`` is delivered (the least fixpoint of
    the encoder's ``canReach`` bits)."""
    return any(steps[r][0] for r in _visited(network, steps, [source]))


def _black_holes(network: Network, steps, allowed: Set[str]) -> List[str]:
    """Routers some router forwards to that neither deliver nor
    forward (``NoBlackHoles``' hole condition)."""
    entered = {
        target
        for _, targets in steps.values()
        for target in targets
        if target in network.devices
    }
    return [
        router
        for router in network.router_names()
        if router in entered
        and router not in allowed
        and steps[router] == (False, ())
    ]


def _counterexample(dst_ip: int, steps):
    from repro.core.counterexample import Counterexample

    forwarding = {r: list(t) for r, (_, t) in sorted(steps.items()) if t}
    delivered = sorted(r for r, (hit, _) in steps.items() if hit)
    return Counterexample(
        dst_ip=dst_ip, forwarding=forwarding, delivered_at=delivered
    )
