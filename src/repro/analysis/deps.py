"""Static dependency analysis: cones of influence and slice hashing.

The differential verifier (``repro diff``) must answer one question
soundly: *which config fragments can possibly change this query's
verdict?*  Everything else may change freely without invalidating a
cached answer.  Following the modularity insight of CB-VER and the
pruning insight of Plankton (PAPERS.md), the answer is computed
statically from the built network, per (query, destination prefix,
failure bound):

* The **cone of influence** selects, for every device, the set of
  canonical config fragments (:func:`repro.lang.writer.write_fragments`)
  whose semantics can reach the query's verdict.  The query constrains
  the symbolic packet destination to its prefix ``p`` with ``fbm_const``
  (at the root of an encoding restricted to ``p``, or as a per-query
  assumption on a prefix-free one), and every origination candidate
  (connected subnets, static routes, BGP ``network``/aggregates, OSPF
  interface origins) is matched against that packet — so a fragment
  whose prefix cannot overlap ``p`` is provably inert and leaves the slice.

* The **slice hash** is a SHA-256 over the canonical texts of exactly
  the fragments in the cone, so comment/whitespace edits (discarded by
  the parser) and edits outside the cone never perturb it, while any
  semantic edit inside the cone does.

* Soundness bar: *a cached verdict must be provably identical to a
  fresh solve*.  Whenever the analysis cannot bound a cone — no
  destination prefix on the property, a property class it does not
  know, assumption callables it cannot inspect, auto-named external
  peers whose generated names are order-dependent — it degrades
  conservatively: an unbounded cone contains **every** fragment of
  every device (still cacheable: a hit then means nothing at all
  changed), and unrecognized queries are not cacheable at all
  (:func:`cache_key` returns ``None`` and the engine always re-solves).

Inclusion rules (each guarded by the network-wide facts below):

==========================  =============================================
fragment                    in the slice when
==========================  =============================================
``meta``, ``bgp``,          always (identity, session graph, MED mode,
``bgp.neighbor:*``,         redistribution and adjacency shape the whole
``ospf``                    route propagation)
``interface:<n>``           unless it is an excludable stub: its subnet
                            does not overlap ``p``, no other device has
                            an interface in the subnet (no adjacency),
                            and no BGP neighbor address or static-route
                            next hop anywhere in the network falls
                            inside it (session resolution and recursive
                            lookup are unaffected)
``bgp.network:<pfx>``,      prefix overlaps ``p``
``bgp.aggregate:<pfx>``
``static:<i>``              route prefix overlaps ``p`` — or iBGP is
                            modeled anywhere (the §4 IGP copies pin the
                            destination to arbitrary peer addresses and
                            keep static routes)
``route-map:<n>``           bound to a BGP session (via neighbor
                            bindings) and every clause *hot* for ``p``
                            under the route-propagation dataflow
                            summaries (:mod:`repro.analysis.dataflow`)
``route-map:<n>:<seq>``     the map is bound and only *some* clauses
                            are hot: exactly the hot clauses join the
                            slice (a clause is hot when a route that
                            can actually enter the map both matches it
                            and overlaps ``p``; cold clauses cannot
                            process a verdict-relevant route, and any
                            edit that could re-heat one changes either
                            an included fragment or the inclusion set
                            itself — see the module docstring of
                            ``dataflow``)
``prefix-list:<n>`` etc.    matched (or comm-list-deleted) by an
                            *included* route-map clause
``acl:<n>:<i>``             the ACL is bound to an included interface
                            and the rule's destination range overlaps
                            ``p``
==========================  =============================================

Properties that quantify over *network structure* rather than routes
need extra care: :class:`~repro.core.properties.NoForwardingLoops`
pivots exactly the devices :func:`repro.analysis.dataflow.loop_candidates`
calls risky — static routes, redistribution, route-map clauses setting
local-preference or metric, iBGP sessions, and BGP ``network``
statements beside OSPF — and none when no device is.  With default
candidates the slice keeps all static routes and adds a
``dataflow:loop-candidates`` pseudo-fragment (that candidate tuple) to
the hash — any edit that flips a device in or out of the pivot set
changes the key even when the edited fragment itself is outside the
cone.  Route maps no longer widen to the whole network: the dataflow
hotness projection above applies to structural queries too.  When the
dataflow fixpoint had to widen (``Dataflow.widened``), the analysis
falls back to the pre-projection behavior: every bound map — and for
structural queries every map on every device — joins the slice whole.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields as dc_fields, is_dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.net import ip as iplib
from repro.net.device import DeviceConfig
from repro.net.topology import ExternalPeer, Network
from repro.lang.writer import write_config, write_fragments
from .dataflow import Dataflow, analyze_dataflow, loop_candidates
from .diagnostics import Severity
from .registry import Finding, rule

__all__ = [
    "Cone",
    "NetworkFacts",
    "cache_key",
    "device_hash",
    "network_facts",
    "options_digest",
    "options_fingerprint",
    "query_cone",
    "query_id",
    "slice_hash",
    "unreachable_policy",
]


# ---------------------------------------------------------------------------
# Network-wide facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkFacts:
    """Cross-device facts the fragment-inclusion rules depend on."""

    #: every configured BGP neighbor address, any device
    neighbor_ips: FrozenSet[int]
    #: every static-route next-hop address, any device
    static_next_hops: FrozenSet[int]
    #: subnets with interfaces on two or more devices (potential links)
    shared_subnets: FrozenSet[Tuple[int, int]]
    #: some device has an iBGP session (remote-as == own AS)
    has_ibgp: bool


def network_facts(network: Network) -> NetworkFacts:
    neighbor_ips: Set[int] = set()
    next_hops: Set[int] = set()
    subnet_owners: Dict[Tuple[int, int], Set[str]] = {}
    has_ibgp = False
    for name, dev in network.devices.items():
        if dev.bgp:
            for nbr in dev.bgp.neighbors:
                neighbor_ips.add(nbr.peer_ip)
                if nbr.remote_as == dev.bgp.asn:
                    has_ibgp = True
        for route in dev.static_routes:
            if route.next_hop_ip is not None:
                next_hops.add(route.next_hop_ip)
        for iface in dev.interfaces.values():
            if iface.address:
                subnet_owners.setdefault(iface.subnet, set()).add(name)
    shared = frozenset(
        s for s, owners in subnet_owners.items() if len(owners) > 1
    )
    return NetworkFacts(
        neighbor_ips=frozenset(neighbor_ips),
        static_next_hops=frozenset(next_hops),
        shared_subnets=shared,
        has_ibgp=has_ibgp,
    )


# ---------------------------------------------------------------------------
# Cones of influence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """The dependency slice of one query.

    ``fragments`` maps device name to the included fragment ids.  When
    the analysis cannot bound the cone, ``bounded`` is False and the
    cone covers every fragment of every device (``reason`` says why) —
    still sound and still hashable, just maximally conservative.
    """

    fragments: Dict[str, FrozenSet[str]]
    bounded: bool = True
    reason: str = ""
    #: (key, value) pseudo-fragments hashed alongside the config
    #: fragments: derived network-wide facts a verdict depends on that
    #: no single device fragment captures (e.g. the NoForwardingLoops
    #: default candidate set).
    extras: Tuple[Tuple[str, str], ...] = ()

    def devices(self) -> List[str]:
        return sorted(self.fragments)

    def total_fragments(self) -> int:
        return sum(len(v) for v in self.fragments.values())


# Property classes whose verdict dependencies the analysis understands.
# Anything else (user subclasses, lazy refinement properties) is not
# cacheable: we cannot see what it reads.
_KNOWN_PROPERTIES = (
    "Reachability",
    "Isolation",
    "Waypointing",
    "BoundedPathLength",
    "EqualPathLengths",
    "DisjointPaths",
    "NoForwardingLoops",
    "NoBlackHoles",
    "MultipathConsistency",
    "NeighborPreference",
    "PathPreference",
    "NoPrefixLeak",
)

_KNOWN_ASSUMPTIONS = ("_Announces", "_Silent", "_NoFailures")


def _known_property(prop) -> bool:
    import repro.core.properties as props

    cls = type(prop)
    return any(
        getattr(props, name, None) is cls for name in _KNOWN_PROPERTIES
    )


def _known_assumption(assumption) -> bool:
    import repro.core.properties as props

    cls = type(assumption)
    return any(
        getattr(props, name, None) is cls for name in _KNOWN_ASSUMPTIONS
    )


def _peer_names(prop, assumptions) -> Set[str]:
    """External-peer names the query references by name."""
    names: Set[str] = set()
    for attr in ("dest_peer",):
        value = getattr(prop, attr, None)
        if value:
            names.add(value)
    for value in getattr(prop, "peers_in_order", ()) or ():
        names.add(value)
    for assumption in assumptions:
        peer = getattr(assumption, "peer", None)
        if peer:
            names.add(peer)
    return names


def _stable_peer_name(network: Network, peer: str) -> bool:
    """Is ``peer`` a description-named external peer?

    Auto-generated names (``ext-<router>-<N>``) depend on a global
    counter over device iteration order, so an unrelated edit can
    renumber them; queries naming such peers are not cacheable.
    """
    return any(
        isinstance(session.peer, ExternalPeer)
        and session.peer.name == peer == session.nbr.description
        for name in network.devices
        for session in network.sessions(name)
    )


def _full_cone(network: Network, reason: str) -> Cone:
    fragments = {
        name: frozenset(fid for fid, _ in write_fragments(dev))
        for name, dev in network.devices.items()
    }
    return Cone(fragments=fragments, bounded=False, reason=reason)


def query_cone(
    network: Network,
    prop,
    *,
    assumptions: Tuple = (),
) -> Optional[Cone]:
    """The cone of influence of one query, or ``None`` if the query is
    not cacheable at all (unknown property/assumption types, unstable
    peer names)."""
    if getattr(prop, "lazy", False) or not _known_property(prop):
        return None
    for assumption in assumptions:
        if not _known_assumption(assumption):
            return None
    for peer in _peer_names(prop, assumptions):
        if not _stable_peer_name(network, peer):
            return None

    dst = prop.dst_prefix()
    if dst is None:
        return _full_cone(network, "property has no destination prefix")

    facts = network_facts(network)
    # NoForwardingLoops with default candidates pivots the risky devices
    # of loop_candidates, whose inputs may lie outside the cone.
    structural = (
        type(prop).__name__ == "NoForwardingLoops"
        and getattr(prop, "candidates", None) is None
    )
    dataflow: Optional[Dataflow] = analyze_dataflow(network)
    if dataflow.widened:
        # The fixpoint could not bound the summaries; fall back to the
        # pre-projection widening (every bound map, structural queries
        # take every map).
        dataflow = None
    extras: Tuple[Tuple[str, str], ...] = ()
    if structural:
        extras = (
            ("dataflow:loop-candidates", ",".join(loop_candidates(network))),
        )
    fragments = {}
    for name, dev in network.devices.items():
        frags = _device_fragments(
            dev,
            dst,
            facts,
            include_all_statics=facts.has_ibgp or structural,
            include_all_maps=structural and dataflow is None,
            dataflow=dataflow,
        )
        fragments[name] = frozenset(frags)
    cone = Cone(fragments=fragments, bounded=True, extras=extras)
    obs.metrics().histogram("deps.cone_fragments").observe(
        cone.total_fragments()
    )
    return cone


def _device_fragments(
    dev: DeviceConfig,
    dst: Tuple[int, int],
    facts: NetworkFacts,
    include_all_statics: bool,
    include_all_maps: bool,
    dataflow: Optional[Dataflow] = None,
) -> Iterator[str]:
    dst_net, dst_len = dst
    yield "meta"
    if dev.ospf:
        yield "ospf"

    included_ifaces: List[str] = []
    for name, iface in dev.interfaces.items():
        if not _excludable_stub(iface, dst_net, dst_len, facts):
            included_ifaces.append(name)
            yield f"interface:{name}"

    used_maps: Set[str] = set()
    if dev.bgp:
        yield "bgp"
        for nbr in dev.bgp.neighbors:
            yield f"bgp.neighbor:{iplib.format_ip(nbr.peer_ip)}"
            if nbr.route_map_in:
                used_maps.add(nbr.route_map_in)
            if nbr.route_map_out:
                used_maps.add(nbr.route_map_out)
        for net, length in dev.bgp.networks:
            if iplib.prefix_overlaps(net, length, dst_net, dst_len):
                yield f"bgp.network:{iplib.format_prefix(net, length)}"
        for net, length in dev.bgp.aggregates:
            if iplib.prefix_overlaps(net, length, dst_net, dst_len):
                yield f"bgp.aggregate:{iplib.format_prefix(net, length)}"

    for idx, route in enumerate(dev.static_routes):
        if include_all_statics or iplib.prefix_overlaps(
            route.network, route.length, dst_net, dst_len
        ):
            yield f"static:{idx}"

    if include_all_maps:
        used_maps.update(dev.route_maps)
    used_plists: Set[str] = set()
    used_clists: Set[str] = set()

    def reference(clause) -> None:
        if clause.match_prefix_list:
            used_plists.add(clause.match_prefix_list)
        if clause.match_community_list:
            used_clists.add(clause.match_community_list)
        used_clists.update(clause.delete_communities)

    for map_name in sorted(used_maps):
        rmap = dev.route_maps.get(map_name)
        if rmap is None:
            continue  # dangling: nothing to hash; definition would add it
        if dataflow is None:
            yield f"route-map:{map_name}"
            for clause in rmap.clauses:
                reference(clause)
            continue
        # Project the map onto its clauses hot for ``dst``: a cold
        # clause can never process a verdict-relevant route, and lists
        # matched only by cold clauses go with it.
        hot = dataflow.hot_clause_seqs(dev.hostname, map_name, dst)
        if not hot:
            continue
        if len(hot) == len(rmap.clauses):
            yield f"route-map:{map_name}"
            for clause in rmap.clauses:
                reference(clause)
        else:
            for clause in rmap.clauses:
                if clause.seq in hot:
                    yield f"route-map:{map_name}:{clause.seq}"
                    reference(clause)
    for name in used_plists:
        if name in dev.prefix_lists:
            yield f"prefix-list:{name}"
    for name in used_clists:
        if name in dev.community_lists:
            yield f"community-list:{name}"

    used_acls: Set[str] = set()
    for name in included_ifaces:
        iface = dev.interfaces[name]
        if iface.acl_in:
            used_acls.add(iface.acl_in)
        if iface.acl_out:
            used_acls.add(iface.acl_out)
    for name in used_acls:
        acl = dev.acls.get(name)
        if acl is None:
            continue
        yield f"acl:{name}"
        for idx, acl_rule in enumerate(acl.rules):
            if acl_rule.dst_network is None or iplib.prefix_overlaps(
                acl_rule.dst_network, acl_rule.dst_length, dst_net, dst_len
            ):
                yield f"acl:{name}:{idx}"


def _excludable_stub(
    iface, dst_net: int, dst_len: int, facts: NetworkFacts
) -> bool:
    """Can this interface be left out of a slice for ``dst``?

    Safe only when the interface is a leaf with no semantic handle a
    packet constrained to ``dst`` could observe: its subnet cannot
    match the destination (delivery, connected/OSPF origination and
    address ownership are all concrete-prefix-filtered against the
    destination by the encoder), it forms no adjacency, and neither BGP
    session resolution nor static next-hop lookup anywhere in the
    network can land inside it.
    """
    if not iface.address:
        return False
    subnet, length = iface.subnet
    if iplib.prefix_overlaps(subnet, length, dst_net, dst_len):
        return False
    if (subnet, length) in facts.shared_subnets:
        return False
    for addr in facts.neighbor_ips:
        if iplib.prefix_contains(subnet, length, addr):
            return False
    for addr in facts.static_next_hops:
        if iplib.prefix_contains(subnet, length, addr):
            return False
    return True


# ---------------------------------------------------------------------------
# Hashing and cache keys
# ---------------------------------------------------------------------------


def slice_hash(network: Network, cone: Cone) -> str:
    """SHA-256 over the canonical texts of the cone's fragments (plus
    any derived pseudo-fragments in ``cone.extras``)."""
    digest = hashlib.sha256()
    for key, value in sorted(cone.extras):
        digest.update(b"\x02")
        digest.update(key.encode())
        digest.update(b"\x00")
        digest.update(value.encode())
        digest.update(b"\x01")
    for name in sorted(cone.fragments):
        dev = network.devices.get(name)
        if dev is None:
            continue
        included = cone.fragments[name]
        for frag_id, text in write_fragments(dev):
            if frag_id in included:
                digest.update(name.encode())
                digest.update(b"\x00")
                digest.update(frag_id.encode())
                digest.update(b"\x00")
                digest.update(text.encode())
                digest.update(b"\x01")
    return digest.hexdigest()


def device_hash(dev: DeviceConfig) -> str:
    """Content hash of one device's full canonical form."""
    return hashlib.sha256(write_config(dev).encode()).hexdigest()


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dc_fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def query_id(prop, effective_k: int, assumptions: Tuple = ()) -> str:
    """Stable identity of a query: property class and parameters,
    effective failure bound, and assumption descriptors."""
    payload = {
        "property": type(prop).__name__,
        "params": _jsonable(prop),
        "k": effective_k,
        "assumptions": [
            {"kind": type(a).__name__, "params": _jsonable(a)}
            for a in assumptions
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# EncoderOptions fields that shape which stable states exist (and hence
# verdicts).  ``max_failures`` is captured per-query via the effective
# bound in the query id; ``preprocess``/``hoist_prefixes`` and friends
# are verdict-preserving solver/encoding strategies (locked by the
# differential test suites), and the conflict budget can only turn an
# answer into UNKNOWN — never flip it — and UNKNOWNs are not cached.
_SEMANTIC_OPTION_FIELDS = (
    "hoist_prefixes",
    "slice_fields",
    "merge_edge_records",
    "slice_connected",
    "merge_fwd",
    "fail_external",
)


def options_fingerprint(options) -> str:
    payload = {
        name: getattr(options, name) for name in _SEMANTIC_OPTION_FIELDS
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def options_digest(options) -> str:
    """Short hex digest of :func:`options_fingerprint`, for composed
    cache keys (the encoding cache scopes keys by it) and snapshot
    metadata where the raw JSON fingerprint would be unwieldy."""
    fingerprint = options_fingerprint(options)
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:12]


def cache_key(
    network: Network,
    prop,
    *,
    max_failures: Optional[int] = None,
    assumptions: Tuple = (),
    options=None,
    cone: Optional[Cone] = None,
) -> Optional[str]:
    """The verdict-cache key ``(query-id, slice-hash, options)`` for one
    query, or ``None`` when the query is not cacheable."""
    from repro.core.encoder import EncoderOptions
    from repro.core.verifier import effective_max_failures

    if options is None:
        options = EncoderOptions()
    if cone is None:
        cone = query_cone(network, prop, assumptions=assumptions)
    if cone is None:
        return None
    k = effective_max_failures(prop, max_failures, options)
    blob = "\n".join(
        [
            query_id(prop, k, assumptions),
            slice_hash(network, cone),
            options_fingerprint(options),
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Dead-policy rule: referenced, but outside every propagation path
# ---------------------------------------------------------------------------


@rule(
    "DEP001",
    "policy outside every propagation path",
    Severity.WARNING,
    "network",
)
def unreachable_policy(network: Network) -> Iterator[Finding]:
    """A route-map (or a prefix-/community-list it matches) is bound
    only to BGP sessions that can never come up, or an ACL is applied
    only on shutdown interfaces.

    Such policy is referenced — so the unused-policy rule (POL001)
    stays silent — but the dependency graph shows no route or packet
    can ever traverse it: the peer address is owned by no internal
    device and resolves to no connected subnet (the topology layer
    silently drops the session), or the interface is administratively
    down.  Edits to it look meaningful and change nothing.
    """
    for name, dev in network.devices.items():
        # Live: an internal device owns the peer address, or it
        # resolves to a symbolic external peer; dead: the session can
        # never come up.
        live, dead = [], []
        for session in network.sessions(name):
            (dead if session.peer is None else live).append(session.nbr)
        live_maps = {
            m
            for nbr in live
            for m in (nbr.route_map_in, nbr.route_map_out)
            if m
        }
        for nbr in dead:
            for map_name, line in (
                (nbr.route_map_in, nbr.route_map_in_line),
                (nbr.route_map_out, nbr.route_map_out_line),
            ):
                if (
                    map_name
                    and map_name in dev.route_maps
                    and map_name not in live_maps
                ):
                    yield Finding(
                        message=(
                            f"route-map {map_name} is bound only to "
                            "unresolvable BGP session "
                            f"{iplib.format_ip(nbr.peer_ip)} and can "
                            "never see a route"
                        ),
                        device=name,
                        line=line,
                    )
        # Lists matched only from such dead maps (and no live map).
        live_plists, live_clists = _matched_lists(dev, live_maps)
        bound_to_dead = {
            m
            for nbr in dead
            for m in (nbr.route_map_in, nbr.route_map_out)
            if m and m in dev.route_maps
        }
        dead_maps = bound_to_dead - live_maps
        dead_plists, dead_clists = _matched_lists(dev, dead_maps)
        for plist in sorted(dead_plists - live_plists):
            if plist in dev.prefix_lists:
                yield Finding(
                    message=(
                        f"prefix-list {plist} is matched only by "
                        "route-maps outside every propagation path"
                    ),
                    device=name,
                    line=dev.prefix_lists[plist].line,
                )
        for clist in sorted(dead_clists - live_clists):
            if clist in dev.community_lists:
                yield Finding(
                    message=(
                        f"community-list {clist} is matched only by "
                        "route-maps outside every propagation path"
                    ),
                    device=name,
                    line=dev.community_lists[clist].line,
                )
        for iface in dev.interfaces.values():
            if not iface.shutdown:
                continue
            for acl_name, line in (
                (iface.acl_in, iface.acl_in_line),
                (iface.acl_out, iface.acl_out_line),
            ):
                if (
                    acl_name
                    and acl_name in dev.acls
                    and not _acl_live_elsewhere(dev, acl_name, iface)
                ):
                    yield Finding(
                        message=(
                            f"ACL {acl_name} is applied only on "
                            f"shutdown interface {iface.name}; no "
                            "packet can traverse it"
                        ),
                        device=name,
                        line=line,
                    )


def _matched_lists(dev: DeviceConfig, map_names) -> Tuple[Set[str], Set[str]]:
    plists: Set[str] = set()
    clists: Set[str] = set()
    for map_name in map_names:
        rmap = dev.route_maps.get(map_name)
        if rmap is None:
            continue
        for clause in rmap.clauses:
            if clause.match_prefix_list:
                plists.add(clause.match_prefix_list)
            if clause.match_community_list:
                clists.add(clause.match_community_list)
            clists.update(clause.delete_communities)
    return plists, clists


def _acl_live_elsewhere(dev: DeviceConfig, acl_name: str, shut_iface) -> bool:
    for iface in dev.interfaces.values():
        if iface.shutdown:
            continue
        if acl_name in (iface.acl_in, iface.acl_out):
            return True
    return False
