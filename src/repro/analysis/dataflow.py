"""Whole-network route-propagation dataflow analysis.

The encoder models the control plane as a system of per-device route
import/export functions (§4 of the paper).  This module runs a
flow-insensitive abstract interpretation over the same structure — the
BGP session graph plus OSPF adjacencies — and computes, per device, an
*over-approximate* summary of which route prefixes the device can
possibly originate, learn, and advertise, and which route-map clauses
are *hot* (can ever process a route relevant to a destination prefix).

The summaries feed two consumers:

* :mod:`repro.analysis.deps` replaces its all-route-maps structural
  widening with the dataflow-reachable policy set per (query,
  dst-prefix), shrinking differential-verification cones.
* The cross-device lint rules XDF001–XDF004 below: filtering mistakes
  no per-device pass can see.

Abstract domain
---------------

A :class:`PrefixSet` is a union of *normalized prefix ranges*
``(base, elen, lo, hi)``: all route prefixes whose network lies under
``base/elen`` and whose length lies in ``[lo, hi]``.  A prefix-list
entry ``P/A ge B le C`` denotes the range with ``lo=B`` (default
``A``), ``hi=C`` (default ``lo``) and — crucially — ``elen = min(A,
lo)``: when ``ge < A`` the entry compares only the first ``A`` bits,
so it can match a *shorter* route whose coverage extends beyond
``P/A``; normalizing the base to ``min(A, lo)`` keeps the overlap test
sound in that corner.  For the common ``ge >= A`` case the range
coincides exactly with the §6.1 hoisted prefix test the encoder
asserts against the pinned destination.

Unions widen to the unconstrained set ``ANY`` past
:data:`WIDEN_LIMIT` ranges, mirroring deps.py's soundness rule: any
input the analysis cannot bound (an external peer's announcements, a
non-converging union) widens to ANY — summaries may only ever
over-approximate, never narrow unsoundly.

Transfer functions
------------------

``transfer(device, route-map, S)`` over-approximates the image of a
route set through a map: the union over *permit* clauses of ``S``
intersected with the clause's match set (deny clauses only remove
routes, so ignoring them is sound); a clause without a prefix-list
match — including community-only matches — passes everything; a
dangling map name kills the session (the encoder drops it).  BGP
inflow from an internal sender is the sender's routes filtered through
its export map; from a resolvable external peer it is ANY; an
unresolvable session contributes nothing (the topology layer drops
it).  OSPF adjacency floods the peer's full route set (covering
redistribution).  The fixpoint is monotone over a finite lattice; an
iteration cap widens everything to ANY rather than returning a
partial (unsound) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.net import ip as iplib
from repro.net.device import BgpNeighbor, DeviceConfig
from repro.net.policy import PERMIT, PrefixListEntry, RouteMapClause
from repro.net.topology import Network, Session

from .diagnostics import Severity
from .registry import Finding, rule

__all__ = [
    "ANY",
    "EMPTY",
    "Dataflow",
    "PrefixSet",
    "WIDEN_LIMIT",
    "analyze_dataflow",
    "clause_sets_lp_or_metric",
    "loop_candidates",
    "match_set",
    "transfer",
]


# ---------------------------------------------------------------------------
# Abstract domain: unions of normalized prefix ranges
# ---------------------------------------------------------------------------


#: Union width past which a set widens to ANY (deps.py soundness rule:
#: over-approximate rather than pay unbounded precision).
WIDEN_LIMIT = 64

# One range is (base, elen, lo, hi): route prefixes under base/elen
# with prefix length in [lo, hi].  Invariant: elen <= lo <= hi.
_Range = Tuple[int, int, int, int]


class PrefixSet:
    """An over-approximate set of route prefixes (immutable)."""

    __slots__ = ("ranges", "is_any")

    def __init__(
        self, ranges: Tuple[_Range, ...] = (), is_any: bool = False
    ) -> None:
        self.ranges = () if is_any else tuple(ranges)
        self.is_any = is_any

    # -- constructors --------------------------------------------------

    @classmethod
    def from_prefix(cls, network: int, length: int) -> "PrefixSet":
        """The singleton set {network/length}."""
        base = iplib.network_of(network, length)
        return cls(((base, length, length, length),))

    @classmethod
    def from_entry(cls, entry: PrefixListEntry) -> "PrefixSet":
        """Every route prefix a prefix-list entry can match."""
        lo, hi = entry.bounds()
        if lo > hi or lo > 32:
            return EMPTY
        elen = min(entry.length, lo)
        base = iplib.network_of(entry.network, elen)
        return cls(((base, elen, lo, min(hi, 32)),))

    # -- predicates ----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.is_any and not self.ranges

    def overlaps(self, network: int, length: int) -> bool:
        """Can some prefix in the set overlap ``network/length``?

        A range overlaps the query prefix iff its base subtree does:
        whenever ``base/elen`` and the query prefix share addresses,
        some route prefix with length in ``[lo, hi]`` under the base
        overlaps the query (take the query itself clamped into the
        window, or any descendant/ancestor along the shared path).
        """
        if self.is_any:
            return True
        return any(
            iplib.prefix_overlaps(base, elen, network, length)
            for base, elen, _lo, _hi in self.ranges
        )

    # -- lattice operations --------------------------------------------

    def union(self, other: "PrefixSet") -> "PrefixSet":
        if self.is_any or other.is_any:
            return ANY
        if not other.ranges:
            return self
        if not self.ranges:
            return other
        merged = _subsume(self.ranges + other.ranges)
        if len(merged) > WIDEN_LIMIT:
            return ANY
        return PrefixSet(merged)

    def intersect(self, other: "PrefixSet") -> "PrefixSet":
        if self.is_any:
            return other
        if other.is_any:
            return self
        out: List[_Range] = []
        for r1 in self.ranges:
            for r2 in other.ranges:
                inter = _intersect_ranges(r1, r2)
                if inter is not None:
                    out.append(inter)
        merged = _subsume(tuple(out))
        if len(merged) > WIDEN_LIMIT:
            # Either operand over-approximates the intersection and is
            # already bounded; return the narrower one.
            return self if len(self.ranges) <= len(other.ranges) else other
        return PrefixSet(merged)

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixSet):
            return NotImplemented
        return (self.is_any, frozenset(self.ranges)) == (
            other.is_any,
            frozenset(other.ranges),
        )

    def __hash__(self) -> int:
        return hash((self.is_any, frozenset(self.ranges)))

    def __repr__(self) -> str:
        if self.is_any:
            return "PrefixSet(ANY)"
        parts = [
            f"{iplib.format_prefix(base, elen)}[{lo}..{hi}]"
            for base, elen, lo, hi in self.ranges
        ]
        return f"PrefixSet({{{', '.join(parts)}}})"


EMPTY = PrefixSet()
ANY = PrefixSet(is_any=True)


def _covers(r1: _Range, r2: _Range) -> bool:
    """Does range r1 subsume r2?"""
    b1, e1, l1, h1 = r1
    b2, e2, l2, h2 = r2
    return (
        e1 <= e2
        and iplib.network_of(b2, e1) == b1
        and l1 <= l2
        and h2 <= h1
    )


def _subsume(ranges: Tuple[_Range, ...]) -> Tuple[_Range, ...]:
    """Drop empty and subsumed ranges; canonical sort order."""
    unique = sorted({r for r in ranges if r[2] <= r[3]})
    kept: List[_Range] = []
    for r in unique:
        if any(other != r and _covers(other, r) for other in unique):
            # Ties (mutual coverage) are impossible for distinct
            # tuples: coverage both ways forces equality.
            continue
        kept.append(r)
    return tuple(kept)


def _intersect_ranges(r1: _Range, r2: _Range) -> Optional[_Range]:
    if r1[1] > r2[1]:
        r1, r2 = r2, r1
    b1, e1, l1, h1 = r1
    b2, e2, l2, h2 = r2
    if iplib.network_of(b2, e1) != b1:
        return None
    lo, hi = max(l1, l2), min(h1, h2)
    if lo > hi:
        return None
    return (b2, e2, lo, hi)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def match_set(dev: DeviceConfig, clause: RouteMapClause) -> PrefixSet:
    """Every route prefix a route-map clause can possibly match.

    No prefix-list match (community-only clauses included — the
    community content of a route is not tracked) passes everything; a
    dangling prefix-list reference never matches (the encoder's agreed
    semantics); deny entries only shrink the match, so the union over
    permit entries over-approximates.
    """
    if clause.match_prefix_list is None:
        return ANY
    plist = dev.prefix_lists.get(clause.match_prefix_list)
    if plist is None:
        return EMPTY
    out = EMPTY
    for entry in plist.entries:
        if entry.action == PERMIT:
            out = out.union(PrefixSet.from_entry(entry))
    return out


def transfer(
    dev: DeviceConfig, map_name: Optional[str], routes: PrefixSet
) -> PrefixSet:
    """Over-approximate image of ``routes`` through a route map."""
    if map_name is None:
        return routes
    rmap = dev.route_maps.get(map_name)
    if rmap is None:
        # Dangling binding: the encoder reports and drops the session.
        return EMPTY
    if routes.is_empty():
        return EMPTY
    out = EMPTY
    for clause in rmap.clauses:
        if clause.action != PERMIT:
            continue
        out = out.union(routes.intersect(match_set(dev, clause)))
    return out


# ---------------------------------------------------------------------------
# Fixpoint propagation
# ---------------------------------------------------------------------------


@dataclass
class Dataflow:
    """Per-device propagation summaries (all over-approximate)."""

    #: the network's devices, not the network: the network keeps this
    #: summary, so a pointer back would keep both alive until the
    #: cyclic collector runs
    devices: Dict[str, DeviceConfig]
    #: prefixes a device can inject itself (connected, static, BGP
    #: network/aggregate statements)
    origin: Dict[str, PrefixSet] = field(default_factory=dict)
    #: prefixes a device can hear from its sessions/adjacencies
    learned: Dict[str, PrefixSet] = field(default_factory=dict)
    #: prefixes a device can send to some BGP neighbor
    advertised: Dict[str, PrefixSet] = field(default_factory=dict)
    #: (device, peer_ip) -> prefixes arriving on that session, before
    #: the import map
    session_inflow: Dict[Tuple[str, int], PrefixSet] = field(
        default_factory=dict
    )
    #: device -> route-map name -> union of route sets entering the map
    #: across all of its bindings (import: session inflow; export: the
    #: device's own routes).  Maps with no live binding are absent.
    map_inputs: Dict[str, Dict[str, PrefixSet]] = field(default_factory=dict)
    iterations: int = 0
    widened: bool = False

    def routes(self, device: str) -> PrefixSet:
        """Everything a device can possibly have in its RIB."""
        return self.origin.get(device, EMPTY).union(
            self.learned.get(device, EMPTY)
        )

    def hot_clause_seqs(
        self, device: str, map_name: str, dst: Tuple[int, int]
    ) -> FrozenSet[int]:
        """Sequence numbers of the map's clauses that can process a
        route relevant to ``dst``.

        A clause is *hot* when some route in the map's input set both
        matches the clause and overlaps the destination prefix — deny
        clauses included: a deny that swallows relevant routes shapes
        the verdict as much as a permit.  An unbound map has an empty
        input: every clause is cold.
        """
        dev = self.devices[device]
        rmap = dev.route_maps.get(map_name)
        if rmap is None:
            return frozenset()
        inputs = self.map_inputs.get(device, {}).get(map_name, EMPTY)
        if inputs.is_empty():
            return frozenset()
        hot = set()
        for clause in rmap.clauses:
            if match_set(dev, clause).intersect(inputs).overlaps(*dst):
                hot.add(clause.seq)
        return frozenset(hot)


def _origin_set(dev: DeviceConfig) -> PrefixSet:
    out = EMPTY
    for net, length in dev.connected_prefixes():
        out = out.union(PrefixSet.from_prefix(net, length))
    for route in dev.static_routes:
        out = out.union(PrefixSet.from_prefix(route.network, route.length))
    if dev.bgp:
        for net, length in dev.bgp.networks:
            out = out.union(PrefixSet.from_prefix(net, length))
        for net, length in dev.bgp.aggregates:
            out = out.union(PrefixSet.from_prefix(net, length))
    return out


def _export_toward(
    network: Network, sender: str, receiver: str, routes: PrefixSet
) -> PrefixSet:
    """What ``sender`` can advertise on its session(s) to ``receiver``.

    The export filter is the sender's reverse binding: every neighbor
    entry of the sender whose peer address the receiver owns.  With no
    reverse entry the session is one-sided; passing the full route set
    through keeps the over-approximation sound either way.
    """
    reverse = [
        session.nbr
        for session in network.sessions(sender)
        if session.peer_device == receiver
    ]
    if not reverse:
        return routes
    out = EMPTY
    sender_dev = network.devices[sender]
    for nbr in reverse:
        out = out.union(transfer(sender_dev, nbr.route_map_out, routes))
    return out


def _session_inflow(
    network: Network,
    name: str,
    session: Session,
    routes: Dict[str, PrefixSet],
) -> PrefixSet:
    """Routes that can arrive on one session, before the import map."""
    owner = session.peer_device
    if owner is not None:
        if network.devices[owner].bgp is None:
            return EMPTY
        return _export_toward(network, owner, name, routes[owner])
    if session.peer is not None:
        # Resolvable external peer: the environment may announce
        # anything — the unbounded input deps.py refuses to bound.
        return ANY
    return EMPTY  # session can never come up (topology drops it)


def _ospf_peers(network: Network) -> Dict[str, Set[str]]:
    """Devices adjacent on a shared subnet with OSPF on both ends."""
    peers: Dict[str, Set[str]] = {}
    for edge in network.edges:
        src = network.devices[edge.source]
        dst = network.devices[edge.target]
        if src.ospf is None or dst.ospf is None:
            continue
        peers.setdefault(edge.target, set()).add(edge.source)
    return peers


def analyze_dataflow(network: Network) -> Dataflow:
    """The network's dataflow summaries, computed once per ``Network``.

    No code edits a ``Network`` once it is built (a changed config is
    a new snapshot, hence a new ``Network``), so the fixpoint is kept
    on the network and lives as long as it does: a cone computed per
    query, or per verdict replay, reads the same summaries.  Callers
    must not mutate the result.
    """
    df = getattr(network, "_dataflow", None)
    if df is None:
        df = network._dataflow = _fixpoint(network)
    return df


def _fixpoint(network: Network) -> Dataflow:
    """Propagate abstract prefix sets to a fixpoint over the network.

    Monotone on a finite lattice (unions widen to ANY past
    :data:`WIDEN_LIMIT`), so the loop terminates; a defensive iteration
    cap widens every summary to ANY instead of ever returning a
    partial — hence unsound — result.
    """
    df = Dataflow(devices=network.devices)
    names = network.router_names()
    for name in names:
        df.origin[name] = _origin_set(network.devices[name])
        df.learned[name] = EMPTY
    ospf_peers = _ospf_peers(network)

    cap = 2 * len(names) + 5
    widened = False
    iterations = 0
    while True:
        iterations += 1
        changed = False
        routes = {name: df.routes(name) for name in names}
        for name in names:
            dev = network.devices[name]
            inflow_total = df.learned[name]
            for session in network.sessions(name):
                inflow = _session_inflow(network, name, session, routes)
                inflow_total = inflow_total.union(
                    transfer(dev, session.nbr.route_map_in, inflow)
                )
            # Sorted: the union's result, and so the iteration count,
            # must not depend on the interpreter's string hash seed.
            for peer in sorted(ospf_peers.get(name, ())):
                # OSPF floods the peer's routing information wholesale
                # (including redistribution); no per-prefix filtering.
                inflow_total = inflow_total.union(routes[peer])
            if inflow_total != df.learned[name]:
                df.learned[name] = inflow_total
                changed = True
        if not changed:
            break
        if iterations >= cap:
            widened = True
            for name in names:
                df.learned[name] = ANY
            break

    # Final pass with the fixpoint (or widened) summaries: per-session
    # inflows, map input sets, and advertised sets.
    routes = {name: df.routes(name) for name in names}
    for name in names:
        dev = network.devices[name]
        advertised = EMPTY
        for session in network.sessions(name):
            nbr = session.nbr
            inflow = _session_inflow(network, name, session, routes)
            key = (name, nbr.peer_ip)
            df.session_inflow[key] = df.session_inflow.get(
                key, EMPTY
            ).union(inflow)
            if nbr.route_map_in and not inflow.is_empty():
                table = df.map_inputs.setdefault(name, {})
                table[nbr.route_map_in] = table.get(
                    nbr.route_map_in, EMPTY
                ).union(inflow)
            if session.peer is not None:
                if nbr.route_map_out:
                    table = df.map_inputs.setdefault(name, {})
                    table[nbr.route_map_out] = table.get(
                        nbr.route_map_out, EMPTY
                    ).union(routes[name])
                advertised = advertised.union(
                    transfer(dev, nbr.route_map_out, routes[name])
                )
        df.advertised[name] = advertised

    df.iterations = iterations
    df.widened = widened
    metrics = obs.metrics()
    metrics.counter("dataflow.fixpoint_iterations").inc(iterations)
    if widened:
        metrics.counter("dataflow.widened").inc()
    return df


# ---------------------------------------------------------------------------
# Loop candidates: the §6.1 pivot set
# ---------------------------------------------------------------------------


def clause_sets_lp_or_metric(clause: RouteMapClause) -> bool:
    """Does the clause set local-preference or the BGP metric?

    Either rewrite can break the strict path-length decrease that
    :func:`loop_candidates` rests on, so such a clause makes its
    device a loop pivot.
    """
    return clause.set_local_pref is not None or clause.set_metric is not None


def loop_candidates(network: Network) -> Tuple[str, ...]:
    """The routers every forwarding loop must pass through (§6.1).

    ``NoForwardingLoops`` pivots exactly these routers; when the tuple
    is empty the property encodes ``TRUE``.  A router is *risky* when
    it has any of:

    * a static route;
    * redistribution into BGP or OSPF;
    * a route-map clause that sets local-preference or metric;
    * an iBGP session;
    * a BGP ``network`` statement while it also runs OSPF.

    Why no loop runs through non-risky routers only.  Along a hop the
    forwarding prefix length never falls: a router forwards on its
    longest match, learned from the next hop, which never advertises a
    longer prefix than it forwards on (aggregation only shortens).  So
    the length is constant around a loop.  At that length a non-risky
    router forwards by BGP or OSPF (a connected route delivers), and
    the selected route's metric strictly decreases along each hop that
    stays in one protocol:

    * eBGP import adds 1 to the path length, and multipath keeps only
      routes that tie the minimum;
    * OSPF adds the link cost, which the parser bounds to 1..65535,
      and a path costing more than 65535 is dropped rather than
      wrapped (the encoder guards OSPF imports wherever the costs
      could sum that high, as ``MAX_BGP_PATH`` does for BGP).

    A loop must then switch from BGP to OSPF at some router that
    exports BGP but forwards by OSPF at one length.  Such a router
    holds no learned BGP route there (eBGP's AD 20 would beat OSPF's
    110), so its BGP route is a local origin.  Redistribution is risky;
    a ``network`` origin wins at metric 0 and is advertise-only, so it
    can close a loop only on a router that forwards the prefix by OSPF
    — hence the last item.  iBGP keeps the path length across a
    session and resolves next hops through the IGP, so it is risky too.

    deps.py hashes this tuple as the ``dataflow:loop-candidates``
    pseudo-fragment of every loop query's verdict-cache key, so an edit
    that flips a device in or out of the set changes the key.
    """
    return tuple(
        name
        for name in network.router_names()
        if _loop_risky(network.device(name))
    )


def _loop_risky(dev: DeviceConfig) -> bool:
    bgp, ospf = dev.bgp, dev.ospf
    return bool(
        dev.static_routes
        or (bgp and (bgp.redistribute or (bgp.networks and ospf)))
        or (ospf and ospf.redistribute)
        or (bgp and any(bgp.is_internal(nbr) for nbr in bgp.neighbors))
        or any(
            clause_sets_lp_or_metric(clause)
            for rmap in dev.route_maps.values()
            for clause in rmap.clauses
        )
    )


# ---------------------------------------------------------------------------
# Cross-device lint rules (XDF001–XDF004)
# ---------------------------------------------------------------------------


# Definite first-match walk for one concrete announced prefix.  All
# matches are concrete — the announced route is exactly (net, length)
# and carries no communities at origination — except a dangling export
# map (the session is dead; REF001/DEP001 territory, not ours).
_PASS, _BLOCK, _UNKNOWN = "pass", "block", "unknown"


def _export_status(
    dev: DeviceConfig, nbr: BgpNeighbor, net: int, length: int
) -> str:
    if nbr.route_map_out is None:
        return _PASS
    rmap = dev.route_maps.get(nbr.route_map_out)
    if rmap is None:
        return _UNKNOWN
    for clause in sorted(rmap.clauses, key=lambda c: c.seq):
        if clause.match_prefix_list is not None:
            plist = dev.prefix_lists.get(clause.match_prefix_list)
            if plist is None or not plist.permits(net, length):
                continue
        if clause.match_community_list is not None:
            clist = dev.community_lists.get(clause.match_community_list)
            # A freshly originated route carries no communities.
            if clist is None or not clist.permits(frozenset()):
                continue
        return _PASS if clause.action == PERMIT else _BLOCK
    return _BLOCK  # ran off the end: implicit deny


def _announced(dev: DeviceConfig) -> List[Tuple[int, int]]:
    if not dev.bgp:
        return []
    return list(dev.bgp.networks) + list(dev.bgp.aggregates)


@rule(
    "XDF001",
    "announced prefix filtered on every egress",
    Severity.WARNING,
    "network",
)
def route_never_arrives(network: Network) -> Iterator[Finding]:
    """A BGP ``network``/``aggregate-address`` statement announces a
    prefix, but the export policy of *every* live session provably
    denies it — the route never leaves the device, so no other device
    can ever hear it.

    The check walks each export map with the concrete announced prefix
    (first match wins, implicit deny at the end); community matches
    evaluate against the empty community set a freshly originated
    route carries.  A single session that passes — or whose policy the
    walk cannot decide — silences the finding.
    """
    for name in network.router_names():
        dev = network.device(name)
        sessions = [
            s.nbr for s in network.sessions(name) if s.peer is not None
        ]
        if not sessions:
            continue  # no propagation paths at all: DEP001's territory
        for net, length in _announced(dev):
            statuses = [
                _export_status(dev, nbr, net, length) for nbr in sessions
            ]
            if all(status == _BLOCK for status in statuses):
                yield Finding(
                    message=(
                        f"{iplib.format_prefix(net, length)} is announced "
                        "but the export policy of every live BGP session "
                        "denies it; the route never leaves this device"
                    ),
                    device=name,
                    line=dev.bgp.line,
                )


@rule(
    "XDF002",
    "import clause shadowed by upstream filtering",
    Severity.WARNING,
    "network",
)
def cross_device_shadowed(network: Network) -> Iterator[Finding]:
    """An import route-map clause matches only prefixes its upstream
    neighbor can never advertise: everything the clause would act on
    is already filtered (or simply never originated) on the other side
    of the session — the static complement of the SMT shadow proofs,
    across a device boundary.

    Only internal sessions with a *nonempty* bounded inflow are
    checked: an external peer may announce anything (ANY), and an
    empty inflow means the session is dead (DEP001's finding, not
    ours).  Stays silent when the fixpoint widened.
    """
    df = analyze_dataflow(network)
    if df.widened:
        return
    for name in network.router_names():
        dev = network.device(name)
        for session in network.sessions(name):
            nbr, owner = session.nbr, session.peer_device
            if not nbr.route_map_in or owner is None:
                continue
            inflow = df.session_inflow.get((name, nbr.peer_ip), EMPTY)
            if inflow.is_any or inflow.is_empty():
                continue
            rmap = dev.route_maps.get(nbr.route_map_in)
            if rmap is None:
                continue
            for clause in rmap.clauses:
                if clause.match_prefix_list is None:
                    continue
                ms = match_set(dev, clause)
                if ms.is_any or ms.is_empty():
                    continue
                if ms.intersect(inflow).is_empty():
                    yield Finding(
                        message=(
                            f"route-map {rmap.name} clause {clause.seq} "
                            f"matches only prefixes neighbor {owner} "
                            f"({iplib.format_ip(nbr.peer_ip)}) can never "
                            "advertise; the clause is cross-device "
                            "shadowed"
                        ),
                        device=name,
                        line=clause.line,
                    )


@rule(
    "XDF003",
    "community set but never matched network-wide",
    Severity.INFO,
    "network",
)
def community_never_matched(network: Network) -> Iterator[Finding]:
    """A route-map clause tags routes with a community value that no
    community-list anywhere in the network matches.  Harmless when the
    tag signals an external AS, but more often a typo — the value set
    on one device silently differs from the one matched on another.
    """
    matched: Set[str] = set()
    for name in network.router_names():
        dev = network.device(name)
        for clist in dev.community_lists.values():
            matched.update(clist.communities)
    for name in network.router_names():
        dev = network.device(name)
        for rmap in dev.route_maps.values():
            for clause in rmap.clauses:
                for community in clause.add_communities:
                    if community not in matched:
                        yield Finding(
                            message=(
                                f"route-map {rmap.name} clause "
                                f"{clause.seq} sets community "
                                f"{community}, which no community-list "
                                "in the network matches"
                            ),
                            device=name,
                            line=clause.line,
                        )


@rule(
    "XDF004",
    "asymmetric filtering across redundant egresses",
    Severity.WARNING,
    "network",
)
def asymmetric_filtering(network: Network) -> Iterator[Finding]:
    """An announced prefix is provably denied by the export policy of
    one live session but provably passed by another: the redundant
    paths advertise inconsistently, so a single session loss silently
    black-holes traffic the other path was supposed to carry.
    """
    for name in network.router_names():
        dev = network.device(name)
        sessions = [
            s.nbr for s in network.sessions(name) if s.peer is not None
        ]
        if len(sessions) < 2:
            continue
        for net, length in _announced(dev):
            statuses = {
                iplib.format_ip(nbr.peer_ip): _export_status(
                    dev, nbr, net, length
                )
                for nbr in sessions
            }
            blocked = sorted(
                ip for ip, s in statuses.items() if s == _BLOCK
            )
            passed = sorted(ip for ip, s in statuses.items() if s == _PASS)
            if blocked and passed:
                yield Finding(
                    message=(
                        f"{iplib.format_prefix(net, length)} is "
                        f"advertised to {', '.join(passed)} but filtered "
                        f"toward {', '.join(blocked)}; redundant paths "
                        "carry asymmetric policy"
                    ),
                    device=name,
                    line=dev.bgp.line,
                )
