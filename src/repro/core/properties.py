"""The §5 property suite.

Each property contributes (a) an optional destination-prefix restriction,
(b) instrumentation constraints added to the encoding (reachability bits,
path-length counters, waypoint automata, ...), and (c) a boolean *property
term* P.  The verifier asserts the network constraints, the instrumentation
and ¬P; a satisfying assignment is a stable state violating the property.

Reachability-style instrumentation uses the paper's bi-implication form
(``canReach_r ⇔ deliver_r ∨ ⋁ (datafwd ∧ canReach_n)``); its fixpoints
are exact except in the presence of data-plane forwarding loops, which the
dedicated :class:`NoForwardingLoops` property detects exactly (a cycle of
reach bits requires a cycle of datafwd edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.net import ip as iplib
from repro.net.topology import Network
from repro.smt import (
    FALSE,
    TRUE,
    Term,
    and_,
    bv_val,
    eq,
    iff,
    implies,
    not_,
    or_,
    ule,
    ult,
)
from .encoder import EncodedNetwork

__all__ = [
    "announces",
    "silent",
    "no_failures",
    "Property",
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
    "LoadBalanced",
    "FaultInvariance",
    "PairwiseFaultInvariance",
    "FullEquivalence",
    "reach_instrumentation",
    "path_length_instrumentation",
]

PATHLEN_WIDTH = 8


@dataclass(frozen=True)
class Copy:
    """A network copy to encode: name prefix, network (None: the verified
    one) and encoder options set over the group's.  A copy that sets
    ``max_failures`` does not take the query's failure bound."""

    ns: str = ""
    network: Optional[Network] = None
    overrides: Tuple[Tuple[str, object], ...] = ()


ONE_COPY = (Copy(),)


class Property:
    """Base class; subclasses implement :meth:`encode`."""

    #: minimum number of failures the encoding must model
    failures_needed: int = 0

    #: the network copies :meth:`encode` takes, one encoding each: the
    #: relational §5 checks compare two over one packet and environment
    copies: Tuple[Copy, ...] = ONE_COPY

    #: the destination prefix the packet is restricted to, if any
    dest_prefix_text: Optional[str] = None

    def dst_prefix(self) -> Optional[Tuple[int, int]]:
        """Optional (network, length) restriction on the packet."""
        if self.dest_prefix_text is None:
            return None
        return iplib.parse_prefix(self.dest_prefix_text)

    def encode(self, enc: EncodedNetwork) -> Term:
        """Add instrumentation to ``enc`` (one per copy) and return the
        property term P."""
        raise NotImplementedError

    def describe_violation(self, enc: EncodedNetwork, model) -> str:
        """One-line interpretation of a counterexample model (``enc``:
        the first copy that takes the query's failure bound)."""
        return f"{type(self).__name__} violated"


# ---------------------------------------------------------------------------
# Instrumentation helpers
# ---------------------------------------------------------------------------

def _internal_targets(enc: EncodedNetwork, router: str) -> List[str]:
    return [t for t in enc.targets_of(router) if t in enc.network.devices]


def reach_instrumentation(enc: EncodedNetwork,
                          base: Dict[str, Term],
                          tag: str) -> Dict[str, Term]:
    """Per-router ``canReach`` bits over the data-plane forwarding relation
    (§3 step 8).  ``base`` gives each router's direct-delivery condition."""
    reach = {r: enc.fresh_bool(f"reach.{tag}[{r}]") for r in enc.routers()}
    for router in enc.routers():
        hops = [and_(enc.data_fwd(router, t), reach[t])
                for t in _internal_targets(enc, router)]
        enc.add(iff(reach[router],
                    or_(base.get(router, FALSE), *hops)))
    return reach


def path_length_instrumentation(enc: EncodedNetwork,
                                reach: Dict[str, Term],
                                tag: str) -> Dict[str, Term]:
    """Per-router hop counters: delivery is length 0; forwarding to a
    reaching neighbor adds one (§5 bounded/equal path length)."""
    length = {r: enc.fresh_bv(f"plen.{tag}[{r}]", PATHLEN_WIDTH)
              for r in enc.routers()}
    one = bv_val(1, PATHLEN_WIDTH)
    for router in enc.routers():
        enc.add(implies(enc.local_deliver.get(router, FALSE),
                        eq(length[router], bv_val(0, PATHLEN_WIDTH))))
        for target in enc.targets_of(router):
            if target in enc.network.devices:
                enc.add(implies(
                    and_(enc.data_fwd(router, target), reach[target]),
                    eq(length[router],
                       _bv_inc(length[target]))))
            else:
                # Exit edges count as a single hop.
                enc.add(implies(enc.data_fwd(router, target),
                                eq(length[router], one)))
    return length


def _bv_inc(term: Term) -> Term:
    from repro.smt import bv_add
    return bv_add(term, bv_val(1, PATHLEN_WIDTH))


def _delivery_base(enc: EncodedNetwork,
                   dest_peer: Optional[str]) -> Dict[str, Term]:
    """Direct-delivery condition per router: local delivery for prefix
    destinations, or the exit edge toward a named external peer."""
    base: Dict[str, Term] = {}
    for router in enc.routers():
        if dest_peer is None:
            base[router] = enc.local_deliver.get(router, FALSE)
        else:
            base[router] = enc.data_fwd(router, dest_peer)
    return base


# ---------------------------------------------------------------------------
# Reachability / isolation
# ---------------------------------------------------------------------------

@dataclass
class Reachability(Property):
    """Sources can reach the destination in every stable state.

    The destination is a prefix (delivered to a matching subnet/interface)
    or a named external peer (traffic exits through that peer).  Leaving
    ``sources`` as ``"all"`` checks every router in a single query — the
    graph-based advantage the paper highlights in §5/§8.
    """

    sources: Union[str, Sequence[str]] = "all"
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None
    failures_needed: int = 0

    def __post_init__(self):
        if self.dest_prefix_text is None and self.dest_peer is None:
            raise ValueError("Reachability needs a destination")

    def source_list(self, enc: EncodedNetwork) -> List[str]:
        if self.sources == "all":
            return enc.routers()
        return list(self.sources)

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        reach = reach_instrumentation(enc, base, tag="main")
        self._reach = reach
        return and_(*[reach[s] for s in self.source_list(enc)])

    def describe_violation(self, enc, model) -> str:
        missing = [s for s in self.source_list(enc)
                   if not model.eval(self._reach[s])]
        dst = model.eval(enc.dst_ip)
        return (f"unreachable from {', '.join(missing)} "
                f"for dstIp={iplib.format_ip(dst)}")


@dataclass
class Isolation(Property):
    """Sources can never reach the destination (in any stable state)."""

    sources: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None
    failures_needed: int = 0

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        reach = reach_instrumentation(enc, base, tag="iso")
        self._reach = reach
        return and_(*[not_(reach[s]) for s in self.sources])

    def describe_violation(self, enc, model) -> str:
        leaky = [s for s in self.sources if model.eval(self._reach[s])]
        dst = model.eval(enc.dst_ip)
        return (f"isolation breached from {', '.join(leaky)} "
                f"for dstIp={iplib.format_ip(dst)}")


# ---------------------------------------------------------------------------
# Waypointing
# ---------------------------------------------------------------------------

@dataclass
class Waypointing(Property):
    """All delivered traffic from ``source`` traverses the waypoint chain
    ``waypoints`` in order (§5: k bits per router)."""

    source: str = ""
    waypoints: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        chain = list(self.waypoints)
        k = len(chain)
        # bad[j][r]: some forwarding branch from r delivers while fewer
        # than the remaining waypoints chain[j:] have been visited in
        # order.  The property is the absence of such a branch from the
        # source (over ALL multipath branches, unlike a some-path check).
        bad: List[Dict[str, Term]] = [
            {r: enc.fresh_bool(f"wpbad{j}[{r}]") for r in enc.routers()}
            for j in range(k)
        ]
        for router in enc.routers():
            for j in range(k):
                branches = []
                for target in _internal_targets(enc, router):
                    nxt = j + 1 if target == chain[j] else j
                    escapes = FALSE if nxt >= k else bad[nxt][target]
                    branches.append(and_(enc.data_fwd(router, target),
                                         escapes))
                premature = base.get(router, FALSE)
                enc.add(iff(bad[j][router], or_(premature, *branches)))
        start = 1 if chain and self.source == chain[0] else 0
        self._ok = TRUE if start >= k else not_(bad[start][self.source])
        return self._ok

    def describe_violation(self, enc, model) -> str:
        return (f"traffic from {self.source} reaches the destination "
                f"bypassing waypoints {list(self.waypoints)}")


# ---------------------------------------------------------------------------
# Path lengths
# ---------------------------------------------------------------------------

@dataclass
class BoundedPathLength(Property):
    """Delivered traffic from the sources takes at most ``bound`` hops."""

    sources: Union[str, Sequence[str]] = "all"
    bound: int = 4
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        reach = reach_instrumentation(enc, base, tag="bpl")
        length = path_length_instrumentation(enc, reach, tag="bpl")
        sources = enc.routers() if self.sources == "all" \
            else list(self.sources)
        limit = bv_val(self.bound, PATHLEN_WIDTH)
        self._reach, self._length = reach, length
        return and_(*[implies(reach[s], ule(length[s], limit))
                      for s in sources])

    def describe_violation(self, enc, model) -> str:
        sources = enc.routers() if self.sources == "all" \
            else list(self.sources)
        bad = [(s, model.eval(self._length[s])) for s in sources
               if model.eval(self._reach[s])
               and model.eval(self._length[s]) > self.bound]
        return f"path length bound {self.bound} exceeded: {bad}"


@dataclass
class EqualPathLengths(Property):
    """All given routers use equal-length paths to the destination."""

    routers: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        reach = reach_instrumentation(enc, base, tag="eql")
        length = path_length_instrumentation(enc, reach, tag="eql")
        group = list(self.routers)
        parts = []
        for a, b in zip(group, group[1:]):
            parts.append(implies(and_(reach[a], reach[b]),
                                 eq(length[a], length[b])))
        self._reach, self._length = reach, length
        return and_(*parts)

    def describe_violation(self, enc, model) -> str:
        lens = {r: model.eval(self._length[r]) for r in self.routers
                if model.eval(self._reach[r])}
        return f"unequal path lengths: {lens}"


# ---------------------------------------------------------------------------
# Disjoint paths
# ---------------------------------------------------------------------------

@dataclass
class DisjointPaths(Property):
    """Two routers use link-disjoint forwarding paths (§5)."""

    router_a: str = ""
    router_b: str = ""
    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        used = {}
        for tag, start in (("a", self.router_a), ("b", self.router_b)):
            on_path = {r: enc.fresh_bool(f"onpath.{tag}[{r}]")
                       for r in enc.routers()}
            for router in enc.routers():
                feeds = [and_(on_path[s], enc.data_fwd(s, router))
                         for s in enc.routers()
                         if router in enc.targets_of(s)]
                base = TRUE if router == start else FALSE
                enc.add(iff(on_path[router], or_(base, *feeds)))
            used[tag] = on_path
        # A path uses an undirected link if it forwards along either
        # direction of it; disjointness forbids both paths using one link.
        parts = []
        seen = set()
        for (router, target) in list(enc.fwd):
            if target not in enc.network.devices:
                continue
            key = tuple(sorted((router, target)))
            if key in seen:
                continue
            seen.add(key)
            def uses(tag: str) -> Term:
                return or_(
                    and_(used[tag][router], enc.data_fwd(router, target)),
                    and_(used[tag][target], enc.data_fwd(target, router)))
            parts.append(not_(and_(uses("a"), uses("b"))))
        return and_(*parts)


# ---------------------------------------------------------------------------
# Loops and black holes
# ---------------------------------------------------------------------------

@dataclass
class NoForwardingLoops(Property):
    """No data-plane forwarding loop exists (exact; §5).

    ``candidates`` limits the per-router instrumentation to routers where
    loops are possible.  The default applies the paper's §6.1
    optimization: pivot exactly the *risky* routers, those with a static
    route, redistribution, a route-map clause setting local-preference
    or metric, an iBGP session, or a BGP ``network`` statement alongside
    OSPF.  Every forwarding loop passes through a risky router: between
    them the selected route's metric strictly decreases hop by hop (the
    full argument and its assumptions are on
    :func:`repro.analysis.dataflow.loop_candidates`).  With no risky
    router there are no pivots and the property encodes ``TRUE``.
    """

    candidates: Optional[Sequence[str]] = None
    dest_prefix_text: Optional[str] = None

    @staticmethod
    def default_candidates(enc: EncodedNetwork) -> List[str]:
        from repro.analysis.dataflow import loop_candidates

        return list(loop_candidates(enc.network))

    def encode(self, enc: EncodedNetwork) -> Term:
        routers = list(self.candidates) if self.candidates is not None \
            else self.default_candidates(enc)
        parts = []
        self._loop_bits = {}
        for pivot in routers:
            through = {r: enc.fresh_bool(f"thru.{pivot}[{r}]")
                       for r in enc.routers()}
            for router in enc.routers():
                hops = []
                for target in _internal_targets(enc, router):
                    arrives = TRUE if target == pivot else through[target]
                    hops.append(and_(enc.data_fwd(router, target), arrives))
                enc.add(iff(through[router], or_(*hops)))
            self._loop_bits[pivot] = through[pivot]
            parts.append(not_(through[pivot]))
        return and_(*parts)

    def describe_violation(self, enc, model) -> str:
        looped = [p for p, bit in self._loop_bits.items()
                  if model.eval(bit)]
        dst = model.eval(enc.dst_ip)
        return (f"forwarding loop through {', '.join(looped)} for "
                f"dstIp={iplib.format_ip(dst)}")


@dataclass
class NoBlackHoles(Property):
    """Traffic never arrives at a router that drops it (§5).

    ``allowed`` lists routers where dropping is acceptable (e.g. the edge
    routers applying ingress policy in the §8.1 check).
    """

    allowed: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        allowed = set(self.allowed)
        parts = []
        self._holes = {}
        for router in enc.routers():
            if router in allowed:
                continue
            incoming = [enc.data_fwd(s, router) for s in enc.routers()
                        if router in enc.targets_of(s)]
            if not incoming:
                continue
            outgoing = [enc.data_fwd(router, t)
                        for t in enc.targets_of(router)]
            hole = and_(or_(*incoming),
                        not_(or_(enc.local_deliver.get(router, FALSE),
                                 *outgoing)))
            self._holes[router] = hole
            parts.append(not_(hole))
        return and_(*parts)

    def describe_violation(self, enc, model) -> str:
        holes = [r for r, h in self._holes.items() if model.eval(h)]
        dst = model.eval(enc.dst_ip)
        return (f"black hole at {', '.join(holes)} for "
                f"dstIp={iplib.format_ip(dst)}")


# ---------------------------------------------------------------------------
# Multipath consistency
# ---------------------------------------------------------------------------

@dataclass
class MultipathConsistency(Property):
    """Traffic is treated identically along all multipath branches (§5)."""

    dest_prefix_text: Optional[str] = None
    dest_peer: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        base = _delivery_base(enc, self.dest_peer)
        reach = reach_instrumentation(enc, base, tag="mpc")
        parts = []
        for router in enc.routers():
            for target in enc.targets_of(router):
                follow = enc.data_fwd(router, target)
                if target in enc.network.devices:
                    follow = and_(follow, reach[target])
                elif self.dest_peer is not None and target != self.dest_peer:
                    follow = FALSE
                parts.append(implies(
                    and_(reach[router], enc.control_fwd(router, target)),
                    follow))
        self._reach = reach
        return and_(*parts)

    def describe_violation(self, enc, model) -> str:
        return "multipath branches disagree (one delivers, one drops)"


# ---------------------------------------------------------------------------
# Preferences
# ---------------------------------------------------------------------------

@dataclass
class NeighborPreference(Property):
    """``router`` prefers its external neighbors in the given order (§5)."""

    router: str = ""
    peers_in_order: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        parts = []
        records = []
        for peer in self.peers_in_order:
            rec = enc.bgp_inputs.get((self.router, peer))
            if rec is None:
                raise ValueError(f"no BGP session {self.router} <- {peer}")
            records.append(rec)
        for i, peer in enumerate(self.peers_in_order):
            more_preferred_absent = and_(
                *[not_(records[j].valid) for j in range(i)])
            # Longest-prefix match precedes policy preference: the check
            # applies only when no other candidate out-prefixes this one.
            not_outprefixed = and_(*[
                implies(records[j].valid,
                        ule(records[j].prefix_len, records[i].prefix_len))
                for j in range(len(records)) if j != i])
            parts.append(implies(
                and_(records[i].valid, more_preferred_absent,
                     not_outprefixed),
                enc.control_fwd(self.router, peer)))
        return and_(*parts)


@dataclass
class PathPreference(Property):
    """Traffic uses ``preferred`` unless an advertisement was rejected
    along it (§5: path-level preferences).

    Scope the check with ``dest_prefix_text`` (e.g. the external space the
    preference applies to); otherwise packets addressed to link
    infrastructure follow connected routes, which trivially "violates"
    any policy-path preference.
    """

    preferred: Sequence[str] = ()      # routers, traffic order
    fallback: Sequence[str] = ()
    dest_prefix_text: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        fallback_used = and_(*[
            enc.control_fwd(a, b)
            for a, b in zip(self.fallback, self.fallback[1:])])
        fallback_recs = [
            enc.bgp_inputs[(a, b)]
            for a, b in zip(self.fallback, self.fallback[1:])
            if (a, b) in enc.bgp_inputs]
        excused = []
        for a, b in zip(self.preferred, self.preferred[1:]):
            rec = enc.bgp_inputs.get((a, b))
            if rec is None:
                excused.append(TRUE)
                continue
            # The advertisement was rejected along the preferred path, or
            # longest-prefix match overrode policy (a fallback record
            # carries a strictly longer prefix).
            out_prefixed = [and_(fb.valid,
                                 ult(rec.prefix_len, fb.prefix_len))
                            for fb in fallback_recs]
            excused.append(or_(not_(rec.valid), *out_prefixed))
        return implies(fallback_used, or_(*excused))


# ---------------------------------------------------------------------------
# Prefix leaks / aggregation
# ---------------------------------------------------------------------------

@dataclass
class NoPrefixLeak(Property):
    """No advertisement longer than ``max_length`` escapes to external
    peers (§5 aggregation: e.g. a /32 must never leak).

    With an unconstrained environment, routes *learned* from one external
    peer may be re-exported to another at their announced length; to check
    only internally-originated advertisements, verify under
    :func:`silent` assumptions for the external peers.
    """

    max_length: int = 24
    routers: Optional[Sequence[str]] = None
    dest_prefix_text: Optional[str] = None

    def encode(self, enc: EncodedNetwork) -> Term:
        parts = []
        self._leaks = {}
        for (router, peer), record in enc.export_to_ext.items():
            if self.routers is not None and router not in self.routers:
                continue
            leak = and_(record.valid,
                        not_(ule(record.prefix_len,
                                 enc.factory.len_const(self.max_length))))
            self._leaks[(router, peer)] = leak
            parts.append(not_(leak))
        return and_(*parts)

    def describe_violation(self, enc, model) -> str:
        leaked = [f"{r}->{p}" for (r, p), term in self._leaks.items()
                  if model.eval(term)]
        return f"prefix longer than /{self.max_length} leaked: {leaked}"


# ---------------------------------------------------------------------------
# Load balancing (checked by the verifier's lazy refinement loop)
# ---------------------------------------------------------------------------

@dataclass
class LoadBalanced(Property):
    """Traffic load difference between two routers stays within a
    threshold (§5).  Uses exact rational flow computation per stable state
    via the verifier's lazy refinement loop rather than a direct SMT
    encoding (the arithmetic is linear real, not boolean).
    """

    source_loads: Dict[str, float] = field(default_factory=dict)
    monitor: Sequence[Tuple[str, str]] = ()
    threshold: float = 0.0
    dest_prefix_text: Optional[str] = None

    lazy = True  # checked per stable state by GroupEncoding.solve_one

    def encode(self, enc: EncodedNetwork) -> Term:
        # No boolean property term: the verifier enumerates stable states
        # and checks flows concretely.
        return TRUE

    def describe_violation(self, enc: EncodedNetwork, model) -> str:
        return (self.check_model(enc, model)
                or super().describe_violation(enc, model))

    def check_model(self, enc: EncodedNetwork, model) -> Optional[str]:
        """Exact flow check for one stable state; returns a violation
        message or None."""
        from fractions import Fraction

        from repro.smt import LinExpr, solve_linear_system

        equations = []
        incoming: Dict[str, List[LinExpr]] = {r: [] for r in enc.routers()}
        for router in enc.routers():
            targets = [t for t in enc.targets_of(router)
                       if model.eval(enc.data_fwd(router, t))]
            share = LinExpr.var(f"share[{router}]")
            outs = []
            for target in targets:
                out = LinExpr.var(f"out[{router},{target}]")
                equations.append((out, share))
                outs.append(out)
                if target in incoming:
                    incoming[target].append(out)
            total = LinExpr.var(f"total[{router}]")
            if outs:
                equations.append((sum(outs[1:], outs[0]), total))
            else:
                equations.append((share, LinExpr.constant(0)))
        for router in enc.routers():
            inject = Fraction(str(self.source_loads.get(router, 0)))
            total = LinExpr.var(f"total[{router}]")
            acc = LinExpr.constant(inject)
            for term in incoming[router]:
                acc = acc + term
            equations.append((total, acc))
        env = solve_linear_system(equations)
        if env is None:
            return "flow equations inconsistent (forwarding loop?)"
        threshold = Fraction(str(self.threshold))
        for a, b in self.monitor:
            ta = env.get(f"total[{a}]", Fraction(0))
            tb = env.get(f"total[{b}]", Fraction(0))
            if abs(ta - tb) > threshold:
                return (f"load imbalance {a}={ta} vs {b}={tb} "
                        f"exceeds {self.threshold}")
        return None


# ---------------------------------------------------------------------------
# Relational checks (§5): two copies, one packet, one environment
# ---------------------------------------------------------------------------

_FAILURE_FREE = Copy("c0.", overrides=(("max_failures", 0),))


@dataclass
class FaultInvariance(Property):
    """``prop`` holds with no failures (copy ``c0.``) exactly when it
    holds under the query's ``k`` or more failures (copy ``c1.``)."""

    prop: Property
    k: int = 1

    copies = (_FAILURE_FREE, Copy("c1."))

    def __post_init__(self):
        if getattr(self.prop, "lazy", False):
            raise ValueError(f"fault invariance needs a property term, and "
                             f"{type(self.prop).__name__} is lazy: it is "
                             f"checked per stable state")
        self.failures_needed = self.k
        self.dest_prefix_text = self.prop.dest_prefix_text

    def encode(self, enc0: EncodedNetwork, enc1: EncodedNetwork) -> Term:
        return iff(self.prop.encode(enc0), self.prop.encode(enc1))

    def describe_violation(self, enc, model) -> str:
        failed = [key for bits in (enc.failed, enc.failed_ext)
                  for key, term in bits.items() if model.eval(term)]
        return f"behaviour differs when links {failed} fail"


@dataclass
class PairwiseFaultInvariance(Property):
    """Every router reaches the destination after any ``k`` internal
    link failures exactly when it does with none (§8.1's fourth check).
    An external session flap changes the environment, which both copies
    share, not the network (the paper's zero-violation finding)."""

    k: int = 1
    dest_prefix_text: Optional[str] = None

    copies = (_FAILURE_FREE,
              Copy("c1.", overrides=(("fail_external", False),)))

    def __post_init__(self):
        self.failures_needed = self.k

    def encode(self, enc0: EncodedNetwork, enc1: EncodedNetwork) -> Term:
        self._reach = [
            reach_instrumentation(enc, _delivery_base(enc, None), f"fi{i}")
            for i, enc in enumerate((enc0, enc1))]
        reach0, reach1 = self._reach
        return and_(*[iff(reach0[r], reach1[r]) for r in reach0])

    def describe_violation(self, enc, model) -> str:
        reach0, reach1 = self._reach
        diff = [r for r in reach0
                if model.eval(reach0[r]) != model.eval(reach1[r])]
        return f"reachability of {diff} changes under failure"


@dataclass
class FullEquivalence(Property):
    """The verified network (copy ``A.``) and ``other`` (``B.``) make
    the same forwarding decisions and exports to external peers, paired
    by name (§5)."""

    other: Network

    def __post_init__(self):
        self.copies = (Copy("A."), Copy("B.", network=self.other))

    def encode(self, enc_a: EncodedNetwork, enc_b: EncodedNetwork) -> Term:
        # Sorted, so term ids (and the search) never follow the
        # string-hash order.
        agree = [iff(enc_a.data_fwd(*key), enc_b.data_fwd(*key))
                 for key in sorted(set(enc_a.fwd) | set(enc_b.fwd))]
        for key in sorted(set(enc_a.export_to_ext)
                          & set(enc_b.export_to_ext)):
            agree.extend(enc_a.factory.equate(enc_a.export_to_ext[key],
                                              enc_b.export_to_ext[key]))
        return and_(*agree)

    def describe_violation(self, enc, model) -> str:
        return "networks diverge on some packet/environment"


# ---------------------------------------------------------------------------
# Environment assumptions (used with Verifier.verify(..., assumptions=...))
# ---------------------------------------------------------------------------

# Assumptions are callable dataclasses rather than closures so that batch
# queries carrying them can be pickled to worker processes.

@dataclass(frozen=True)
class _Announces:
    peer: str
    min_length: int = 0
    max_length: int = 32
    max_path: Optional[int] = None

    def __call__(self, enc: EncodedNetwork) -> Term:
        record = enc.env[self.peer]
        width = record.prefix_len.width
        parts = [record.valid,
                 ule(bv_val(self.min_length, width), record.prefix_len),
                 ule(record.prefix_len, bv_val(self.max_length, width))]
        if self.max_path is not None:
            parts.append(ule(record.metric,
                             enc.factory.metric_const(self.max_path)))
        return and_(*parts)


@dataclass(frozen=True)
class _Silent:
    peer: str

    def __call__(self, enc: EncodedNetwork) -> Term:
        return not_(enc.env[self.peer].valid)


@dataclass(frozen=True)
class _NoFailures:
    def __call__(self, enc: EncodedNetwork) -> Term:
        return and_(*[not_(b) for b in enc.failure_bits()])


def announces(peer: str, min_length: int = 0, max_length: int = 32,
              max_path: Optional[int] = None):
    """Assumption: the named external peer advertises a route covering the
    packet's destination, with the given prefix-length window."""
    return _Announces(peer, min_length, max_length, max_path)


def silent(peer: str):
    """Assumption: the named external peer advertises nothing."""
    return _Silent(peer)


def no_failures():
    """Assumption: every modeled link is up."""
    return _NoFailures()
