"""Routing-policy objects: ACLs, prefix lists, community lists, route maps.

Each object carries both its *declarative* content (used by the symbolic
encoder in :mod:`repro.core.encoder`) and a *concrete* evaluation method
(used by the simulator in :mod:`repro.sim`); agreement between the two
paths is checked by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, List, Optional, Tuple

from . import ip as iplib
from .route import Route

__all__ = [
    "PERMIT",
    "DENY",
    "AclRule",
    "Acl",
    "PrefixListEntry",
    "PrefixList",
    "CommunityList",
    "RouteMapClause",
    "RouteMap",
]

PERMIT = "permit"
DENY = "deny"


@dataclass(frozen=True)
class AclRule:
    """One line of a data-plane access list.

    Matches on the packet's destination prefix and optionally the source
    prefix, IP protocol and destination-port range.  A ``None`` field is a
    wildcard.
    """

    action: str
    dst_network: int = 0
    dst_length: int = 0
    src_network: Optional[int] = None
    src_length: int = 0
    protocol: Optional[int] = None
    dst_port_low: Optional[int] = None
    dst_port_high: Optional[int] = None
    # Source span; provenance only, excluded from equality/hashing.
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def matches(self, dst_ip: int, src_ip: int = 0, protocol: int = 0,
                dst_port: int = 0) -> bool:
        if not iplib.prefix_contains(self.dst_network, self.dst_length,
                                     dst_ip):
            return False
        if self.src_network is not None and not iplib.prefix_contains(
                self.src_network, self.src_length, src_ip):
            return False
        if self.protocol is not None and protocol != self.protocol:
            return False
        if self.dst_port_low is not None:
            if not self.dst_port_low <= dst_port <= (
                    self.dst_port_high
                    if self.dst_port_high is not None else self.dst_port_low):
                return False
        return True


@dataclass(frozen=True)
class Acl:
    """A named access list; Cisco semantics (implicit deny at the end)."""

    name: str
    rules: Tuple[AclRule, ...] = ()
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def permits(self, dst_ip: int, src_ip: int = 0, protocol: int = 0,
                dst_port: int = 0) -> bool:
        for rule in self.rules:
            if rule.matches(dst_ip, src_ip, protocol, dst_port):
                return rule.action == PERMIT
        return False


@dataclass(frozen=True)
class PrefixListEntry:
    """``ip prefix-list NAME permit|deny P/A [ge B] [le C]``.

    Matches a route whose prefix agrees with ``network`` on the first
    ``length`` bits and whose own length lies in ``[ge, le]`` (defaults:
    exactly ``length``).
    """

    action: str
    network: int
    length: int
    ge: Optional[int] = None
    le: Optional[int] = None
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def bounds(self) -> Tuple[int, int]:
        low = self.ge if self.ge is not None else self.length
        high = self.le if self.le is not None else low
        return low, high

    def matches(self, network: int, length: int) -> bool:
        low, high = self.bounds()
        if not low <= length <= high:
            return False
        return iplib.network_of(network, self.length) == iplib.network_of(
            self.network, self.length)


@dataclass(frozen=True)
class PrefixList:
    """Ordered prefix-list entries; first match wins, default deny."""

    name: str
    entries: Tuple[PrefixListEntry, ...] = ()
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def permits(self, network: int, length: int) -> bool:
        for entry in self.entries:
            if entry.matches(network, length):
                return entry.action == PERMIT
        return False


@dataclass(frozen=True)
class CommunityList:
    """A standard community list: permits routes carrying any listed value."""

    name: str
    action: str = PERMIT
    communities: Tuple[str, ...] = ()
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def permits(self, carried: FrozenSet[str]) -> bool:
        hit = any(c in carried for c in self.communities)
        return hit if self.action == PERMIT else not hit


@dataclass(frozen=True)
class RouteMapClause:
    """One ``route-map NAME permit|deny SEQ`` clause."""

    seq: int
    action: str
    match_prefix_list: Optional[str] = None
    match_community_list: Optional[str] = None
    set_local_pref: Optional[int] = None
    set_metric: Optional[int] = None
    set_med: Optional[int] = None
    add_communities: Tuple[str, ...] = ()
    delete_communities: Tuple[str, ...] = ()
    line: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RouteMap:
    """Ordered clauses; first matching clause decides, default deny."""

    name: str
    clauses: Tuple[RouteMapClause, ...] = ()
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def evaluate(self, route: Route, device) -> Optional[Route]:
        """Concrete semantics: transformed route, or None if denied.

        ``device`` provides the prefix-list / community-list definitions the
        match conditions refer to.
        """
        for clause in sorted(self.clauses, key=lambda c: c.seq):
            if not _clause_matches(clause, route, device):
                continue
            if clause.action == DENY:
                return None
            updated = route
            if clause.set_local_pref is not None:
                updated = replace(updated, local_pref=clause.set_local_pref)
            if clause.set_metric is not None:
                updated = replace(updated, metric=clause.set_metric)
            if clause.set_med is not None:
                updated = replace(updated, med=clause.set_med)
            if clause.add_communities or clause.delete_communities:
                comms = set(updated.communities)
                comms |= set(clause.add_communities)
                comms -= set(clause.delete_communities)
                updated = replace(updated, communities=frozenset(comms))
            return updated
        return None


def _clause_matches(clause: RouteMapClause, route: Route, device) -> bool:
    if clause.match_prefix_list is not None:
        plist = device.prefix_lists.get(clause.match_prefix_list)
        if plist is None:
            _dangling(device, "prefix-list", clause.match_prefix_list,
                      clause)
            return False
        if not plist.permits(route.network, route.length):
            return False
    if clause.match_community_list is not None:
        clist = device.community_lists.get(clause.match_community_list)
        if clist is None:
            _dangling(device, "community-list",
                      clause.match_community_list, clause)
            return False
        if not clist.permits(route.communities):
            return False
    return True


def _dangling(device, kind: str, name: str, clause: RouteMapClause) -> None:
    """Report an undefined prefix-list/community-list reference.

    The agreed semantics (a dangling match never matches) are unchanged;
    strict mode — :func:`repro.analysis.hazards.strict_references` —
    raises instead of silently treating the clause as a no-match."""
    from repro.analysis.hazards import dangling_reference

    dangling_reference(
        device=getattr(device, "hostname", ""), kind=kind, name=name,
        context=f"route-map clause seq {clause.seq}", line=clause.line)
