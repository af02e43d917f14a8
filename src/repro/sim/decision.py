"""Route selection: the decision process shared by all protocol instances.

The symbolic encoder mirrors this logic constraint-for-constraint; the
agreement tests in ``tests/integration`` keep the two in sync.

Within a protocol instance the comparison is protocol specific:

* BGP — higher local-pref, then shorter AS path (the ``metric``), then lower
  MED (subject to the configured MED mode), then eBGP over iBGP, then lower
  neighbor router id.
* OSPF — lower path cost, then lower router id.
* static/connected — longest prefix handled upstream; ties broken on
  router id for determinism.

A route's ``router_id`` is its sender's rank in ``Network.ranks``
(router id, then name), the number the encoder gives the sender too.

Across protocol instances the route with the lowest administrative distance
wins (paper §3 step 5: ``bestoverall``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.net.route import Route

__all__ = ["bgp_prefers", "protocol_key", "select_best", "overall_best"]


def bgp_prefers(a: Route, b: Route, med_mode: str = "always") -> bool:
    """Does BGP strictly prefer ``a`` over ``b``?"""
    if a.local_pref != b.local_pref:
        return a.local_pref > b.local_pref
    if a.metric != b.metric:
        return a.metric < b.metric
    if med_mode == "always" and a.med != b.med:
        return a.med < b.med
    if med_mode == "same-as":
        same_neighbor_as = (a.as_path[:1] == b.as_path[:1])
        if same_neighbor_as and a.med != b.med:
            return a.med < b.med
    if a.bgp_internal != b.bgp_internal:
        return not a.bgp_internal
    return a.router_id < b.router_id


def protocol_key(route: Route, med_mode: str = "always"):
    """A sort key matching the per-protocol preference (smaller = better).

    For the ``same-as`` MED mode, comparison is not expressible as a static
    key; callers needing that mode use :func:`select_best`, which falls back
    to pairwise :func:`bgp_prefers`.
    """
    if route.protocol == "bgp":
        med = route.med if med_mode == "always" else 0
        return (-route.local_pref, route.metric, med,
                1 if route.bgp_internal else 0, route.router_id)
    if route.protocol == "ospf":
        return (route.metric, route.router_id)
    return (route.metric, route.router_id)


def select_best(routes: Sequence[Route], med_mode: str = "always",
                multipath: bool = False) -> List[Route]:
    """Best route(s) of one protocol instance for one prefix.

    Returns a singleton unless ``multipath`` is set, in which case every
    route tied with the winner up to (but excluding) the router-id tie-break
    is included — the paper's §4 multipath relaxation.
    """
    if not routes:
        return []
    protocol = routes[0].protocol
    if protocol == "bgp" and med_mode == "same-as":
        best = routes[0]
        for candidate in routes[1:]:
            if bgp_prefers(candidate, best, med_mode):
                best = candidate
    else:
        best = min(routes, key=lambda r: protocol_key(r, med_mode))
    if not multipath:
        return [best]
    best_key = _multipath_key(best, med_mode)
    tied = [r for r in routes if _multipath_key(r, med_mode) == best_key]
    # Deterministic order for reproducible traces.
    tied.sort(key=lambda r: r.router_id)
    return tied


def _multipath_key(route: Route, med_mode: str):
    key = protocol_key(route, med_mode)
    return key[:-1]  # drop the router-id tie-break


def overall_best(per_protocol: Iterable[List[Route]]) -> List[Route]:
    """Cross-protocol selection: lowest administrative distance wins.

    ``per_protocol`` holds each protocol instance's already-selected best
    set; the sets all target the same prefix.
    """
    groups = [grp for grp in per_protocol if grp]
    if not groups:
        return []
    winner = min(groups, key=lambda grp: (grp[0].ad, grp[0].protocol))
    return winner
