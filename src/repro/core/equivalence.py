"""Local equivalence of two routers (§5).

Encodes the two routers *in isolation* with shared symbolic inputs: a
symbolic packet, one shared symbolic route record per paired BGP session,
and a shared symbolic best route for the export direction.  The routers
are equivalent when, for every input, paired import filters produce equal
records, paired export filters produce equal records, and paired interface
ACLs make identical packet decisions.

Sessions are paired in sorted order (external peers first, then internal,
by address); interfaces are paired by sorted name — the convention the
role-based checks of §8.1 rely on (same-role devices are generated from
the same template, so ordering is stable).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.net import ip as iplib
from repro.net.device import DeviceConfig
from repro.net.topology import Network
from repro.smt import (
    FALSE,
    Solver,
    Term,
    TRUE,
    and_,
    bv_var,
    iff,
    not_,
    or_,
)
from .encoder import EncoderOptions
from .policy_smt import PacketVars, acl_term, apply_route_map
from .records import FieldSet, RecordFactory, Widths

__all__ = ["check_local_equivalence"]


def check_local_equivalence(network: Network, router_a: str, router_b: str,
                            options: Optional[EncoderOptions] = None,
                            conflict_budget: Optional[int] = None,
                            iface_pairing: str = "sorted"):
    """``iface_pairing`` controls how interfaces are matched:

    * ``"sorted"`` (default) — position-wise over name-sorted interfaces;
      differing interface counts are a structural inequivalence.
    * ``"by-name"`` — only interfaces present on both routers under the
      same name are compared (role checks over asymmetric topologies:
      the role-defining ``mgmt``/``rack`` interfaces pair up, point-to-
      point link interfaces are ignored).
    """
    from .verifier import (VerificationResult, _query_tracer, _result,
                           _span_stats)

    options = options or EncoderOptions()
    dev_a = network.device(router_a)
    dev_b = network.device(router_b)
    name = f"LocalEquivalence[{router_a},{router_b}]"
    structural = _structural_mismatch(
        dev_a, dev_b, check_ifaces=iface_pairing == "sorted")
    tracer = _query_tracer()
    root = tracer.span("verify.local_equivalence",
                       routers=f"{router_a},{router_b}")
    if structural is not None:
        # Decided without an encoding: the root span has no children.
        with root:
            pass
        return VerificationResult(property_name=name, holds=False,
                                  message=structural,
                                  seconds=root.duration)
    with root:
        with tracer.span("verify.encode") as sp_shared:
            packet, differences = _differences(
                network, dev_a, dev_b, options, iface_pairing)
            solver = Solver(conflict_budget=conflict_budget,
                            preprocess=options.preprocess)
        with tracer.span("verify.property", property=name) as sp_query:
            solver.add(or_(*differences) if differences else FALSE,
                       label="property")
        with tracer.span("verify.solve") as sp_solve:
            outcome = solver.check()
        result = _result(
            name, outcome, solver, tracer,
            lambda model: (None, (
                f"{router_a} and {router_b} differ, e.g. for dstIp="
                f"{iplib.format_ip(model.eval(packet.dst_ip))}")))
    return replace(result, **_span_stats(
        root.duration, sp_shared.duration, sp_query,
        [(sp_solve, solver.last_check_stats["conflicts"])], solver))


def _differences(network: Network, dev_a: DeviceConfig,
                 dev_b: DeviceConfig, options: EncoderOptions,
                 iface_pairing: str) -> Tuple[PacketVars, List[Term]]:
    """The shared symbolic packet plus one term per paired decision
    that is true when the two routers decide differently."""
    factory = RecordFactory(Widths(), _field_set(network, options))
    packet = PacketVars(
        dst_ip=bv_var("eqv.pkt.dstIp", 32),
        src_ip=bv_var("eqv.pkt.srcIp", 32),
        protocol=bv_var("eqv.pkt.proto", 8),
        dst_port=bv_var("eqv.pkt.dstPort", 16),
        src_port=bv_var("eqv.pkt.srcPort", 16),
    )
    differences: List[Term] = []

    # Paired interfaces: ACL decisions on the symbolic packet must agree.
    if iface_pairing == "by-name":
        shared = sorted(set(dev_a.interfaces) & set(dev_b.interfaces))
        pairs = [(dev_a.interfaces[n], dev_b.interfaces[n])
                 for n in shared]
    else:
        pairs = list(zip(_sorted_ifaces(dev_a), _sorted_ifaces(dev_b)))
    for if_a, if_b in pairs:
        for attr in ("acl_in", "acl_out"):
            term_a = _acl_decision(dev_a, getattr(if_a, attr), packet)
            term_b = _acl_decision(dev_b, getattr(if_b, attr), packet)
            differences.append(not_(iff(term_a, term_b)))

    # Paired BGP sessions: shared symbolic input through each import
    # filter, shared symbolic best through each export filter.
    sessions_a = _sorted_sessions(network, dev_a)
    sessions_b = _sorted_sessions(network, dev_b)
    hoisted = options.hoist_prefixes
    for i, (nbr_a, nbr_b) in enumerate(zip(sessions_a, sessions_b)):
        shared_in = factory.fresh(f"eqv.in[{i}]")
        imported_a = _through_map(factory, dev_a, nbr_a.route_map_in,
                                  shared_in, packet, hoisted, f"a.imp{i}")
        imported_b = _through_map(factory, dev_b, nbr_b.route_map_in,
                                  shared_in, packet, hoisted, f"b.imp{i}")
        differences.append(not_(and_(
            *factory.equate(imported_a, imported_b))))
        shared_best = factory.fresh(f"eqv.best[{i}]")
        exported_a = _through_map(factory, dev_a, nbr_a.route_map_out,
                                  shared_best, packet, hoisted, f"a.exp{i}")
        exported_b = _through_map(factory, dev_b, nbr_b.route_map_out,
                                  shared_best, packet, hoisted, f"b.exp{i}")
        differences.append(not_(and_(
            *factory.equate(exported_a, exported_b))))
    return packet, differences


def _structural_mismatch(dev_a: DeviceConfig, dev_b: DeviceConfig,
                         check_ifaces: bool = True) -> Optional[str]:
    if check_ifaces and len(dev_a.interfaces) != len(dev_b.interfaces):
        return "different interface counts"
    sessions_a = len(dev_a.bgp.neighbors) if dev_a.bgp else 0
    sessions_b = len(dev_b.bgp.neighbors) if dev_b.bgp else 0
    if sessions_a != sessions_b:
        return "different BGP session counts"
    if (dev_a.bgp is None) != (dev_b.bgp is None):
        return "BGP enabled on only one router"
    if (dev_a.ospf is None) != (dev_b.ospf is None):
        return "OSPF enabled on only one router"
    return None


def _field_set(network: Network, options: EncoderOptions) -> FieldSet:
    communities = set()
    for dev in network.devices.values():
        for rmap in dev.route_maps.values():
            for clause in rmap.clauses:
                communities.update(clause.add_communities)
                communities.update(clause.delete_communities)
        for clist in dev.community_lists.values():
            communities.update(clist.communities)
    return FieldSet(local_pref=True, med=True,
                    communities=tuple(sorted(communities)),
                    explicit_prefix=not options.hoist_prefixes)


def _sorted_ifaces(dev: DeviceConfig):
    return [dev.interfaces[name] for name in sorted(dev.interfaces)]


def _sorted_sessions(network: Network, dev: DeviceConfig):
    """The device's neighbor statements, those to no internal device
    first, then by peer address."""
    sessions = sorted(network.sessions(dev.hostname),
                      key=lambda s: (s.peer_device is not None,
                                     s.nbr.peer_ip))
    return [s.nbr for s in sessions]


def _acl_decision(dev: DeviceConfig, acl_name: Optional[str],
                  packet: PacketVars) -> Term:
    if acl_name is None:
        return TRUE
    acl = dev.acls.get(acl_name)
    if acl is None:
        return FALSE
    return acl_term(acl, packet)


def _through_map(factory: RecordFactory, dev: DeviceConfig,
                 map_name: Optional[str], record, packet: PacketVars,
                 hoisted: bool, tag: str):
    if map_name is None:
        return record
    rmap = dev.route_maps.get(map_name)
    if rmap is None:
        return factory.invalid(f"{tag}.dangling")
    return apply_route_map(factory, dev, rmap, record, packet.dst_ip,
                           hoisted, name=tag)
