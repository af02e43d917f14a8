"""The Minesweeper encoding: network configurations → SMT constraints.

Satisfying assignments of the generated constraint system correspond to
stable states of the routing control plane for one symbolic packet under
one symbolic environment (external announcements + up-to-k link failures),
exactly as in §3 of the paper:

* one global symbolic packet (dstIp, srcIp, ports, protocol);
* a fully symbolic control-plane record per external BGP peer (the
  environment);
* per router and protocol, a fresh "best" record tied by field-wise
  equality to the if-then-else fold of its candidate routes — the only
  variables that break the cyclic dependence between neighboring routers
  (everything else is a functional term, which subsumes the paper's
  record-merging slices);
* import/export filters, redistribution, aggregation, communities, MED
  modes, iBGP (with recursive-lookup network copies), route reflectors and
  eBGP loop-control bits encoded as term transformations;
* ``controlfwd``/``datafwd`` terms per (router, neighbor) edge, with ACLs
  applied on egress and ingress.

Optimizations (§6) are individually switchable through
:class:`EncoderOptions` so the ablation benchmark can measure them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.net import ip as iplib
from repro.net.device import BgpNeighbor, DeviceConfig
from repro.net.route import (
    DEFAULT_AD,
    DEFAULT_LOCAL_PREF,
    IBGP_AD,
    MAX_OSPF_METRIC,
)
from repro.net.topology import ExternalPeer, Network, Session
from repro.smt import (
    FALSE,
    TRUE,
    Term,
    and_,
    at_most_k,
    bool_var,
    bv_val,
    bv_var,
    eq,
    iff,
    implies,
    ite,
    not_,
    or_,
    ule,
)
from .policy_smt import (
    PacketVars,
    acl_term,
    apply_route_map,
    fbm_const,
    fbm_symbolic,
)
from .records import (
    FieldSet,
    RecordFactory,
    SymbolicRecord,
    Widths,
    fold_best,
    prefer_bgp,
    prefer_igp,
    prefer_overall,
    tie_up_to_rid,
)

__all__ = ["EncoderOptions", "EncodedNetwork", "NetworkEncoder",
           "ForwardingEdge"]

MAX_BGP_PATH = 255


@dataclass(frozen=True)
class EncoderOptions:
    """Switches for the §6 optimizations plus model parameters."""

    hoist_prefixes: bool = True      # §6.1 prefix elimination
    slice_fields: bool = True        # drop never-set attributes (§6.2)
    merge_edge_records: bool = True  # functional edge records (§6.2)
    slice_connected: bool = True     # skip non-overlapping connected routes
    merge_fwd: bool = True           # share control/data fwd when no ACLs
    max_failures: int = 0            # k in the §5 fault-tolerance bound
    fail_external: bool = True       # external peering links can also fail
    preprocess: bool = True          # SAT-level CNF simplification (§8)

    def __post_init__(self) -> None:
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")


@dataclass
class ForwardingEdge:
    """Forwarding decision terms for one (router → target) adjacency."""

    control: Term
    data: Term


class EncodedNetwork:
    """The result of encoding: constraints plus named model handles."""

    def __init__(self, network: Network, options: EncoderOptions,
                 factory: RecordFactory, packet: PacketVars,
                 ns: str = "") -> None:
        self.network = network
        self.options = options
        self.factory = factory
        self.packet = packet
        #: variable-name prefix, fresh variables' too: copies never share
        self.ns = ns
        self.constraints: List[Term] = []
        # Environment handles.
        self.env: Dict[str, SymbolicRecord] = {}
        self.failed: Dict[Tuple[str, str], Term] = {}      # internal links
        self.failed_ext: Dict[Tuple[str, str], Term] = {}  # (router, peer)
        # Per-router handles.
        self.best_fib: Dict[Tuple[str, str], SymbolicRecord] = {}
        self.best_export: Dict[Tuple[str, str], SymbolicRecord] = {}
        self.best_overall: Dict[str, SymbolicRecord] = {}
        self.fwd: Dict[Tuple[str, str], ForwardingEdge] = {}
        self.local_deliver: Dict[str, Term] = {}
        self.null_drop: Dict[str, Term] = {}
        self.export_to_ext: Dict[Tuple[str, str], SymbolicRecord] = {}
        # Post-import-filter BGP session inputs, keyed by (router, sender);
        # the §5 preference properties constrain these.
        self.bgp_inputs: Dict[Tuple[str, str], SymbolicRecord] = {}
        self._fresh = itertools.count()

    # -- assembly ---------------------------------------------------------

    def add(self, *terms: Term) -> None:
        self.constraints.extend(terms)

    def add_fwd(self, router: str, target: str, control: Term,
                data: Term) -> None:
        existing = self.fwd.get((router, target))
        if existing is None:
            self.fwd[(router, target)] = ForwardingEdge(control, data)
        else:
            existing.control = or_(existing.control, control)
            existing.data = or_(existing.data, data)

    # -- constraint checkpoints (shared-encoding reuse) --------------------

    def checkpoint(self) -> int:
        """Mark the current constraint count.  The batch engine encodes a
        property, then :meth:`rollback`s to take the instrumentation it
        appended, so the shared encoding is not mutated across
        properties."""
        return len(self.constraints)

    def constraints_since(self, mark: int) -> List[Term]:
        return self.constraints[mark:]

    def rollback(self, mark: int) -> List[Term]:
        """Drop and return the constraints appended after ``mark``."""
        if mark < 0 or mark > len(self.constraints):
            raise ValueError(f"invalid checkpoint {mark}")
        dropped, self.constraints[mark:] = self.constraints[mark:], []
        return dropped

    # -- queries used by properties ----------------------------------------

    @property
    def dst_ip(self) -> Term:
        return self.packet.dst_ip

    def routers(self) -> List[str]:
        return self.network.router_names()

    def targets_of(self, router: str) -> List[str]:
        """All forwarding targets (internal neighbors + external peers)."""
        return [target for (source, target) in self.fwd if source == router]

    def data_fwd(self, router: str, target: str) -> Term:
        edge = self.fwd.get((router, target))
        return edge.data if edge is not None else FALSE

    def control_fwd(self, router: str, target: str) -> Term:
        edge = self.fwd.get((router, target))
        return edge.control if edge is not None else FALSE

    def link_failed(self, a: str, b: str) -> Term:
        return self.failed.get(_link_key(a, b), FALSE)

    def failure_bits(self) -> List[Term]:
        """Every modeled link's failure bit, internal links first."""
        return list(self.failed.values()) + list(self.failed_ext.values())

    def failures_at_most(self, k: int) -> Term:
        """At most ``k`` of the modeled links fail.  The bits are in the
        order the encoder counted them, so for ``k`` below the encoded
        bound the hash-consed counter reuses the gates the bound built
        and adds a few gates for its final output."""
        return at_most_k(self.failure_bits(), k)

    def fresh_bool(self, stem: str) -> Term:
        return bool_var(f"{self.ns}{stem}#{next(self._fresh)}")

    def fresh_bv(self, stem: str, width: int) -> Term:
        return bv_var(f"{self.ns}{stem}#{next(self._fresh)}", width)


class NetworkEncoder:
    """Translates one :class:`Network` into constraints."""

    def __init__(self, network: Network,
                 options: Optional[EncoderOptions] = None) -> None:
        self.network = network
        self.options = options or EncoderOptions()
        senders = len(network.devices) + len(network.externals)
        self.widths = Widths(router_id=max(8, senders.bit_length()))
        with obs.span("encode.analyze"):
            self._analyze()

    # ------------------------------------------------------------------
    # Global configuration analysis (drives the §6.2 slicing)
    # ------------------------------------------------------------------

    def _analyze(self) -> None:
        devices = self.network.devices.values()
        communities: Set[str] = set()
        lp_used = False
        med_used = False
        same_as_used = False
        rr_used = False
        for dev in devices:
            for rmap in dev.route_maps.values():
                for clause in rmap.clauses:
                    communities.update(clause.add_communities)
                    communities.update(clause.delete_communities)
                    if clause.set_local_pref is not None:
                        lp_used = True
                    if clause.set_med is not None:
                        med_used = True
            for clist in dev.community_lists.values():
                communities.update(clist.communities)
            if dev.bgp:
                if dev.bgp.med_mode == "same-as":
                    same_as_used = True
                if dev.bgp.med_mode != "ignore":
                    med_used = med_used or len(dev.bgp.neighbors) > 1
                if any(n.route_reflector_client for n in dev.bgp.neighbors):
                    rr_used = True
        slim = self.options.slice_fields
        self.fields = FieldSet(
            local_pref=lp_used or not slim,
            med=med_used or not slim,
            bgp_internal=True,
            communities=tuple(sorted(communities)),
            neighbor_asn=same_as_used,
            originator=rr_used,
            explicit_prefix=not self.options.hoist_prefixes,
        )
        # The 16-bit OSPF metric can wrap only when an origin metric
        # plus every OSPF interface cost reaches 2^16; below that no
        # path or cycle sum wraps, so OSPF imports need no guard.
        ospf_devs = [dev for dev in devices if dev.ospf is not None]
        ospf_bound = max(
            (metric or 20 for dev in ospf_devs
             for metric in dev.ospf.redistribute.values()),
            default=0,
        ) + sum(
            iface.ospf_cost for dev in ospf_devs
            for iface in dev.interfaces.values()
            if iface.address and dev.ospf.covers(iface.address)
        )
        self._guard_ospf_metric = ospf_bound > MAX_OSPF_METRIC
        self.router_index, self.peer_index = self.network.ranks
        # Packet field usage (slice unused packet variables).
        self._acl_uses = {"src": False, "proto": False, "port": False}
        for dev in devices:
            for acl in dev.acls.values():
                for rule in acl.rules:
                    if rule.src_network is not None:
                        self._acl_uses["src"] = True
                    if rule.protocol is not None:
                        self._acl_uses["proto"] = True
                    if rule.dst_port_low is not None:
                        self._acl_uses["port"] = True

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def encode(self, dst_prefix: Optional[Tuple[int, int]] = None,
               ns: str = "") -> EncodedNetwork:
        """Encode the whole network.

        Args:
            dst_prefix: optionally restrict the symbolic destination to a
                prefix (enables the connected-route slice).
            ns: namespace for variable names (isolates parallel encodings).
        """
        with obs.span("encode.network", ns=ns,
                      routers=len(self.network.devices)) as sp:
            factory = RecordFactory(self.widths, self.fields,
                                    default_local_pref=DEFAULT_LOCAL_PREF)
            packet = self._make_packet(ns)
            enc = EncodedNetwork(self.network, self.options, factory,
                                 packet, ns)
            self._dst_range = dst_prefix
            self._fwd_copies: Dict[Tuple[str, int], Dict[str, Term]] = {}
            if dst_prefix is not None:
                net, length = dst_prefix
                enc.add(fbm_const(packet.dst_ip, net, length))
            with obs.span("encode.failures"):
                self._encode_failures(enc)
            with obs.span("encode.environment"):
                self._encode_environment(enc)
            with obs.span("encode.ibgp"):
                self._ibgp_sessions = self._resolve_ibgp_sessions(enc)
            metrics = obs.metrics()
            for name in self.network.router_names():
                with obs.span("encode.router", router=name) as rsp:
                    before = len(enc.constraints)
                    self._encode_router(enc, name)
                    emitted = len(enc.constraints) - before
                    rsp.set(constraints=emitted)
                    metrics.counter("encode.constraints",
                                    router=name).inc(emitted)
            sp.set(constraints=len(enc.constraints))
        return enc

    def _make_packet(self, ns: str) -> PacketVars:
        dst_ip = bv_var(f"{ns}pkt.dstIp", 32)
        if self._acl_uses["src"]:
            src_ip = bv_var(f"{ns}pkt.srcIp", 32)
        else:
            src_ip = bv_val(0, 32)
        proto = bv_var(f"{ns}pkt.proto", 8) if self._acl_uses["proto"] \
            else bv_val(0, 8)
        if self._acl_uses["port"]:
            dst_port = bv_var(f"{ns}pkt.dstPort", 16)
            src_port = bv_var(f"{ns}pkt.srcPort", 16)
        else:
            dst_port = bv_val(0, 16)
            src_port = bv_val(0, 16)
        return PacketVars(dst_ip, src_ip, proto, dst_port, src_port)

    # ------------------------------------------------------------------
    # Environment: failures and external announcements
    # ------------------------------------------------------------------

    def _encode_failures(self, enc: EncodedNetwork) -> None:
        k = self.options.max_failures
        if k <= 0:
            return
        bits: List[Term] = []
        for edge in self.network.internal_links():
            key = _link_key(edge.source, edge.target)
            if key in enc.failed:
                # Parallel links between one router pair share a single
                # failure bit (the adjacency is the failable unit — the
                # model keys all gating on the router pair).
                continue
            var = bool_var(f"{enc.ns}failed[{key[0]},{key[1]}]")
            enc.failed[key] = var
            bits.append(var)
        if self.options.fail_external:
            for peer in self.network.externals:
                var = bool_var(
                    f"{enc.ns}failed[{peer.router},{peer.name}]")
                enc.failed_ext[(peer.router, peer.name)] = var
                bits.append(var)
        if bits:
            enc.add(at_most_k(bits, k))

    def _encode_environment(self, enc: EncodedNetwork) -> None:
        for peer in self.network.externals:
            rec = enc.factory.fresh(f"{enc.ns}env[{peer.name}]")
            # Environment sanity: lengths are <= 32; metrics (AS-path
            # lengths) leave headroom for internal prepending.
            enc.add(implies(rec.valid,
                            ule(rec.prefix_len,
                                enc.factory.len_const(32))))
            # An eBGP-learned path carries at least the peer's own ASN.
            enc.add(implies(rec.valid,
                            ule(enc.factory.metric_const(1), rec.metric)))
            enc.add(implies(rec.valid,
                            ule(rec.metric,
                                enc.factory.metric_const(MAX_BGP_PATH))))
            if not self.options.hoist_prefixes:
                # Unoptimized: the advertised prefix is explicit and must
                # cover the packet's destination (the §6.1 FBM constraint).
                enc.add(implies(rec.valid,
                                fbm_symbolic(rec.prefix, enc.dst_ip,
                                             rec.prefix_len)))
            enc.env[peer.name] = rec

    def _resolve_ibgp_sessions(self, enc: EncodedNetwork) -> Dict:
        """Pre-compute iBGP session-up terms (§4 recursive lookup).

        Adjacent sessions depend only on the shared link's failure bit.
        Non-adjacent (multihop) sessions need IGP reachability toward the
        peer address: concrete when no failures are modeled, otherwise via
        an IGP network copy with the destination pinned to the peer address.
        Both follow control-plane forwarding and ignore ACLs, as the
        simulator's session check does, so a bound-K encoding under
        "at most 0 links fail" brings up the same sessions as a k=0 one.
        """
        sessions: Dict[Tuple[str, int], Term] = {}
        for name in self.network.devices:
            for session in self.network.sessions(name):
                peer_name = session.peer_device
                if not session.internal or peer_name is None:
                    continue
                peer_ip = session.nbr.peer_ip
                if session.edge is not None:
                    up = not_(enc.link_failed(name, peer_name))
                elif self.options.max_failures <= 0:
                    up = TRUE if self._igp_reaches_concretely(
                        name, peer_ip) else FALSE
                else:
                    up = self._encode_igp_copy(enc, name, peer_ip)
                sessions[(name, peer_ip)] = up
        return sessions

    def _igp_reaches_concretely(self, start: str, dst_ip: int) -> bool:
        from repro.sim.environment import Environment
        from repro.sim.simulator import ControlPlaneSimulator

        stripped = _igp_only_network(self.network)
        sim = ControlPlaneSimulator(stripped, Environment.empty())
        result = sim.run()
        return sim._fib_reaches(start, dst_ip, result.fibs)

    def _encode_igp_copy(self, enc: EncodedNetwork, start: str,
                         dst_ip_value: int) -> Term:
        """§4: a copy of the IGP network with dstIp pinned to the session
        address; returns the start router's reachability in the copy.
        Reachability and first hops follow the copy's control-plane
        forwarding: ACLs filter the data packet, which the outer
        encoding checks on each hop, not the session."""
        stripped = _igp_only_network(self.network)
        sub = NetworkEncoder(stripped, self.options)
        ns = f"{enc.ns}copy[{start},{iplib.format_ip(dst_ip_value)}]."
        copy = sub.encode(dst_prefix=(dst_ip_value, 32), ns=ns)
        # Share failure variables with the outer encoding.
        for key, outer_var in enc.failed.items():
            inner = copy.failed.get(key)
            if inner is not None:
                copy.add(iff(inner, outer_var))
        enc.add(*copy.constraints)
        # Reachability instrumentation inside the copy.
        owner = self.network.device_owning(dst_ip_value)
        reach: Dict[str, Term] = {}
        for router in copy.routers():
            reach[router] = bool_var(f"{ns}reach[{router}]")
        for router in copy.routers():
            hops = [and_(copy.control_fwd(router, t), reach[t])
                    for t in copy.targets_of(router)
                    if t in self.network.devices]
            base = TRUE if router == owner else FALSE
            enc.add(iff(reach[router], or_(base, *hops)))
        # Remember the copy's first-hop forwarding for the recursive
        # data-plane lookup at ``start``.
        self._fwd_copies[(start, dst_ip_value)] = {
            target: copy.control_fwd(start, target)
            for target in copy.targets_of(start)
            if target in self.network.devices
        }
        return reach.get(start, FALSE)

    # ------------------------------------------------------------------
    # Per-router encoding
    # ------------------------------------------------------------------

    def _encode_router(self, enc: EncodedNetwork, name: str) -> None:
        dev = self.network.device(name)
        factory = enc.factory
        # Per-protocol candidate construction; each candidate carries the
        # forwarding action wired through its chosen flag.
        conn_cands = self._connected_candidates(enc, name, dev)
        static_cands = self._static_candidates(enc, name, dev)
        ospf = self._ospf_candidates(enc, name, dev)
        bgp = self._bgp_candidates(enc, name, dev)

        entries = []  # (proto, fib_best, fib_cands, multipath)
        if conn_cands:
            best, chosen = fold_best(factory,
                                     [c.record for c in conn_cands],
                                     prefer_igp, name=f"{name}.conn.best")
            entries.append(("connected", best, conn_cands, chosen))
        if static_cands:
            best, chosen = fold_best(factory,
                                     [c.record for c in static_cands],
                                     prefer_igp, name=f"{name}.static.best")
            entries.append(("static", best, static_cands, chosen))
        if ospf is not None:
            entries.append(ospf)
        if bgp is not None:
            entries.append(bgp)

        # Cross-protocol selection (ordered to mirror the simulator's
        # deterministic (ad, protocol-name) tie-break).
        order = {"bgp": 0, "connected": 1, "ospf": 2, "static": 3}
        entries.sort(key=lambda e: order[e[0]])
        overall, proto_chosen = fold_best(
            factory, [e[1] for e in entries], prefer_overall,
            name=f"{name}.best")
        enc.best_overall[name] = overall

        # Forwarding wiring: candidate chosen within its protocol AND the
        # protocol chosen overall.
        null_terms: List[Term] = []
        local_terms: List[Term] = []
        owns = or_(*[eq(enc.dst_ip, bv_val(iface.address, 32))
                     for iface in dev.interfaces.values()
                     if iface.address and not iface.shutdown])
        local_terms.append(owns)
        for (proto, best, cands, chosen), proto_flag in zip(entries,
                                                            proto_chosen):
            multipath = _multipath_enabled(dev, proto)
            for cand, flag in zip(cands, chosen):
                if multipath:
                    # §4 multipath: any candidate tying the winner up to
                    # the router-id tie-break is used.
                    flag = and_(cand.record.valid,
                                tie_up_to_rid(cand.record, best, proto,
                                              _med_mode(dev)))
                active = and_(flag, proto_flag, not_(owns))
                self._wire_candidate(enc, name, dev, cand, active,
                                     null_terms, local_terms)
        enc.local_deliver[name] = or_(*local_terms)
        enc.null_drop[name] = or_(*null_terms)

        # Exports toward external peers (for leak/equivalence properties).
        self._encode_external_exports(enc, name, dev)

    # -- candidates -------------------------------------------------------

    def _connected_candidates(self, enc: EncodedNetwork, name: str,
                              dev: DeviceConfig) -> List["_Candidate"]:
        out: List[_Candidate] = []
        for iface in sorted(dev.interfaces.values(), key=lambda i: i.name):
            if iface.shutdown or not iface.address:
                continue
            subnet, length = iface.subnet
            if self.options.slice_connected and self._dst_range is not None:
                net, dlen = self._dst_range
                if not iplib.prefix_overlaps(subnet, length, net, dlen):
                    continue
            record = enc.factory.concrete(
                f"{name}.conn[{iface.name}]",
                valid=fbm_const(enc.dst_ip, subnet, length),
                prefix_len=length,
                ad=DEFAULT_AD["connected"],
                router_id=self.router_index[name],
                prefix=subnet,
            )
            out.append(_Candidate(record=record, kind="connected",
                                  iface_name=iface.name))
        return out

    def _static_candidates(self, enc: EncodedNetwork, name: str,
                           dev: DeviceConfig) -> List["_Candidate"]:
        out: List[_Candidate] = []
        for idx, static in enumerate(dev.static_routes):
            valid = fbm_const(enc.dst_ip, static.network, static.length)
            kind = "static-drop"
            target: Optional[str] = None
            iface_name: Optional[str] = None
            if static.drop:
                pass
            elif static.interface is not None:
                iface = dev.interfaces.get(static.interface)
                if iface is None or iface.shutdown:
                    continue
                kind = "static-iface"
                iface_name = static.interface
            else:
                target = _static_target(self.network, name,
                                        static.next_hop_ip)
                if target is None:
                    continue
                kind = "static-next-hop"
                if target in self.network.devices:
                    valid = and_(valid,
                                 not_(enc.link_failed(name, target)))
                else:
                    valid = and_(valid, not_(enc.failed_ext.get(
                        (name, target), FALSE)))
            record = enc.factory.concrete(
                f"{name}.static[{idx}]",
                valid=valid,
                prefix_len=static.length,
                ad=static.ad,
                router_id=self.router_index[name],
                prefix=static.network,
            )
            out.append(_Candidate(record=record, kind=kind, target=target,
                                  iface_name=iface_name))
        return out

    def _ospf_candidates(self, enc: EncodedNetwork, name: str,
                         dev: DeviceConfig):
        if dev.ospf is None:
            return None
        factory = enc.factory
        cands: List[_Candidate] = []
        for edge in self.network.edges_from(name):
            local_iface = dev.interfaces[edge.source_iface]
            if not dev.ospf.covers(local_iface.address):
                continue
            peer_dev = self.network.device(edge.target)
            if peer_dev.ospf is None:
                continue
            remote_iface = peer_dev.interfaces[edge.target_iface]
            if not peer_dev.ospf.covers(remote_iface.address):
                continue
            peer_best = enc.best_export.get((edge.target, "ospf"))
            if peer_best is None:
                peer_best = factory.fresh(
                    f"{enc.ns}{edge.target}.ospf.exp")
                enc.best_export[(edge.target, "ospf")] = peer_best
            valid = and_(peer_best.valid,
                         not_(enc.link_failed(name, edge.target)))
            if self._guard_ospf_metric:
                # A path costing more than the metric can hold is
                # dropped, as the simulator does, rather than wrapped.
                headroom = MAX_OSPF_METRIC - local_iface.ospf_cost
                valid = and_(valid, ule(peer_best.metric,
                                        factory.metric_const(headroom)))
            record = peer_best.with_(
                name=f"{name}.ospf.in[{edge.target}]",
                valid=valid,
                ad=bv_val(DEFAULT_AD["ospf"], self.widths.ad),
                metric=factory.metric_plus(peer_best.metric,
                                           local_iface.ospf_cost),
                router_id=bv_val(self.router_index[edge.target],
                                 self.widths.router_id),
            )
            cands.append(_Candidate(record=record, kind="igp-edge",
                                    target=edge.target))
        # Origins (advertise-only): interface subnets + redistribution.
        origins: List[SymbolicRecord] = []
        for iface in sorted(dev.interfaces.values(), key=lambda i: i.name):
            if iface.shutdown or not iface.address:
                continue
            if not dev.ospf.covers(iface.address):
                continue
            subnet, length = iface.subnet
            origins.append(factory.concrete(
                f"{name}.ospf.origin[{iface.name}]",
                valid=fbm_const(enc.dst_ip, subnet, length),
                prefix_len=length, ad=DEFAULT_AD["ospf"], metric=0,
                router_id=self.router_index[name], prefix=subnet))
        for proto, metric in sorted(dev.ospf.redistribute.items()):
            source = self._redistribution_source(enc, name, dev, proto)
            if source is None:
                continue
            origins.append(source.with_(
                name=f"{name}.ospf.redist[{proto}]",
                ad=bv_val(DEFAULT_AD["ospf"], self.widths.ad),
                metric=factory.metric_const(metric or 20),
                router_id=bv_val(self.router_index[name],
                                 self.widths.router_id)))
        fib_rec, input_chosen = self._select_protocol(
            enc, name, "ospf", cands, origins, prefer_igp)
        return ("ospf", fib_rec, cands, input_chosen)

    def _bgp_candidates(self, enc: EncodedNetwork, name: str,
                        dev: DeviceConfig):
        if dev.bgp is None:
            return None
        factory = enc.factory
        cands: List[_Candidate] = []
        for session in self.network.sessions(name):
            candidate = self._bgp_session_input(enc, name, dev, session)
            if candidate is not None:
                cands.append(candidate)
        origins: List[SymbolicRecord] = []
        for network, length in dev.bgp.networks:
            origins.append(factory.concrete(
                f"{name}.bgp.net[{iplib.format_prefix(network, length)}]",
                valid=fbm_const(enc.dst_ip, network, length),
                prefix_len=length, ad=DEFAULT_AD["bgp"],
                local_pref=DEFAULT_LOCAL_PREF, metric=0,
                router_id=self.router_index[name],
                originator=self.router_index[name], prefix=network))
        for proto, metric in sorted(dev.bgp.redistribute.items()):
            source = self._redistribution_source(enc, name, dev, proto)
            if source is None:
                continue
            updates = dict(
                ad=bv_val(DEFAULT_AD["bgp"], self.widths.ad),
                local_pref=factory.lp_const(DEFAULT_LOCAL_PREF),
                metric=factory.metric_const(0),
                med=bv_val(metric, self.widths.med),
                bgp_internal=FALSE,
                router_id=bv_val(self.router_index[name],
                                 self.widths.router_id))
            if self.fields.originator:
                updates["originator"] = bv_val(
                    self.router_index[name], self.widths.router_id)
            origins.append(source.with_(
                name=f"{name}.bgp.redist[{proto}]", **updates))
        fib_rec, input_chosen = self._select_protocol(
            enc, name, "bgp", cands, origins,
            lambda a, b: prefer_bgp(a, b, dev.bgp.med_mode))
        return ("bgp", fib_rec, cands, input_chosen)

    def _select_protocol(self, enc: EncodedNetwork, name: str, proto: str,
                         cands: List["_Candidate"],
                         origins: List[SymbolicRecord], prefer,
                         ) -> Tuple[SymbolicRecord, List[Term]]:
        """One selection fold per protocol instance (paper §3 step 5).

        Learned (session/edge) inputs and locally-originated routes
        (network statements, redistribution) compete in a single fold —
        mirroring the protocol's table.  The *export* best is the overall
        winner; the *FIB* best is valid only when a learned input won
        (origins are advertise-only: when one wins, the device forwards
        with the origin's source protocol instead, suppressing this one).

        The two fresh records tied here are the only variables breaking
        cyclic dependencies between neighboring routers (and through
        redistribution rings); with record merging disabled, per-session
        records add the naive encoding's unshared variables.
        """
        factory = enc.factory
        records = [c.record for c in cands] + origins
        fold, chosen_all = fold_best(factory, records, prefer,
                                     name=f"{name}.{proto}.sel")
        export_rec = enc.best_export.get((name, proto))
        if export_rec is None:
            export_rec = factory.fresh(f"{enc.ns}{name}.{proto}.exp")
            enc.best_export[(name, proto)] = export_rec
        enc.add(*factory.equate(export_rec, fold))
        self._naive_prefix_constraint(enc, export_rec)
        input_chosen = chosen_all[:len(cands)]
        input_won = or_(*input_chosen)
        fib_fold = fold.with_(valid=and_(fold.valid, input_won))
        fib_rec = enc.best_fib.get((name, proto))
        if fib_rec is None:
            fib_rec = factory.fresh(f"{enc.ns}{name}.{proto}.fib")
            enc.best_fib[(name, proto)] = fib_rec
        enc.add(*factory.equate(fib_rec, fib_fold))
        self._naive_prefix_constraint(enc, fib_rec)
        return fib_rec, input_chosen

    def _naive_prefix_constraint(self, enc: EncodedNetwork,
                                 rec: SymbolicRecord) -> None:
        """Unoptimized mode: every materialized record carries an explicit
        advertised prefix that must cover the packet destination — the
        expensive symbolic FBM the §6.1 hoisting eliminates."""
        if self.options.hoist_prefixes or rec.prefix is None:
            return
        enc.add(implies(rec.valid,
                        fbm_symbolic(rec.prefix, enc.dst_ip,
                                     rec.prefix_len)))

    def _redistribution_source(self, enc: EncodedNetwork, name: str,
                               dev: DeviceConfig,
                               proto: str) -> Optional[SymbolicRecord]:
        """Best record of the redistribution source protocol."""
        factory = enc.factory
        if proto == "connected":
            cands = self._connected_candidates(enc, name, dev)
            if not cands:
                return None
            best, _ = fold_best(factory, [c.record for c in cands],
                                prefer_igp, name=f"{name}.connsrc")
            return best
        if proto == "static":
            cands = self._static_candidates(enc, name, dev)
            if not cands:
                return None
            best, _ = fold_best(factory, [c.record for c in cands],
                                prefer_igp, name=f"{name}.staticsrc")
            return best
        if proto in ("ospf", "bgp"):
            # Redistribution draws from the protocol's *routing table*
            # (learned routes — the FIB best), never from its export best:
            # a protocol's own redistributed product is not in its table,
            # so same-router BGP→OSPF→BGP feedback cannot self-justify
            # ghost routes in a stable state.
            if proto == "ospf" and dev.ospf is None:
                return None
            if proto == "bgp" and dev.bgp is None:
                return None
            key = (name, proto)
            rec = enc.best_fib.get(key)
            if rec is None:
                rec = factory.fresh(f"{enc.ns}{name}.{proto}.fib")
                enc.best_fib[key] = rec
            return rec
        return None

    # -- BGP session input --------------------------------------------------

    def _bgp_session_input(self, enc: EncodedNetwork, name: str,
                           dev: DeviceConfig,
                           session: Session) -> Optional["_Candidate"]:
        nbr, peer_name = session.nbr, session.peer_device
        if isinstance(session.peer, ExternalPeer):
            return self._bgp_external_input(enc, name, dev, nbr,
                                            session.peer)
        if peer_name is None:
            return None
        peer_dev = self.network.device(peer_name)
        if peer_dev.bgp is None:
            return None
        internal = session.internal
        factory = enc.factory
        best = enc.best_export.get((peer_name, "bgp"))
        if best is None:
            best = factory.fresh(f"{enc.ns}{peer_name}.bgp.exp")
            enc.best_export[(peer_name, "bgp")] = best

        # Sender-side export transform.
        reverse = session.reverse
        exported = best
        valid_parts: List[Term] = [best.valid]
        if internal:
            up = self._ibgp_sessions.get((name, nbr.peer_ip))
            if up is None:
                return None
            valid_parts.append(up)
            is_reflector = reverse is not None and \
                reverse.route_reflector_client
            if not is_reflector:
                valid_parts.append(not_(best.bgp_internal))
            elif best.originator is not None:
                valid_parts.append(or_(
                    not_(best.bgp_internal),
                    not_(eq(best.originator,
                            bv_val(self.router_index[name],
                                   self.widths.router_id)))))
        else:
            if session.edge is None:
                return None
            valid_parts.append(not_(enc.link_failed(name, peer_name)))
        if reverse is not None and reverse.route_map_out:
            exported = apply_route_map(
                factory, peer_dev,
                peer_dev.route_maps.get(reverse.route_map_out),
                exported, enc.dst_ip, self.options.hoist_prefixes,
                name=f"{name}.in[{peer_name}].out")
            if reverse.route_map_out not in peer_dev.route_maps:
                return None
            valid_parts.append(exported.valid)
        # Aggregation at export (§4).
        exported = self._apply_aggregation(enc, peer_dev, exported)
        updates: Dict[str, object] = {}
        if internal:
            updates["ad"] = bv_val(IBGP_AD, self.widths.ad)
            updates["bgp_internal"] = TRUE
            if best.originator is not None:
                updates["originator"] = ite(
                    best.bgp_internal, best.originator,
                    bv_val(self.router_index[peer_name],
                           self.widths.router_id))
        else:
            no_overflow = ule(exported.metric,
                              factory.metric_const(MAX_BGP_PATH - 1))
            valid_parts.append(no_overflow)
            updates["metric"] = factory.metric_plus(exported.metric, 1)
            updates["ad"] = bv_val(DEFAULT_AD["bgp"], self.widths.ad)
            updates["bgp_internal"] = FALSE
            updates["local_pref"] = factory.lp_const(DEFAULT_LOCAL_PREF)
            if reverse is None or not reverse.route_map_out:
                updates["med"] = bv_val(0, self.widths.med)
            if self.fields.neighbor_asn:
                updates["neighbor_asn"] = bv_val(peer_dev.bgp.asn,
                                                 self.widths.asn)
        updates["router_id"] = bv_val(self.router_index[peer_name],
                                      self.widths.router_id)
        updates["valid"] = and_(*valid_parts)
        record = exported.with_(name=f"{name}.bgp.in[{peer_name}]",
                                **updates)
        record = self._import_side(enc, name, dev, nbr, record, peer_name)
        if record is None:
            return None
        enc.bgp_inputs[(name, peer_name)] = record
        return _Candidate(record=record, kind="bgp-session",
                          target=peer_name, session_ip=nbr.peer_ip,
                          internal=internal)

    def _bgp_external_input(self, enc: EncodedNetwork, name: str,
                            dev: DeviceConfig, nbr: BgpNeighbor,
                            peer: ExternalPeer) -> Optional["_Candidate"]:
        factory = enc.factory
        env = enc.env[peer.name]
        link_up = not_(enc.failed_ext.get((name, peer.name), FALSE))
        updates: Dict[str, object] = {
            "valid": and_(env.valid, link_up),
            "ad": bv_val(DEFAULT_AD["bgp"], self.widths.ad),
            "local_pref": factory.lp_const(DEFAULT_LOCAL_PREF),
            "bgp_internal": FALSE,
            "router_id": bv_val(self.peer_index[peer.name],
                                self.widths.router_id),
        }
        if self.fields.neighbor_asn:
            updates["neighbor_asn"] = bv_val(peer.asn, self.widths.asn)
        if self.fields.originator:
            updates["originator"] = bv_val(self.peer_index[peer.name],
                                           self.widths.router_id)
        record = env.with_(name=f"{name}.bgp.in[{peer.name}]", **updates)
        record = self._import_side(enc, name, dev, nbr, record, peer.name)
        if record is None:
            return None
        enc.bgp_inputs[(name, peer.name)] = record
        return _Candidate(record=record, kind="bgp-session",
                          target=peer.name, session_ip=nbr.peer_ip,
                          internal=False)

    def _import_side(self, enc: EncodedNetwork, name: str,
                     dev: DeviceConfig, nbr: BgpNeighbor,
                     record: SymbolicRecord,
                     sender: str) -> Optional[SymbolicRecord]:
        if nbr.route_map_in:
            rmap = dev.route_maps.get(nbr.route_map_in)
            if rmap is None:
                # Dangling reference blocks the session (deny-all import).
                _report_dangling(dev, nbr.route_map_in, nbr, "in")
                return None
            record = apply_route_map(enc.factory, dev, rmap, record,
                                     enc.dst_ip,
                                     self.options.hoist_prefixes,
                                     name=f"{name}.in[{sender}].im")
        if not self.options.merge_edge_records:
            # Naive encoding: a fresh record per session with equality
            # constraints instead of shared functional terms.
            fresh = enc.factory.fresh(
                f"{enc.ns}{name}.bgp.inrec[{sender}]")
            enc.add(*enc.factory.equate(fresh, record))
            self._naive_prefix_constraint(enc, fresh)
            record = fresh
        return record

    def _apply_aggregation(self, enc: EncodedNetwork,
                           sender_dev: DeviceConfig,
                           record: SymbolicRecord) -> SymbolicRecord:
        if sender_dev.bgp is None or not sender_dev.bgp.aggregates:
            return record
        out = record
        for agg_net, agg_len in sender_dev.bgp.aggregates:
            applies = and_(
                fbm_const(enc.dst_ip, agg_net, agg_len),
                ule(bv_val(agg_len + 1, self.widths.prefix_len),
                    out.prefix_len))
            out = out.with_(prefix_len=ite(
                applies, enc.factory.len_const(agg_len), out.prefix_len))
        return out

    # -- forwarding wiring ---------------------------------------------------

    def _wire_candidate(self, enc: EncodedNetwork, name: str,
                        dev: DeviceConfig, cand: "_Candidate", active: Term,
                        null_terms: List[Term],
                        local_terms: List[Term]) -> None:
        if cand.kind == "static-drop":
            null_terms.append(active)
            return
        if cand.kind in ("connected", "static-iface"):
            iface = dev.interfaces[cand.iface_name]
            self._wire_subnet_delivery(enc, name, dev, iface, active,
                                       local_terms)
            return
        if cand.kind == "static-next-hop":
            self._emit_fwd(enc, name, dev, cand.target, active)
            return
        if cand.kind == "igp-edge":
            self._emit_fwd(enc, name, dev, cand.target, active)
            return
        if cand.kind == "bgp-session":
            target = cand.target
            if target in self.network.devices and \
                    self.network.edge_between(name, target) is None:
                # Multihop iBGP: recursive lookup through the IGP (§4).
                self._wire_recursive(enc, name, dev, target,
                                     cand.session_ip, active)
            else:
                self._emit_fwd(enc, name, dev, target, active)
            return
        raise AssertionError(f"unknown candidate kind {cand.kind}")

    def _wire_subnet_delivery(self, enc: EncodedNetwork, name: str,
                              dev: DeviceConfig, iface, active: Term,
                              local_terms: List[Term]) -> None:
        """A connected/interface route: the destination may be a neighbor
        device on the subnet, an external peer, or a host."""
        subnet, length = iface.subnet
        other_addrs: List[Term] = []
        for edge in self.network.edges_from(name):
            if edge.source_iface != iface.name:
                continue
            peer_addr = self.network.peer_address_on(edge)
            if peer_addr is None:
                continue
            is_peer = eq(enc.dst_ip, bv_val(peer_addr, 32))
            other_addrs.append(is_peer)
            self._emit_fwd(enc, name, dev, edge.target,
                           and_(active, is_peer))
        for peer in self.network.externals_at(name):
            if peer.router_iface != iface.name:
                continue
            is_peer = eq(enc.dst_ip, bv_val(peer.peer_ip, 32))
            other_addrs.append(is_peer)
            self._emit_fwd(enc, name, dev, peer.name,
                           and_(active, is_peer))
        # Hosts on the subnet: delivered locally.
        local_terms.append(and_(active, not_(or_(*other_addrs))))

    def _wire_recursive(self, enc: EncodedNetwork, name: str,
                        dev: DeviceConfig, ibgp_peer: str, session_ip: int,
                        active: Term) -> None:
        copy_fwd = self._copy_forwarding(enc, name, session_ip)
        if copy_fwd is None:
            return
        for target, fwd_term in copy_fwd.items():
            self._emit_fwd(enc, name, dev, target, and_(active, fwd_term))

    def _copy_forwarding(self, enc: EncodedNetwork, name: str,
                         session_ip: int) -> Optional[Dict[str, Term]]:
        """First-hop forwarding toward a multihop iBGP peer address."""
        stored = self._fwd_copies.get((name, session_ip))
        if stored is not None:
            return stored
        # No symbolic copy was built (k = 0): consult the IGP simulator.
        from repro.sim.environment import Environment
        from repro.sim.simulator import ControlPlaneSimulator

        stripped = _igp_only_network(self.network)
        result = ControlPlaneSimulator(stripped, Environment.empty()).run()
        routes = result.fib_lookup(name, session_ip)
        out: Dict[str, Term] = {}
        for route in routes:
            if route.next_hop is not None:
                out[route.next_hop] = TRUE
        return out or None

    def _emit_fwd(self, enc: EncodedNetwork, name: str, dev: DeviceConfig,
                  target: str, control: Term) -> None:
        """Register control/data forwarding terms for one adjacency,
        applying egress and ingress ACLs (paper §3 step 7)."""
        data = control
        egress_iface = self._egress_iface(name, dev, target)
        if egress_iface is not None and egress_iface.acl_out:
            acl = dev.acls.get(egress_iface.acl_out)
            permit = acl_term(acl, enc.packet) if acl else FALSE
            data = and_(data, permit)
        if target in self.network.devices:
            edge = self.network.edge_between(name, target)
            if edge is not None:
                tgt_dev = self.network.device(target)
                in_iface = tgt_dev.interfaces.get(edge.target_iface)
                if in_iface is not None and in_iface.acl_in:
                    acl = tgt_dev.acls.get(in_iface.acl_in)
                    permit = acl_term(acl, enc.packet) if acl else FALSE
                    data = and_(data, permit)
        if self.options.merge_fwd:
            enc.add_fwd(name, target, control, data)
        else:
            # Naive encoding: dedicated boolean variables per edge with
            # defining constraints (what the merge slice removes).
            cvar = enc.fresh_bool(f"controlfwd[{name},{target}]")
            dvar = enc.fresh_bool(f"datafwd[{name},{target}]")
            enc.add(iff(cvar, control), iff(dvar, data))
            enc.add_fwd(name, target, cvar, dvar)

    def _egress_iface(self, name: str, dev: DeviceConfig, target: str):
        if target in self.network.devices:
            edge = self.network.edge_between(name, target)
            return dev.interfaces.get(edge.source_iface) if edge else None
        peer = self.network.external(name, target)
        return dev.interfaces.get(peer.router_iface) if peer else None

    # -- exports toward external peers ---------------------------------------

    def _encode_external_exports(self, enc: EncodedNetwork, name: str,
                                 dev: DeviceConfig) -> None:
        if dev.bgp is None:
            return
        best = enc.best_export.get((name, "bgp"))
        if best is None:
            return
        for session in self.network.sessions(name):
            peer, nbr = session.peer, session.nbr
            if not isinstance(peer, ExternalPeer):
                continue
            exported = best
            valid_parts = [best.valid,
                           not_(enc.failed_ext.get((name, peer.name),
                                                   FALSE))]
            if nbr.route_map_out:
                rmap = dev.route_maps.get(nbr.route_map_out)
                exported = apply_route_map(
                    enc.factory, dev, rmap, exported, enc.dst_ip,
                    self.options.hoist_prefixes,
                    name=f"{name}.out[{peer.name}]")
                if rmap is None:
                    _report_dangling(dev, nbr.route_map_out, nbr, "out")
                    valid_parts.append(FALSE)
                valid_parts.append(exported.valid)
            exported = self._apply_aggregation(enc, dev, exported)
            no_overflow = ule(exported.metric,
                              enc.factory.metric_const(MAX_BGP_PATH - 1))
            updates: Dict[str, object] = dict(
                valid=and_(*valid_parts, no_overflow),
                metric=enc.factory.metric_plus(exported.metric, 1),
                bgp_internal=FALSE)
            if not nbr.route_map_out:
                # MED is non-transitive across AS boundaries unless an
                # export policy sets it (mirrors the simulator).
                updates["med"] = bv_val(0, self.widths.med)
            record = exported.with_(name=f"{name}.exp[{peer.name}]",
                                    **updates)
            enc.export_to_ext[(name, peer.name)] = record


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

@dataclass
class _Candidate:
    """A route candidate plus how to forward if it is chosen."""

    record: SymbolicRecord
    kind: str
    target: Optional[str] = None
    iface_name: Optional[str] = None
    session_ip: Optional[int] = None
    internal: bool = False


def _report_dangling(dev: DeviceConfig, map_name: str, nbr: BgpNeighbor,
                     direction: str) -> None:
    """Signal an undefined route-map on a BGP session (the encoder
    treats it as deny-all; strict mode refuses to encode)."""
    from repro.analysis.hazards import dangling_reference

    line = nbr.route_map_in_line if direction == "in" \
        else nbr.route_map_out_line
    dangling_reference(
        device=dev.hostname, kind="route-map", name=map_name,
        context=f"neighbor {iplib.format_ip(nbr.peer_ip)} "
                f"route-map {direction}",
        line=line or nbr.line)


def _link_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _static_target(network: Network, name: str,
                   next_hop_ip: Optional[int]) -> Optional[str]:
    if next_hop_ip is None:
        return None
    edge = network.edge_to(name, next_hop_ip)
    if edge is not None:
        return edge.target
    peer = network.external(name, next_hop_ip)
    return peer.name if peer else None


def _igp_only_network(network: Network) -> Network:
    """A copy of the network with BGP removed (for iBGP lookup copies)."""
    import copy as copymod

    devices = []
    for dev in network.devices.values():
        clone = copymod.deepcopy(dev)
        clone.bgp = None
        if clone.ospf is not None:  # keep the router id BGP may set
            clone.ospf.router_id = dev.router_id
        devices.append(clone)
    return Network(devices)


def _multipath_enabled(dev: DeviceConfig, proto: str) -> bool:
    if proto == "bgp":
        return bool(dev.bgp and dev.bgp.multipath)
    if proto == "ospf":
        return bool(dev.ospf and dev.ospf.multipath)
    return False


def _med_mode(dev: DeviceConfig) -> str:
    return dev.bgp.med_mode if dev.bgp else "always"

