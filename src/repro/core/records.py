"""Symbolic control-plane records (paper Figure 3) and their algebra.

A record is a bundle of terms: ``valid``, prefix length, administrative
distance, BGP local preference, protocol metric, MED, neighbor router id,
the iBGP flag, community bits, and (in the unoptimized encoding only) an
explicit 32-bit advertised prefix.  Fields of records produced by filters
and selection are arbitrary terms — constants when sliced, shared
subexpressions when merged — so the slicing/hoisting optimizations of §6
mostly amount to *not allocating variables*.

The module also implements the route-selection fold: given candidate
records, produce the best record (an if-then-else tree mirroring
:mod:`repro.sim.decision`) together with per-candidate "chosen" flags used
for the forwarding variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt import (
    FALSE,
    TRUE,
    Term,
    and_,
    bool_var,
    bv_add,
    bv_val,
    bv_var,
    eq,
    iff,
    implies,
    ite,
    not_,
    or_,
    ugt,
    ule,
    ult,
)

__all__ = ["Widths", "FieldSet", "SymbolicRecord", "RecordFactory",
           "fold_best", "prefer_bgp", "prefer_igp", "prefer_overall",
           "tie_up_to_rid"]


@dataclass(frozen=True)
class Widths:
    """Bit widths of record fields.  ``router_id`` holds a sender's
    rank in ``Network.ranks``; the encoder widens it to fit them all."""

    prefix_len: int = 6
    ad: int = 8
    local_pref: int = 16
    metric: int = 16
    med: int = 16
    router_id: int = 8
    asn: int = 32
    prefix: int = 32


@dataclass(frozen=True)
class FieldSet:
    """Which optional fields exist (slicing decisions, §6.2)."""

    local_pref: bool = True
    med: bool = True
    bgp_internal: bool = True
    communities: Tuple[str, ...] = ()
    neighbor_asn: bool = False   # only for the MED "same-as" mode
    originator: bool = False     # only when route reflectors exist
    explicit_prefix: bool = False  # only when prefix hoisting is OFF


@dataclass
class SymbolicRecord:
    """A control-plane message as a bundle of terms."""

    name: str
    valid: Term
    prefix_len: Term
    ad: Term
    local_pref: Term
    metric: Term
    med: Term
    router_id: Term
    bgp_internal: Term
    communities: Dict[str, Term] = field(default_factory=dict)
    neighbor_asn: Optional[Term] = None
    originator: Optional[Term] = None
    prefix: Optional[Term] = None   # explicit prefix (unoptimized mode)

    def with_(self, **updates) -> "SymbolicRecord":
        """A copy with some fields replaced."""
        return replace(self, **updates)


class RecordFactory:
    """Creates records with consistent widths, fields and defaults."""

    def __init__(self, widths: Widths, fields: FieldSet,
                 default_local_pref: int = 100) -> None:
        self.widths = widths
        self.fields = fields
        self.default_local_pref = default_local_pref

    # -- constructors ----------------------------------------------------

    def fresh(self, name: str) -> SymbolicRecord:
        """A record of fresh variables (used for per-protocol bests and,
        in the unoptimized mode, for edge import/export records)."""
        w = self.widths
        f = self.fields
        return SymbolicRecord(
            name=name,
            valid=bool_var(f"{name}.valid"),
            prefix_len=bv_var(f"{name}.len", w.prefix_len),
            ad=bv_var(f"{name}.ad", w.ad),
            local_pref=(bv_var(f"{name}.lp", w.local_pref) if f.local_pref
                        else self.lp_const(self.default_local_pref)),
            metric=bv_var(f"{name}.metric", w.metric),
            med=(bv_var(f"{name}.med", w.med) if f.med
                 else bv_val(0, w.med)),
            router_id=bv_var(f"{name}.rid", w.router_id),
            bgp_internal=(bool_var(f"{name}.ibgp") if f.bgp_internal
                          else FALSE),
            communities={c: bool_var(f"{name}.comm.{c}")
                         for c in f.communities},
            neighbor_asn=(bv_var(f"{name}.nbrAs", w.asn)
                          if f.neighbor_asn else None),
            originator=(bv_var(f"{name}.orig", w.router_id)
                        if f.originator else None),
            prefix=(bv_var(f"{name}.prefix", w.prefix)
                    if f.explicit_prefix else None),
        )

    def invalid(self, name: str = "none") -> SymbolicRecord:
        """The canonical absent message (valid = false)."""
        return self.concrete(name, valid=FALSE)

    def concrete(self, name: str, valid: Term = TRUE, prefix_len: int = 0,
                 ad: int = 0, local_pref: Optional[int] = None,
                 metric: int = 0, med: int = 0, router_id: int = 0,
                 bgp_internal: bool = False,
                 communities: Dict[str, Term] = None,
                 neighbor_asn: int = 0, originator: int = 0,
                 prefix: int = 0) -> SymbolicRecord:
        """A record of constant terms (origins, sliced defaults)."""
        w = self.widths
        f = self.fields
        if local_pref is None:
            local_pref = self.default_local_pref
        return SymbolicRecord(
            name=name,
            valid=valid,
            prefix_len=bv_val(prefix_len, w.prefix_len),
            ad=bv_val(ad, w.ad),
            local_pref=bv_val(local_pref, w.local_pref),
            metric=bv_val(metric, w.metric),
            med=bv_val(med, w.med),
            router_id=bv_val(router_id, w.router_id),
            bgp_internal=TRUE if bgp_internal else FALSE,
            communities=dict(communities or
                             {c: FALSE for c in f.communities}),
            neighbor_asn=(bv_val(neighbor_asn, w.asn)
                          if f.neighbor_asn else None),
            originator=(bv_val(originator, w.router_id)
                        if f.originator else None),
            prefix=(bv_val(prefix, w.prefix)
                    if f.explicit_prefix else None),
        )

    # -- field helpers ---------------------------------------------------

    def lp_const(self, value: int) -> Term:
        return bv_val(value, self.widths.local_pref)

    def len_const(self, value: int) -> Term:
        return bv_val(value, self.widths.prefix_len)

    def metric_const(self, value: int) -> Term:
        return bv_val(value, self.widths.metric)

    def metric_plus(self, metric: Term, delta: int) -> Term:
        return bv_add(metric, bv_val(delta, self.widths.metric))

    # -- structural operations --------------------------------------------

    def record_ite(self, cond: Term, then: SymbolicRecord,
                   els: SymbolicRecord,
                   name: str = "ite") -> SymbolicRecord:
        """Field-wise if-then-else."""
        def pick(a: Optional[Term], b: Optional[Term]) -> Optional[Term]:
            if a is None or b is None:
                return a if a is not None else b
            return ite(cond, a, b)

        comms = {}
        for key in set(then.communities) | set(els.communities):
            comms[key] = ite(cond, then.communities.get(key, FALSE),
                             els.communities.get(key, FALSE))
        return SymbolicRecord(
            name=name,
            valid=ite(cond, then.valid, els.valid),
            prefix_len=ite(cond, then.prefix_len, els.prefix_len),
            ad=ite(cond, then.ad, els.ad),
            local_pref=ite(cond, then.local_pref, els.local_pref),
            metric=ite(cond, then.metric, els.metric),
            med=ite(cond, then.med, els.med),
            router_id=ite(cond, then.router_id, els.router_id),
            bgp_internal=ite(cond, then.bgp_internal, els.bgp_internal),
            communities=comms,
            neighbor_asn=pick(then.neighbor_asn, els.neighbor_asn),
            originator=pick(then.originator, els.originator),
            prefix=pick(then.prefix, els.prefix),
        )

    def equate(self, a: SymbolicRecord, b: SymbolicRecord) -> List[Term]:
        """Guarded field-wise equality: validity always agrees; attribute
        fields agree *when valid*.  The guard is essential — absent
        messages carry junk fields, and unconditional equality would force
        impossible arithmetic cycles (e.g. ``metric = metric + 2``) through
        rings of invalid records, making the whole encoding unsatisfiable.
        """
        guard = a.valid
        constraints = [iff(a.valid, b.valid)]
        fields = [
            eq(a.prefix_len, b.prefix_len),
            eq(a.ad, b.ad),
            eq(a.local_pref, b.local_pref),
            eq(a.metric, b.metric),
            eq(a.med, b.med),
            eq(a.router_id, b.router_id),
            iff(a.bgp_internal, b.bgp_internal),
        ]
        for key in set(a.communities) | set(b.communities):
            fields.append(iff(a.communities.get(key, FALSE),
                              b.communities.get(key, FALSE)))
        for fa, fb in ((a.neighbor_asn, b.neighbor_asn),
                       (a.originator, b.originator),
                       (a.prefix, b.prefix)):
            if fa is not None and fb is not None:
                fields.append(eq(fa, fb))
        constraints.extend(implies(guard, f) for f in fields)
        return constraints


# ---------------------------------------------------------------------------
# Preference relations (mirror repro.sim.decision exactly)
# ---------------------------------------------------------------------------

def prefer_bgp(a: SymbolicRecord, b: SymbolicRecord,
               med_mode: str = "always") -> Term:
    """Term: "record ``a`` is strictly preferred over ``b``" within BGP.

    Assumes both records valid (validity handled by the fold).  Ordering:
    longer prefix (longest-prefix match folded into selection — all valid
    records of equal length share the same prefix for the sliced packet),
    higher local-pref, shorter AS path (metric), lower MED per mode, eBGP
    over iBGP, lower router id.
    """
    clauses: List[Tuple[Term, Term]] = [
        (ugt(a.prefix_len, b.prefix_len), eq(a.prefix_len, b.prefix_len)),
        (ugt(a.local_pref, b.local_pref), eq(a.local_pref, b.local_pref)),
        (ult(a.metric, b.metric), eq(a.metric, b.metric)),
    ]
    if med_mode == "always":
        clauses.append((ult(a.med, b.med), eq(a.med, b.med)))
    elif med_mode == "same-as" and a.neighbor_asn is not None \
            and b.neighbor_asn is not None:
        same = eq(a.neighbor_asn, b.neighbor_asn)
        clauses.append((and_(same, ult(a.med, b.med)),
                        or_(not_(same), eq(a.med, b.med))))
    clauses.append((and_(not_(a.bgp_internal), b.bgp_internal),
                    iff(a.bgp_internal, b.bgp_internal)))
    strictly = ult(a.router_id, b.router_id)
    for wins, ties in reversed(clauses):
        strictly = or_(wins, and_(ties, strictly))
    return strictly


def prefer_igp(a: SymbolicRecord, b: SymbolicRecord) -> Term:
    """Strict preference within OSPF/static/connected: longer prefix,
    then lower metric, then lower router id."""
    rest = or_(ult(a.metric, b.metric),
               and_(eq(a.metric, b.metric),
                    ult(a.router_id, b.router_id)))
    return or_(ugt(a.prefix_len, b.prefix_len),
               and_(eq(a.prefix_len, b.prefix_len), rest))


def prefer_overall(a: SymbolicRecord, b: SymbolicRecord) -> Term:
    """Cross-protocol preference: longest prefix, then lowest
    administrative distance (paper §3 step 5, ``bestoverall``)."""
    return or_(ugt(a.prefix_len, b.prefix_len),
               and_(eq(a.prefix_len, b.prefix_len), ult(a.ad, b.ad)))


def tie_up_to_rid(a: SymbolicRecord, b: SymbolicRecord, protocol: str,
                  med_mode: str = "always") -> Term:
    """Term: ``a`` ties ``b`` on every criterion before the router-id
    tie-break — the §4 multipath relaxation."""
    if protocol == "bgp":
        parts = [eq(a.prefix_len, b.prefix_len),
                 eq(a.local_pref, b.local_pref), eq(a.metric, b.metric),
                 iff(a.bgp_internal, b.bgp_internal)]
        if med_mode == "always":
            parts.append(eq(a.med, b.med))
        elif med_mode == "same-as" and a.neighbor_asn is not None \
                and b.neighbor_asn is not None:
            parts.append(or_(not_(eq(a.neighbor_asn, b.neighbor_asn)),
                             eq(a.med, b.med)))
        return and_(*parts)
    return and_(eq(a.prefix_len, b.prefix_len), eq(a.metric, b.metric))


def fold_best(factory: RecordFactory,
              candidates: Sequence[SymbolicRecord],
              prefer,
              name: str = "best",
              ) -> Tuple[SymbolicRecord, List[Term]]:
    """Select the best among candidates (left-biased on full ties).

    Mirrors the simulator's ``min`` over the candidate list: candidate ``i``
    replaces the running best only when strictly preferred or when the
    running best is invalid.  Returns the best record (an ite tree) and one
    "chosen" flag per candidate; exactly one flag is true when any
    candidate is valid, and the flags mirror the left-biased tie-break.

    ``prefer(a, b)`` must be a strict preference term assuming validity.
    """
    if not candidates:
        never = factory.invalid(f"{name}.empty")
        return never, []
    best = candidates[0]
    # takes[i]: candidate i displaced the running best at step i.
    takes: List[Term] = [candidates[0].valid]
    for cand in candidates[1:]:
        replaces = and_(cand.valid,
                        or_(not_(best.valid), prefer(cand, best)))
        takes.append(replaces)
        best = factory.record_ite(replaces, cand, best, name=name)
    # chosen[i]: candidate i took the lead and nobody after displaced it.
    chosen: List[Term] = []
    for i in range(len(candidates)):
        later = [not_(takes[j]) for j in range(i + 1, len(candidates))]
        chosen.append(and_(takes[i], *later))
    return best, chosen
