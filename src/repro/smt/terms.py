"""Hash-consed term language for the SMT layer.

The Minesweeper encoding only needs a small logic fragment:

* booleans with the usual connectives,
* fixed-width unsigned bit-vectors with addition, equality and unsigned
  comparison (routes carry small integer attributes such as metrics and
  prefix lengths; the packet destination is a 32-bit vector),
* if-then-else over both sorts,
* single-bit extraction (used for prefix matches against constants).

Terms are immutable and hash-consed per :class:`Context`: structurally equal
live terms are the *same* Python object, so identity comparison, ``tid``
keyed memo tables and ``in`` checks are all structural.  Smart constructors
perform light simplification (constant folding, flattening, unit laws) at
build time, which keeps downstream bit-blasting small without a separate
rewriting pass.

Interning is weak, as in Z3's reference-counted term table: the table
does not keep a term alive, so a term is freed, by reference counting,
once nothing uses it (an encoding, a solver's memo tables, a parent
term).  Rebuilding a freed term mints a new ``tid``.  Tids increase with
creation and are never reused, so a memo keyed by the ``tid`` of a dead
term is stale but never wrong.  A dropped encoding therefore takes its
term graph with it, and the terms of the next one are numbered in the
same relative order whatever the process built and dropped before
(terms a live encoding shares keep their older ids).
"""

from __future__ import annotations

import itertools
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Tuple, Union
from weakref import ref

__all__ = [
    "Context",
    "Term",
    "BOOL",
    "TRUE",
    "FALSE",
    "bool_var",
    "not_",
    "and_",
    "or_",
    "implies",
    "iff",
    "xor",
    "ite",
    "bv_sort",
    "bv_val",
    "bv_var",
    "bv_add",
    "bv_ite",
    "eq",
    "ne",
    "ule",
    "ult",
    "uge",
    "ugt",
    "bit",
    "at_most_k",
    "at_least_k",
    "exactly_k",
    "default_context",
]

# Sort representation: ("bool",) for booleans, ("bv", width) for bit-vectors.
BOOL: Tuple[str, ...] = ("bool",)


_tid = attrgetter("tid")


class _Ref(ref):
    """A weak reference to an interned term that knows its table key.

    Like :class:`weakref.KeyedRef`, but with no Python-level
    ``__new__``/``__init__`` on the interning hot path."""

    __slots__ = ("key",)


def bv_sort(width: int) -> Tuple[str, int]:
    """The sort of unsigned bit-vectors of the given positive width."""
    if width <= 0:
        raise ValueError(f"bit-vector width must be positive, got {width}")
    return ("bv", width)


class Term:
    """A node in the hash-consed term DAG.

    Attributes:
        kind: operator tag (``"and"``, ``"bvvar"``, ...).
        args: child terms (a tuple; empty for leaves).
        payload: leaf data — variable name, constant value, or bit index.
        sort: ``BOOL`` or ``("bv", width)``.
        tid: per-context integer id, increasing in creation order and
            never reused; also the hash.
    """

    __slots__ = ("kind", "args", "payload", "sort", "tid", "ctx",
                 "__weakref__")

    def __init__(self, ctx: "Context", kind: str, args: Tuple["Term", ...],
                 payload, sort: Tuple, tid: int):
        self.ctx = ctx
        self.kind = kind
        self.args = args
        self.payload = payload
        self.sort = sort
        self.tid = tid

    # Hash-consing makes identity equality structural; inherit object.__eq__.
    def __hash__(self) -> int:
        return self.tid

    @property
    def width(self) -> int:
        """Width of a bit-vector term; raises for booleans."""
        if self.sort[0] != "bv":
            raise TypeError(f"term {self} is not a bit-vector")
        return self.sort[1]

    @property
    def is_bool(self) -> bool:
        return self.sort is BOOL or self.sort == BOOL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Term {self._pp()}>"

    def _pp(self, depth: int = 0) -> str:
        if depth > 4:
            return "..."
        if self.kind in ("true", "false"):
            return self.kind
        if self.kind in ("boolvar", "bvvar"):
            return str(self.payload)
        if self.kind == "bvval":
            return f"{self.payload}#{self.width}"
        if self.kind == "bit":
            return f"bit({self.args[0]._pp(depth + 1)}, {self.payload})"
        inner = " ".join(a._pp(depth + 1) for a in self.args)
        return f"({self.kind} {inner})"

    # Convenience operator sugar (bit-vector only where unambiguous).
    def __add__(self, other: "Term") -> "Term":
        return bv_add(self, other)

    def __le__(self, other: "Term") -> "Term":
        return ule(self, other)

    def __lt__(self, other: "Term") -> "Term":
        return ult(self, other)

    def __ge__(self, other: "Term") -> "Term":
        return uge(self, other)

    def __gt__(self, other: "Term") -> "Term":
        return ugt(self, other)

    def __and__(self, other: "Term") -> "Term":
        return and_(self, other)

    def __or__(self, other: "Term") -> "Term":
        return or_(self, other)

    def __invert__(self) -> "Term":
        return not_(self)


class Context:
    """Owns the weak intern table for a family of terms.

    Terms from different contexts must not be mixed; the module-level
    :func:`default_context` suffices for nearly all uses.  The table
    maps ``(kind, payload, sort, *child_tids)`` to a weak reference, so
    it holds only the terms something else keeps alive.  Interning is
    atomic: threads building the same term at once get one object and
    distinct terms get distinct tids.
    """

    def __init__(self) -> None:
        self._intern: dict = {}
        self._tids = itertools.count()
        intern = self._intern

        def forget(dead: _Ref) -> None:
            # Drops the entry only if it is still this dead reference:
            # a live term may already have replaced it.
            _remove_dead_weakref(intern, dead.key)

        self._forget = forget
        self.true = self._mk("true", (), None, BOOL)
        self.false = self._mk("false", (), None, BOOL)

    def _mk(self, kind: str, args: Tuple[Term, ...], payload, sort) -> Term:
        key = (kind, payload, sort, *map(_tid, args))
        intern = self._intern
        while True:
            old = intern.get(key)
            if old is not None:
                found = old()
                if found is not None:
                    return found
                # Dead but not yet forgotten: clear it, then race to
                # insert like any other miss.
                _remove_dead_weakref(intern, key)
            term = Term(self, kind, args, payload, sort, next(self._tids))
            new = _Ref(term, self._forget)
            new.key = key
            if intern.setdefault(key, new) is new:
                return term

    def size(self) -> int:
        """Number of live interned terms."""
        return len(self._intern)


_DEFAULT_CONTEXT = Context()


def default_context() -> Context:
    return _DEFAULT_CONTEXT


def _ctx_of(*terms: Term) -> Context:
    ctx = terms[0].ctx
    for t in terms[1:]:
        if t.ctx is not ctx:
            raise ValueError("cannot mix terms from different contexts")
    return ctx


TRUE = _DEFAULT_CONTEXT.true
FALSE = _DEFAULT_CONTEXT.false


# ---------------------------------------------------------------------------
# Boolean constructors
# ---------------------------------------------------------------------------

def bool_var(name: str, ctx: Optional[Context] = None) -> Term:
    """A named boolean variable."""
    ctx = ctx or _DEFAULT_CONTEXT
    return ctx._mk("boolvar", (), name, BOOL)


def not_(a: Term) -> Term:
    _require_bool(a)
    ctx = a.ctx
    if a.kind == "true":
        return ctx.false
    if a.kind == "false":
        return ctx.true
    if a.kind == "not":
        return a.args[0]
    return ctx._mk("not", (a,), None, BOOL)


def and_(*args: Union[Term, Iterable[Term]]) -> Term:
    """N-ary conjunction with flattening, unit laws and complement check."""
    return _nary("and", _flatten_args(args))


def or_(*args: Union[Term, Iterable[Term]]) -> Term:
    """N-ary disjunction with flattening, unit laws and complement check."""
    return _nary("or", _flatten_args(args))


def _flatten_args(args) -> list:
    out = []
    for a in args:
        if isinstance(a, Term):
            out.append(a)
        else:
            out.extend(a)
    return out


def _nary(kind: str, args: Sequence[Term]) -> Term:
    if not args:
        ctx = _DEFAULT_CONTEXT
    else:
        ctx = _ctx_of(*args)
    unit = ctx.true if kind == "and" else ctx.false
    absorbing = ctx.false if kind == "and" else ctx.true
    flat: list = []
    seen = set()
    for a in args:
        _require_bool(a)
        if a is unit:
            continue
        if a is absorbing:
            return absorbing
        children = a.args if a.kind == kind else (a,)
        for c in children:
            if c is unit:
                continue
            if c is absorbing:
                return absorbing
            if c.tid in seen:
                continue
            seen.add(c.tid)
            flat.append(c)
    # Complement detection: x and not(x) together.
    for c in flat:
        comp = c.args[0].tid if c.kind == "not" else None
        if comp is not None and comp in seen:
            return absorbing
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t.tid)
    return ctx._mk(kind, tuple(flat), None, BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def iff(a: Term, b: Term) -> Term:
    _require_bool(a)
    _require_bool(b)
    ctx = _ctx_of(a, b)
    if a is b:
        return ctx.true
    if a.kind == "true":
        return b
    if a.kind == "false":
        return not_(b)
    if b.kind == "true":
        return a
    if b.kind == "false":
        return not_(a)
    if not_(a) is b:
        return ctx.false
    lo, hi = (a, b) if a.tid <= b.tid else (b, a)
    return ctx._mk("iff", (lo, hi), None, BOOL)


def xor(a: Term, b: Term) -> Term:
    return not_(iff(a, b))


def ite(cond: Term, then: Term, els: Term) -> Term:
    """If-then-else over booleans or equal-width bit-vectors."""
    _require_bool(cond)
    ctx = _ctx_of(cond, then, els)
    if then.sort != els.sort:
        raise TypeError("ite branches must share a sort")
    if cond.kind == "true":
        return then
    if cond.kind == "false":
        return els
    if then is els:
        return then
    if then.is_bool:
        if then.kind == "true" and els.kind == "false":
            return cond
        if then.kind == "false" and els.kind == "true":
            return not_(cond)
        if then.kind == "true":
            return or_(cond, els)
        if then.kind == "false":
            return and_(not_(cond), els)
        if els.kind == "true":
            return or_(not_(cond), then)
        if els.kind == "false":
            return and_(cond, then)
        return ctx._mk("ite", (cond, then, els), None, BOOL)
    return ctx._mk("bvite", (cond, then, els), None, then.sort)


# ---------------------------------------------------------------------------
# Bit-vector constructors
# ---------------------------------------------------------------------------

def bv_val(value: int, width: int, ctx: Optional[Context] = None) -> Term:
    """An unsigned bit-vector constant (value taken modulo ``2**width``)."""
    ctx = ctx or _DEFAULT_CONTEXT
    sort = bv_sort(width)
    return ctx._mk("bvval", (), value & ((1 << width) - 1), sort)


def bv_var(name: str, width: int, ctx: Optional[Context] = None) -> Term:
    """A named unsigned bit-vector variable."""
    ctx = ctx or _DEFAULT_CONTEXT
    return ctx._mk("bvvar", (), name, bv_sort(width))


def bv_add(a: Term, b: Term) -> Term:
    """Modular addition of equal-width bit-vectors."""
    _require_same_bv(a, b)
    ctx = a.ctx
    if a.kind == "bvval" and b.kind == "bvval":
        return bv_val(a.payload + b.payload, a.width, ctx)
    if a.kind == "bvval" and a.payload == 0:
        return b
    if b.kind == "bvval" and b.payload == 0:
        return a
    lo, hi = (a, b) if a.tid <= b.tid else (b, a)
    return ctx._mk("bvadd", (lo, hi), None, a.sort)


def bv_ite(cond: Term, then: Term, els: Term) -> Term:
    return ite(cond, then, els)


def eq(a: Term, b: Term) -> Term:
    """Equality over booleans (iff) or equal-width bit-vectors."""
    if a.is_bool and b.is_bool:
        return iff(a, b)
    _require_same_bv(a, b)
    ctx = a.ctx
    if a is b:
        return ctx.true
    if a.kind == "bvval" and b.kind == "bvval":
        return ctx.true if a.payload == b.payload else ctx.false
    lo, hi = (a, b) if a.tid <= b.tid else (b, a)
    return ctx._mk("eq", (lo, hi), None, BOOL)


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ule(a: Term, b: Term) -> Term:
    """Unsigned ``a <= b``."""
    _require_same_bv(a, b)
    ctx = a.ctx
    if a is b:
        return ctx.true
    if a.kind == "bvval" and b.kind == "bvval":
        return ctx.true if a.payload <= b.payload else ctx.false
    if a.kind == "bvval" and a.payload == 0:
        return ctx.true
    maxv = (1 << a.width) - 1
    if b.kind == "bvval" and b.payload == maxv:
        return ctx.true
    return ctx._mk("ule", (a, b), None, BOOL)


def ult(a: Term, b: Term) -> Term:
    """Unsigned ``a < b``."""
    _require_same_bv(a, b)
    ctx = a.ctx
    if a is b:
        return ctx.false
    if a.kind == "bvval" and b.kind == "bvval":
        return ctx.true if a.payload < b.payload else ctx.false
    if b.kind == "bvval" and b.payload == 0:
        return ctx.false
    return ctx._mk("ult", (a, b), None, BOOL)


def uge(a: Term, b: Term) -> Term:
    return ule(b, a)


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def bit(a: Term, index: int) -> Term:
    """Boolean extraction of bit ``index`` (LSB = 0) of a bit-vector."""
    if a.sort[0] != "bv":
        raise TypeError("bit() expects a bit-vector")
    if not 0 <= index < a.width:
        raise IndexError(f"bit index {index} out of range for width {a.width}")
    ctx = a.ctx
    if a.kind == "bvval":
        return ctx.true if (a.payload >> index) & 1 else ctx.false
    if a.kind == "bvite":
        return ite(a.args[0], bit(a.args[1], index), bit(a.args[2], index))
    return ctx._mk("bit", (a,), index, BOOL)


# ---------------------------------------------------------------------------
# Cardinality (sequential counter encodings at the term level)
# ---------------------------------------------------------------------------

def at_most_k(bits: Sequence[Term], k: int) -> Term:
    """True iff at most ``k`` of ``bits`` are true (sequential counter)."""
    bits = list(bits)
    if k < 0:
        return bits[0].ctx.false if bits else FALSE
    if k >= len(bits):
        return bits[0].ctx.true if bits else TRUE
    counts = _counter(bits, k + 1)
    # at-most-k: the (k+1)-th counter output must be false.
    return not_(counts[k])


def at_least_k(bits: Sequence[Term], k: int) -> Term:
    """True iff at least ``k`` of ``bits`` are true."""
    bits = list(bits)
    if k <= 0:
        return bits[0].ctx.true if bits else TRUE
    if k > len(bits):
        return bits[0].ctx.false if bits else FALSE
    counts = _counter(bits, k)
    return counts[k - 1]


def exactly_k(bits: Sequence[Term], k: int) -> Term:
    return and_(at_most_k(bits, k), at_least_k(bits, k))


def _counter(bits: Sequence[Term], depth: int) -> list:
    """``out[j]`` is true iff at least ``j+1`` of ``bits`` are true.

    Classic unary sequential counter, truncated at ``depth`` outputs.
    """
    ctx = _ctx_of(*bits)
    out = [ctx.false] * depth
    for b in bits:
        nxt = list(out)
        for j in range(depth - 1, 0, -1):
            nxt[j] = or_(out[j], and_(b, out[j - 1]))
        nxt[0] = or_(out[0], b)
        out = nxt
    return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _require_bool(a: Term) -> None:
    if not a.is_bool:
        raise TypeError(f"expected boolean term, got sort {a.sort}")


def _require_same_bv(a: Term, b: Term) -> None:
    if a.sort[0] != "bv" or b.sort[0] != "bv":
        raise TypeError("expected bit-vector terms")
    if a.sort != b.sort:
        raise TypeError(f"width mismatch: {a.sort[1]} vs {b.sort[1]}")
    if a.ctx is not b.ctx:
        raise ValueError("cannot mix terms from different contexts")
