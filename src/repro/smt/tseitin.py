"""Tseitin transformation with Plaisted-Greenbaum polarity reduction.

Takes pure boolean terms (post bit-blasting) and emits CNF clauses over SAT
variables.  Each distinct gate gets one definitional variable; clauses are
emitted only for the polarities in which a gate is actually used, which is
sound for satisfiability and preserves the values of the *input* variables
in any model — all the solver facade needs to reconstruct term-level models.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .terms import Term

__all__ = ["CnfBuilder"]

_POS = 1
_NEG = 2
_BOTH = 3

_LEAF_KINDS = frozenset(["boolvar", "bit"])


class CnfBuilder:
    """Accumulates CNF for a sequence of asserted boolean terms.

    Attributes:
        clauses: clauses emitted but not yet handed to the SAT core; a
            clause is a list of non-zero ints in DIMACS convention
            (positive = variable true).  The solver facade drains this
            buffer on every load, so the CNF is not kept twice.
        num_clauses: every clause ever emitted, loaded or not.
        var_of_leaf: term id → SAT variable for input leaves, used by the
            model reconstruction in :mod:`repro.smt.solver`.
    """

    def __init__(self) -> None:
        self.clauses: List[List[int]] = []
        self.num_clauses = 0
        self.num_vars = 0
        self.var_of_leaf: Dict[int, int] = {}
        self.leaf_of_var: Dict[int, Term] = {}
        # Gate tid -> ``(var << 2) | mask``: its definitional variable
        # (0 until its clauses are first emitted, which fixes the
        # variable order) and the polarities already expanded.
        self._gates: Dict[int, int] = {}
        self._const_true_var: int = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: List[int]) -> None:
        self.clauses.append(lits)
        self.num_clauses += 1

    def assert_term(self, term: Term) -> None:
        """Add clauses forcing ``term`` to be true."""
        if term.kind == "true":
            return
        if term.kind == "false":
            # Assert a trivially unsatisfiable clause.
            self.add_clause([])
            return
        lit = self._literal(term, _POS)
        self.add_clause([lit])

    def literal_for(self, term: Term) -> int:
        """Definitional literal for a term, usable as a solver assumption.

        Emits clauses for both polarities since an assumption may be asserted
        either way across calls.
        """
        if term.kind == "true":
            return self._true_lit()
        if term.kind == "false":
            return -self._true_lit()
        return self._literal(term, _BOTH)

    def _true_lit(self) -> int:
        if not self._const_true_var:
            self._const_true_var = self.new_var()
            self.add_clause([self._const_true_var])
        return self._const_true_var

    # ------------------------------------------------------------------
    # Core encoding
    # ------------------------------------------------------------------

    def _literal(self, term: Term, polarity: int) -> int:
        """Return a literal equisatisfiable with ``term``; emit gate clauses.

        Iterative two-phase DFS: first allocate variables / push children,
        then emit the definitional clauses for the required polarities.
        """
        # Work items: (term, polarity, expanded?)
        stack: List[Tuple[Term, int, bool]] = [(term, polarity, False)]
        while stack:
            node, pol, expanded = stack.pop()
            if node.kind == "not":
                # Push through negations without allocating a gate.
                stack.append((node.args[0], _flip(pol), expanded))
                continue
            if node.kind in _LEAF_KINDS:
                self._leaf_var(node)
                continue
            if node.kind in ("true", "false"):
                continue
            if expanded:
                # Children are processed; emit this gate's clauses for the
                # polarities recorded at expansion time.
                self._emit_gate(node, pol)
                continue
            entry = self._gates.get(node.tid, 0)
            need = pol & ~entry & _BOTH
            if not need:
                continue
            self._gates[node.tid] = entry | need
            stack.append((node, need, True))
            for child, child_pol in _child_polarities(node, need):
                stack.append((child, child_pol, False))
        return self._lit_of(term)

    def _lit_of(self, node: Term) -> int:
        """Literal of an already-processed node (negations folded in)."""
        sign = 1
        while node.kind == "not":
            sign = -sign
            node = node.args[0]
        if node.kind == "true":
            return sign * self._true_lit()
        if node.kind == "false":
            return -sign * self._true_lit()
        if node.kind in _LEAF_KINDS:
            return sign * self._leaf_var(node)
        return sign * (self._gates[node.tid] >> 2)

    def _leaf_var(self, node: Term) -> int:
        var = self.var_of_leaf.get(node.tid)
        if var is None:
            var = self.new_var()
            self.var_of_leaf[node.tid] = var
            self.leaf_of_var[var] = node
        return var

    def _gate(self, node: Term) -> int:
        """The gate's variable, allocated on its first emission."""
        entry = self._gates[node.tid]
        var = entry >> 2
        if not var:
            var = self.new_var()
            self._gates[node.tid] = (var << 2) | entry
        return var

    def _emit_gate(self, node: Term, need: int) -> None:
        if not need:
            return
        g = self._gate(node)
        kind = node.kind
        if kind == "and":
            lits = [self._lit_of(c) for c in node.args]
            if need & _POS:  # g -> each child
                for lit in lits:
                    self.add_clause([-g, lit])
            if need & _NEG:  # all children -> g
                self.add_clause([g] + [-lit for lit in lits])
        elif kind == "or":
            lits = [self._lit_of(c) for c in node.args]
            if need & _POS:  # g -> some child
                self.add_clause([-g] + lits)
            if need & _NEG:  # each child -> g
                for lit in lits:
                    self.add_clause([-lit, g])
        elif kind == "iff":
            a = self._lit_of(node.args[0])
            b = self._lit_of(node.args[1])
            if need & _POS:
                self.add_clause([-g, -a, b])
                self.add_clause([-g, a, -b])
            if need & _NEG:
                self.add_clause([g, a, b])
                self.add_clause([g, -a, -b])
        elif kind == "ite":
            c = self._lit_of(node.args[0])
            t = self._lit_of(node.args[1])
            e = self._lit_of(node.args[2])
            if need & _POS:
                self.add_clause([-g, -c, t])
                self.add_clause([-g, c, e])
            if need & _NEG:
                self.add_clause([g, -c, -t])
                self.add_clause([g, c, -e])
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected gate kind: {kind}")


def _flip(pol: int) -> int:
    if pol == _BOTH:
        return _BOTH
    return _NEG if pol == _POS else _POS


def _child_polarities(node: Term, pol: int):
    kind = node.kind
    if kind in ("and", "or"):
        for child in node.args:
            yield child, pol
    elif kind == "iff":
        yield node.args[0], _BOTH
        yield node.args[1], _BOTH
    elif kind == "ite":
        yield node.args[0], _BOTH
        yield node.args[1], pol
        yield node.args[2], pol
    else:  # pragma: no cover - defensive
        raise TypeError(f"unexpected gate kind: {kind}")
