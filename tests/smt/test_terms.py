"""Unit tests for the term language: construction, simplification, sorts."""

import gc
import sys
import threading

import pytest

from repro.smt import (
    FALSE,
    TRUE,
    and_,
    bit,
    bool_var,
    bv_add,
    bv_ite,
    bv_val,
    bv_var,
    eq,
    iff,
    implies,
    ite,
    ne,
    not_,
    or_,
    uge,
    ugt,
    ule,
    ult,
    xor,
)
from repro.smt.terms import Context, bv_sort


class TestHashConsing:
    def test_identical_terms_are_same_object(self):
        a = bool_var("hc_a")
        assert bool_var("hc_a") is a
        assert and_(a, bool_var("hc_b")) is and_(a, bool_var("hc_b"))

    def test_and_is_order_insensitive(self):
        a, b = bool_var("hc_a"), bool_var("hc_b")
        assert and_(a, b) is and_(b, a)

    def test_bv_constants_interned_modulo_width(self):
        assert bv_val(256 + 5, 8) is bv_val(5, 8)
        assert bv_val(5, 8) is not bv_val(5, 16)

    def test_separate_contexts_do_not_mix(self):
        ctx = Context()
        foreign = bool_var("hc_x", ctx)
        local = bool_var("hc_y")
        with pytest.raises(ValueError):
            and_(foreign, local)

    def test_hash_is_the_tid(self):
        a = bool_var("hc_a")
        both = and_(a, bool_var("hc_b"))
        assert hash(a) == a.tid
        assert hash(both) == both.tid


class TestWeakInterning:
    """The intern table keeps no term alive: a term nothing uses is
    freed by reference counting, and rebuilding it mints a new tid."""

    def test_dropped_terms_leave_the_table(self):
        ctx = Context()
        base = ctx.size()
        x, y = bv_var("wi_x", 8, ctx), bv_var("wi_y", 8, ctx)
        term = or_(ule(x, y), eq(x, bv_val(3, 8, ctx)))
        assert ctx.size() > base
        del x, y, term
        assert ctx.size() == base

    def test_a_live_parent_keeps_its_children(self):
        ctx = Context()
        parent = and_(bool_var("wi_a", ctx), bool_var("wi_b", ctx))
        size = ctx.size()
        assert bool_var("wi_a", ctx) is parent.args[0]
        assert ctx.size() == size

    def test_rebuilt_term_gets_a_new_larger_tid(self):
        ctx = Context()
        a = bool_var("wi_a", ctx)
        first = and_(a, bool_var("wi_b", ctx))
        tid = first.tid
        assert and_(a, bool_var("wi_b", ctx)) is first
        del first
        again = and_(a, bool_var("wi_b", ctx))
        assert again.tid > tid
        assert and_(bool_var("wi_b", ctx), a) is again

    def test_only_the_constants_outlive_their_users(self):
        ctx = Context()
        a = bool_var("wi_a", ctx)
        assert and_(a, not_(a)) is ctx.false
        assert or_(a, ctx.true) is ctx.true
        del a
        assert ctx.size() == 2

    def test_a_deep_chain_is_freed_without_the_collector(self):
        ctx = Context()
        gc.disable()
        try:
            chain = bool_var("wi_0", ctx)
            for i in range(1, 100_000):
                chain = iff(bool_var(f"wi_{i}", ctx), chain)
            assert ctx.size() == 2 + 2 * 100_000 - 1
            del chain
            assert ctx.size() == 2
        finally:
            gc.enable()


class TestConcurrentInterning:
    def test_threads_share_one_object_per_key_and_unique_tids(self):
        """Four threads intern the same 20,000 conjunctions at once,
        switching as often as the interpreter allows, so the lookup,
        the tid and the insert of one term interleave across threads."""
        ctx = Context()
        leaves = [bool_var(f"ci_{i}", ctx) for i in range(201)]
        pairs = [(i, j) for i in range(201) for j in range(i + 1, 201)]
        pairs = pairs[:20_000]
        threads = 4
        built = [[] for _ in range(threads)]
        start = threading.Barrier(threads, timeout=60)

        def intern_all(out):
            start.wait()
            for i, j in pairs:
                out.append(and_(leaves[i], leaves[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=intern_all, args=(out,))
                for out in built
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(len(out) == len(pairs) for out in built)

        terms = {id(t): t for out in built for t in out}
        terms.update((id(t), t) for t in leaves)
        tids = [t.tid for t in terms.values()]
        assert len(set(tids)) == len(tids)
        for out in built[1:]:
            assert all(a is b for a, b in zip(built[0], out))
        assert len(terms) == len(pairs) + len(leaves)
        assert ctx.size() == 2 + len(pairs) + len(leaves)


class TestBooleanSimplification:
    def test_and_units(self):
        a = bool_var("bs_a")
        assert and_() is TRUE
        assert and_(a) is a
        assert and_(a, TRUE) is a
        assert and_(a, FALSE) is FALSE

    def test_or_units(self):
        a = bool_var("bs_a")
        assert or_() is FALSE
        assert or_(a) is a
        assert or_(a, FALSE) is a
        assert or_(a, TRUE) is TRUE

    def test_complement_collapses(self):
        a = bool_var("bs_a")
        assert and_(a, not_(a)) is FALSE
        assert or_(a, not_(a)) is TRUE

    def test_flattening_and_dedup(self):
        a, b, c = bool_var("bs_a"), bool_var("bs_b"), bool_var("bs_c")
        assert and_(and_(a, b), c) is and_(a, b, c)
        assert or_(a, or_(a, b)) is or_(a, b)

    def test_double_negation(self):
        a = bool_var("bs_a")
        assert not_(not_(a)) is a
        assert not_(TRUE) is FALSE

    def test_iff_folding(self):
        a, b = bool_var("bs_a"), bool_var("bs_b")
        assert iff(a, a) is TRUE
        assert iff(a, not_(a)) is FALSE
        assert iff(a, TRUE) is a
        assert iff(FALSE, b) is not_(b)
        assert iff(a, b) is iff(b, a)

    def test_xor_is_negated_iff(self):
        a, b = bool_var("bs_a"), bool_var("bs_b")
        assert xor(a, b) is not_(iff(a, b))

    def test_implies_expands_to_or(self):
        a, b = bool_var("bs_a"), bool_var("bs_b")
        assert implies(a, b) is or_(not_(a), b)
        assert implies(TRUE, b) is b
        assert implies(FALSE, b) is TRUE

    def test_ite_folding(self):
        a, b, c = bool_var("bs_a"), bool_var("bs_b"), bool_var("bs_c")
        assert ite(TRUE, a, b) is a
        assert ite(FALSE, a, b) is b
        assert ite(c, a, a) is a
        assert ite(c, TRUE, FALSE) is c
        assert ite(c, FALSE, TRUE) is not_(c)
        assert ite(c, TRUE, b) is or_(c, b)
        assert ite(c, b, FALSE) is and_(c, b)


class TestBitVectors:
    def test_width_property(self):
        x = bv_var("tv_x", 12)
        assert x.width == 12
        assert x.sort == bv_sort(12)
        with pytest.raises(TypeError):
            bool_var("tv_a").width

    def test_add_constant_folding(self):
        assert bv_add(bv_val(200, 8), bv_val(100, 8)) is bv_val(44, 8)
        x = bv_var("tv_x", 8)
        assert bv_add(x, bv_val(0, 8)) is x

    def test_width_mismatch_rejected(self):
        with pytest.raises(TypeError):
            bv_add(bv_var("tv_x", 8), bv_var("tv_y", 16))
        with pytest.raises(TypeError):
            eq(bv_var("tv_x", 8), bv_var("tv_y", 16))

    def test_eq_folding(self):
        x = bv_var("tv_x", 8)
        assert eq(x, x) is TRUE
        assert eq(bv_val(3, 8), bv_val(3, 8)) is TRUE
        assert eq(bv_val(3, 8), bv_val(4, 8)) is FALSE
        assert ne(bv_val(3, 8), bv_val(4, 8)) is TRUE

    def test_comparison_folding(self):
        x = bv_var("tv_x", 8)
        assert ule(bv_val(0, 8), x) is TRUE
        assert ule(x, bv_val(255, 8)) is TRUE
        assert ule(x, x) is TRUE
        assert ult(x, x) is FALSE
        assert ult(x, bv_val(0, 8)) is FALSE
        assert ult(bv_val(2, 8), bv_val(9, 8)) is TRUE
        assert uge(bv_val(9, 8), bv_val(2, 8)) is TRUE
        assert ugt(bv_val(2, 8), bv_val(9, 8)) is FALSE

    def test_bit_extraction(self):
        assert bit(bv_val(0b101, 4), 0) is TRUE
        assert bit(bv_val(0b101, 4), 1) is FALSE
        assert bit(bv_val(0b101, 4), 2) is TRUE
        with pytest.raises(IndexError):
            bit(bv_val(0, 4), 4)

    def test_bit_pushes_through_ite(self):
        c = bool_var("tv_c")
        t = bv_ite(c, bv_val(1, 4), bv_val(0, 4))
        assert bit(t, 0) is c

    def test_ite_requires_matching_sorts(self):
        c = bool_var("tv_c")
        with pytest.raises(TypeError):
            ite(c, bv_val(1, 4), bv_val(1, 8))

    def test_bool_ops_reject_bitvectors(self):
        with pytest.raises(TypeError):
            and_(bv_val(1, 4), TRUE)
        with pytest.raises(TypeError):
            not_(bv_val(1, 4))

    def test_operator_sugar(self):
        x, y = bv_var("tv_x", 8), bv_var("tv_y", 8)
        assert (x + y) is bv_add(x, y)
        assert (x <= y) is ule(x, y)
        assert (x < y) is ult(x, y)
        a, b = bool_var("tv_a"), bool_var("tv_b")
        assert (a & b) is and_(a, b)
        assert (a | b) is or_(a, b)
        assert (~a) is not_(a)
