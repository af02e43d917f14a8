"""The facade pauses the cycle collector while it builds CNF state.

Blasting, Tseitin, loading and preprocessing run with collection off;
these tests pin down that the pause always ends, never overrides a
caller who turned collection off, and is shared across threads.
"""

import gc
import sys
import threading

import pytest

from repro.smt import SAT, Solver, bool_var, bv_var, or_
from repro.smt import solver as facade
from repro.smt.solver import _gc_paused


@pytest.fixture(autouse=True)
def collector_on():
    gc.enable()
    yield
    gc.enable()


def test_enabled_after_add_and_check():
    a, b = bool_var("gcp_a"), bool_var("gcp_b")
    s = Solver()
    s.add(or_(a, b))
    assert gc.isenabled()
    assert s.check([a]) is SAT
    assert gc.isenabled()


def test_enabled_after_add_raises():
    s = Solver()
    with pytest.raises(TypeError):
        s.add(bv_var("gcp_x", 8))
    assert gc.isenabled()


def test_caller_disabled_collection_stays_off():
    gc.disable()
    s = Solver()
    s.add(bool_var("gcp_c"))
    assert s.check() is SAT
    assert not gc.isenabled()
    with pytest.raises(TypeError):
        s.add(bv_var("gcp_y", 8))
    assert not gc.isenabled()


def test_nested_regions_restore_once():
    with _gc_paused():
        with _gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_threads_keep_collection_off_until_last_leaves():
    entered = [threading.Event(), threading.Event()]
    leave = [threading.Event(), threading.Event()]

    def region(i):
        with _gc_paused():
            entered[i].set()
            leave[i].wait(10)

    first = threading.Thread(target=region, args=(0,))
    second = threading.Thread(target=region, args=(1,))
    first.start()
    assert entered[0].wait(10)
    assert not gc.isenabled()
    second.start()
    assert entered[1].wait(10)
    # The thread that turned collection off leaves first ...
    leave[0].set()
    first.join(10)
    assert not first.is_alive()
    assert not gc.isenabled()
    # ... and collection returns only when the other one leaves.
    leave[1].set()
    second.join(10)
    assert not second.is_alive()
    assert gc.isenabled()


def test_many_threads_never_see_collection_on_inside_a_region():
    failures = []

    def hammer():
        for _ in range(2000):
            with _gc_paused():
                if gc.isenabled():
                    failures.append(1)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert facade._gc_depth == 0
    assert gc.isenabled()
