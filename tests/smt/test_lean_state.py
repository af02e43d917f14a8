"""Solver state that lives as long as a cached encoding stays lean.

After a check on a pods-2 fat-tree group encoding: the CNF buffer is
drained (the SAT arena is the only copy of a clause), the clause count
is unchanged, the elimination and reconstruction stores are tuples the
cycle collector no longer tracks, and literals without clauses share
one empty slot instead of owning four lists each.
"""

import gc

from repro.core import properties as P
from repro.core.encoder import EncoderOptions
from repro.core.engine import BatchQuery, GroupEncoding
from repro.gen import build_fattree
from repro.net import ip as iplib


def _checked_group():
    tree = build_fattree(2)
    subnet = tree.tor_subnet(tree.tors[0])
    group = GroupEncoding(tree.network, EncoderOptions(),
                          dst_prefix=iplib.parse_prefix(subnet))
    result = group.solve_one(
        BatchQuery(P.Reachability(sources="all", dest_prefix_text=subnet)))
    assert result.holds is True
    return group.solver


def test_lean_state_after_check():
    solver = _checked_group()
    sat = solver._sat

    # Drained buffer, same counts as when every clause was kept.
    assert solver._cnf.clauses == []
    assert solver.num_variables == 2161
    assert solver.num_clauses == 6707
    assert solver.stats["clauses"] == 6707
    assert solver._num_clauses_loaded == 6707

    # Write-once stores are tuples, untracked after one collection.
    assert sat._elim_clauses and sat._reconstruction
    stored = [c for cs in sat._elim_clauses.values() for c in cs]
    blocks = [block for _, block in sat._reconstruction]
    assert all(type(cs) is tuple for cs in sat._elim_clauses.values())
    assert all(type(entry) is tuple for entry in sat._reconstruction)
    assert all(type(block) is tuple for block in blocks)
    assert all(type(c) is tuple for c in stored)
    gc.collect()
    assert not any(gc.is_tracked(c) for c in stored)
    assert not any(gc.is_tracked(block) for block in blocks)

    # Empty slots share one ``()``.  The search may empty a list it
    # already owns (it keeps it), but a literal that never had a
    # clause owns no list: every slot of an eliminated variable is
    # the shared tuple.
    arrays = (sat._watch_refs, sat._watch_blk, sat._bin_lits,
              sat._bin_refs)
    slots = [slot for array in arrays for slot in array]
    shared = [slot for slot in slots if type(slot) is tuple]
    emptied = {id(slot) for slot in slots
               if type(slot) is list and not slot}
    assert shared and all(slot == () for slot in shared)
    assert len({id(slot) for slot in shared}) == 1
    assert len(emptied) * 50 < len(shared)
    for var in sat._eliminated:
        for array in arrays:
            assert type(array[2 * var]) is tuple
            assert type(array[2 * var + 1]) is tuple
