"""The one-shot §5 checks — fault invariance, pairwise fault invariance,
full and local equivalence: the span tree each runs under, an UNKNOWN
message built from the check's own search counters, and a
full-equivalence search that does not follow the string-hash order.

The three network checks are one-query runs of ``BatchEngine.run``;
local equivalence, which encodes two isolated routers, has its own
runner."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.core import BatchQuery, properties as P
from repro.core.encoder import EncoderOptions
from repro.core.engine import GroupEncoding
from repro.core.verifier import Verifier
from tests.core.test_verifier import TestEquivalence, diamond, ospf_chain

REPO = Path(__file__).resolve().parents[2]
RACK = "10.9.0.0/24"
UNKNOWN = re.compile(r"conflict budget exhausted after (\d+) conflicts "
                     r"\((\d+) decisions, (\d+) propagations, "
                     r"(\d+) restarts\)$")


def _checks():
    """Each check's name and a call that runs it."""
    reach = P.Reachability(sources=["S"], dest_prefix_text=RACK)
    return [
        ("verify.fault_invariance",
         lambda: Verifier(diamond().build()).verify_fault_invariance(
             reach, k=1)),
        ("verify.pairwise_fault_invariance",
         lambda: Verifier(diamond().build())
         .verify_pairwise_fault_invariance(k=1, dest_prefix=RACK)),
        ("verify.full_equivalence",
         lambda: Verifier(ospf_chain(3)[0].build()).verify_full_equivalence(
             ospf_chain(3)[0].build())),
        ("verify.local_equivalence",
         lambda: Verifier(TestEquivalence.split_guard_network())
         .verify_local_equivalence("A", "B")),
    ]


def _children(tracer, span):
    return sorted((s for s in tracer.spans
                   if s["parent_id"] == span["span_id"]),
                  key=lambda s: s["start"])


def _names(spans):
    return [s["name"] for s in spans]


@pytest.mark.parametrize("check,run", _checks(),
                         ids=[name for name, _ in _checks()])
def test_check_span_tree(check, run):
    tracer = obs.Tracer()
    with obs.use(tracer):
        result = run()
    assert result.holds is True
    local = check == "verify.local_equivalence"
    [root] = [s for s in tracer.spans
              if s["name"] == (check if local else "verify")]
    assert root["parent_id"] == 0
    if local:
        assert _names(_children(tracer, root)) == [
            "verify.encode", "verify.property", "verify.solve"]
    else:
        # verify -> batch.run -> batch.group -> batch.query, as for any
        # Verifier.verify query.
        [run_span] = _children(tracer, root)
        assert run_span["name"] == "batch.run"
        _, group = _children(tracer, run_span)
        assert _names(_children(tracer, run_span)) == [
            "batch.plan", "batch.group"]
        _, query = _children(tracer, group)
        assert _names(_children(tracer, group)) == [
            "verify.encode", "batch.query"]
        assert query["attrs"]["query"] == result.property_name
        assert _names(_children(tracer, query)) == [
            "verify.property", "verify.solve"]
    assert result.seconds == pytest.approx(root["duration"])


def _sat_solves(tracer):
    return [s["attrs"] for s in tracer.spans if s["name"] == "sat.solve"]


def _counters(message):
    match = UNKNOWN.match(message)
    assert match, message
    return dict(zip(("conflicts", "decisions", "propagations",
                     "restarts"), map(int, match.groups())))


def test_unknown_names_this_checks_counters_below_4096_conflicts():
    net = TestEquivalence.split_guard_network()
    tracer = obs.Tracer()
    with obs.use(tracer):
        result = Verifier(net, conflict_budget=2).verify_local_equivalence(
            "A", "B")
    assert result.holds is None
    [solve] = _sat_solves(tracer)
    counters = _counters(result.message)
    assert counters == {key: solve[key] for key in counters}
    assert counters["conflicts"] == 2
    assert counters["decisions"] > 0 and counters["propagations"] > 0


def test_unknown_on_a_warm_encoding_reports_only_its_own_counters():
    prop = P.Reachability(sources="all", dest_prefix_text=RACK)
    group = GroupEncoding(diamond().build(), EncoderOptions(max_failures=1),
                          1, prop.dst_prefix())
    tracer = obs.Tracer()
    with obs.use(tracer):
        first = group.solve_one(BatchQuery(prop))
        second = group.solve_one(BatchQuery(
            P.Reachability(sources=["S"], dest_prefix_text=RACK)))
    assert first.holds is None and second.holds is None
    counters = [_counters(r.message) for r in (first, second)]
    solves = _sat_solves(tracer)
    assert len(solves) == 2
    for own, solve in zip(counters, solves):
        assert own == {key: solve[key] for key in own}
    lifetime = group.solver.stats
    assert counters[1]["decisions"] < lifetime["decisions"]
    assert counters[1]["propagations"] < lifetime["propagations"]


_FULL_EQUIVALENCE = """
import json, sys
from repro import Verifier, load_network
network = load_network(sys.argv[1])
result = Verifier(network, preflight=False).verify_full_equivalence(network)
print(json.dumps([result.holds, result.num_variables, result.num_clauses,
                  result.conflicts]))
"""


def test_full_equivalence_search_is_independent_of_hash_seed():
    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", _FULL_EQUIVALENCE,
             str(REPO / "examples" / "configs")],
            env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    first, second = run(1), run(2)
    assert first[0] is True
    assert first == second
