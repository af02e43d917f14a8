"""Tracing threaded through the verification pipeline end to end."""

import pytest

from repro import Verifier, obs
from repro.core import BatchEngine, properties as P

from tests.core.test_engine import ospf_chain, query_matrix, undecided_chain


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests install tracers explicitly; never leak one across tests."""
    yield
    obs.disable()


def test_verify_emits_phase_spans():
    network = undecided_chain(3)
    tracer = obs.Tracer()
    with obs.use(tracer):
        result = Verifier(network).verify(
            P.Reachability(dest_prefix_text="10.9.0.0/24"))
    names = {s["name"] for s in tracer.spans}
    assert {"verify", "verify.encode", "verify.property", "verify.solve",
            "encode.network", "encode.router", "smt.add",
            "sat.solve"} <= names
    # Result timing fields are the span durations (one telemetry source).
    root = next(s for s in tracer.spans if s["name"] == "verify")
    assert result.seconds == root["duration"]
    solve = next(s for s in tracer.spans if s["name"] == "verify.solve")
    assert result.solve_seconds == solve["duration"]


def test_verify_stats_without_tracer_still_populated():
    result = Verifier(undecided_chain(3)).verify(
        P.Reachability(dest_prefix_text="10.9.0.0/24"))
    assert result.seconds > 0
    assert result.encode_seconds > 0
    assert result.solve_seconds > 0
    assert result.seconds >= result.encode_seconds
    assert result.encode_seconds == pytest.approx(
        result.encode_shared_seconds + result.encode_query_seconds)


def test_tracing_does_not_change_verdicts():
    network = ospf_chain(3)
    queries = query_matrix()
    baseline = BatchEngine(network).run(queries)
    tracer = obs.Tracer()
    with obs.use(tracer):
        traced = BatchEngine(network).run(queries)
    assert [r.holds for r in traced] == [r.holds for r in baseline]


def test_batch_group_spans_and_cnf_attribution():
    network = undecided_chain(3)
    tracer = obs.Tracer()
    with obs.use(tracer):
        BatchEngine(network).run(query_matrix())
    names = [s["name"] for s in tracer.spans]
    assert "batch.run" in names
    assert names.count("batch.query") == len(query_matrix())
    snap = tracer.metrics.snapshot()
    assert snap["cnf.clauses{module=network}"]["value"] > 0
    assert snap["cnf.clauses{module=instrumentation}"]["value"] > 0
    assert snap["batch.queries"]["value"] == len(query_matrix())


def test_parallel_workers_merge_traces():
    network = undecided_chain(3)
    queries = query_matrix()
    tracer = obs.Tracer()
    with obs.use(tracer):
        results = BatchEngine(network, workers=2).run(queries)
    assert [r.holds for r in results] == \
        [r.holds for r in BatchEngine(network).run(queries)]
    lanes = {s.get("lane") for s in tracer.spans}
    assert len(lanes) > 1, "worker group lanes merged into the trace"
    # Worker roots hang off the parent's batch.run span.
    root = next(s for s in tracer.spans if s["name"] == "batch.run")
    groups = [s for s in tracer.spans if s["name"] == "batch.group"]
    assert groups and all(g["parent_id"] == root["span_id"]
                          for g in groups)
    ids = [s["span_id"] for s in tracer.spans]
    assert len(ids) == len(set(ids))
    # Worker metrics merged too.
    assert tracer.metrics.snapshot()["sat.conflicts"]["value"] >= 0


def test_parse_and_build_spans():
    from repro.net.loader import network_from_texts

    tracer = obs.Tracer()
    with obs.use(tracer):
        network_from_texts({"r1.cfg": "hostname R1\n"})
    names = [s["name"] for s in tracer.spans]
    assert "parse" in names
    assert "parse.file" in names
    assert "net.build" in names
