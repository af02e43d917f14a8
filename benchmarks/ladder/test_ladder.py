"""Unit tests of the ladder's pure parts (well under 5 s).

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/ladder``.
"""

import json
import os
from itertools import islice

import pytest

from benchmarks.ladder import draws, measure
from benchmarks.ladder.run import ROOT, count_mismatches, end_to_end, per_layer
from repro import obs
from repro.gen import build_cloud_network, build_fattree
from repro.obs.promexport import parse_exposition, to_prometheus


# -- percentile rule ----------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert measure.tail_percentile(list(range(99)), 90) is None
    samples = list(range(1, 101))
    assert measure.tail_percentile(samples, 90) == 90
    assert measure.tail_percentile(samples[::-1], 90) == 90


def test_p99_omitted_below_a_thousand_samples():
    assert measure.tail_percentile(list(range(999)), 99) is None
    assert measure.tail_percentile(list(range(1, 1001)), 99) == 990
    assert measure.tail_percentile([], 90) is None


# -- span self time -----------------------------------------------------------

def _span(span_id, parent_id, name, start, duration):
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "start": start, "duration": duration}


def test_self_time_subtracts_children():
    spans = [_span(1, 0, "verify", 0.0, 10.0),
             _span(2, 1, "verify.encode", 1.0, 3.0),
             _span(3, 2, "smt.add", 2.0, 1.0),
             _span(4, 1, "verify.solve", 5.0, 2.0),
             _span(5, 4, "sat.solve", 5.5, 1.0)]
    own = measure.self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0})
    layers = measure.layer_seconds(spans)
    assert layers["core.encode_s"] == pytest.approx(7.0)
    assert layers["smt.cnf_s"] == pytest.approx(1.0)
    assert layers["sat.search_s"] == pytest.approx(2.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_with_worker_merged_lanes():
    # Two worker lanes merged under one batch.run span ran in parallel:
    # their union (1..8), not the sum of durations (11), is covered.
    spans = [_span(1, 0, "batch.run", 0.0, 10.0),
             _span(2, 1, "batch.group", 1.0, 5.0),
             _span(3, 1, "batch.group", 2.0, 6.0),
             _span(4, 2, "sat.solve", 1.0, 20.0)]  # clipped to its parent
    own = measure.self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(0.0)
    assert own[3] == pytest.approx(6.0)


def test_self_time_over_a_real_merged_trace():
    tracer = obs.Tracer(lane="main")
    with tracer.span("batch.run"):
        for lane in ("w1", "w2"):
            worker = obs.Tracer(lane=lane)
            with worker.span("batch.group"):
                with worker.span("sat.solve"):
                    sum(range(1000))
            tracer.merge(worker.export())
    spans = tracer.spans
    assert {s["lane"] for s in spans} == {"main", "w1", "w2"}
    own = measure.self_times(spans)
    assert all(value >= 0.0 for value in own.values())
    root = next(s for s in spans if s["parent_id"] == 0)
    assert own[root["span_id"]] <= root["duration"]


def test_layer_of_prefers_the_specific_name():
    assert measure.layer_of("parse.file") == "lang.parse_s"
    assert measure.layer_of("verify.solve") == "sat.search_s"
    assert measure.layer_of("verify.model") == "core.model_s"
    assert measure.layer_of("verify.local_equivalence") == "core.encode_s"
    assert measure.layer_of("encode.router") == "core.encode_s"
    assert measure.layer_of("ladder.verify") is None
    assert measure.layer_of("parser") is None


def test_counters_sum_labels_and_keep_module_splits():
    registry = obs.MetricsRegistry()
    registry.counter("cnf.clauses", module="network").inc(7)
    registry.counter("cnf.clauses", module="instrumentation").inc(2)
    registry.counter("sat.conflicts").inc(5)
    counters = measure.counters_from_exposition(
        parse_exposition(to_prometheus(registry)))
    assert counters[measure.counter_name("cnf.clauses")] == 9
    assert counters["cnf_clauses_total{instrumentation}"] == 2
    assert counters[measure.counter_name("sat.conflicts")] == 5


# -- seeded draws -------------------------------------------------------------

@pytest.fixture(scope="module")
def pools():
    return draws.cloud_pools()


def test_cloud_draw_is_seeded_and_stratified(pools):
    assert draws.draw_cloud(3, pools) == draws.draw_cloud(3, pools)
    assert len({tuple(draws.draw_cloud(s, pools)) for s in range(8)}) > 1
    for seed in range(8):
        drawn = draws.draw_cloud(seed, pools)
        classes = [draws.cloud_class(build_cloud_network(i)) for i in drawn]
        assert classes == list(draws.CLOUD_CLASSES)
        for index in drawn:
            assert len(build_cloud_network(index).network.devices) <= 7


def test_dark_prefix_is_seeded_and_dark():
    assert draws.dark_prefix(5) == draws.dark_prefix(5)
    assert len({draws.dark_prefix(s) for s in range(8)}) > 1
    texts = draws.render(build_fattree(4).network)
    for seed in range(8):
        net = draws.dark_prefix(seed).rsplit(".", 2)[0] + "."
        assert not any(net in text for text in texts.values())


# -- serve-mix operation sequence ---------------------------------------------

def _pool():
    return (draws.query_pool("ft", ["a", "b"], ["10.0.0.0/24"])
            + draws.query_pool("cloud", ["c", "d", "e"],
                               ["10.1.0.0/24", "172.16.0.1/32"]))


def test_serve_ops_repeat_for_a_seed():
    pool = _pool()
    first = list(islice(draws.serve_ops(7, 0, pool), 500))
    assert first == list(islice(draws.serve_ops(7, 0, pool), 500))
    assert first != list(islice(draws.serve_ops(8, 0, pool), 500))
    assert first != list(islice(draws.serve_ops(7, 1, pool), 500))


def test_serve_ops_mix_and_batches():
    pool = _pool()
    ops = list(islice(draws.serve_ops(0, 0, pool), 5000))
    kinds = [op[0] for op in ops]
    for kind, weight in draws.OP_WEIGHTS:
        assert abs(kinds.count(kind) / len(ops) - weight / 100) < 0.02
    for kind, snapshot, indices in ops:
        if kind == "batch":
            assert len(indices) == draws.BATCH_SIZE
        assert all(pool[i][0] == snapshot for i in indices)


def test_serve_ops_follow_the_seeded_zipf_ranking():
    pool = _pool()
    order = draws.popularity(0, len(pool))
    assert order != draws.popularity(1, len(pool))
    counts = [0] * len(pool)
    for _, _, indices in islice(draws.serve_ops(0, 1, pool), 20000):
        for index in indices:
            counts[index] += 1
    top, second = counts[order[0]], counts[order[1]]
    assert top == max(counts)
    assert 1.6 < top / second < 2.4  # weight 1/rank: twice as popular


def test_serve_pool_draws_a_5_router_network():
    from benchmarks.ladder.serve_mix import serve_inputs, warmup_batch

    texts, pool = serve_inputs(4)
    assert len(texts[("cloud", "-")]) == draws.SERVE_CLOUD_ROUTERS
    assert len({draws.spec_key(spec) + name for name, spec in pool}) >= 150
    assert serve_inputs(4) == (texts, pool)
    assert len({draws.draw_serve_cloud(s) for s in range(8)}) > 1
    # One warm-up query per (prefix, k) group: 8 cloud and 3 fat-tree
    # prefixes, each with k in {0, 1}.
    for snapshot, groups in (("cloud", 16), ("ft", 6)):
        batch = warmup_batch(pool, snapshot)
        assert len({(q["dest_prefix"], q["max_failures"])
                    for q in batch}) == len(batch) == groups


def test_renumbered_revision_changes_one_router():
    texts = {"tor_0_0.cfg": "ip address 10.0.0.1/24\nnetwork 10.0.0.0/24",
             "agg.cfg": "ip address 10.0.0.9/30"}
    moved = draws.renumber_rack(texts, "tor_0_0", "10.0.0.0/24",
                                draws.DARK_PREFIX)
    assert moved["agg.cfg"] == texts["agg.cfg"]
    assert "10.250.0.0/24" in moved["tor_0_0.cfg"]
    assert "10.0.0." not in moved["tor_0_0.cfg"]


# -- emitted metrics match BENCHMARK.json -------------------------------------

def test_emitted_metrics_are_the_declared_ones():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    run = measure.Run("fattree-k4", 0, True, setup_s=0.1, wall_s=2.0,
                      client_s=2.0, latencies=[0.5, 1.5],
                      fresh_latencies=[0.5, 1.5], attempted=2, answered=3,
                      solved=3)
    run.spans = [_span(1, 0, "sat.solve", 0.0, 1.0),
                 _span(2, 0, "sat.preprocess", 1.0, 0.5)]
    for section, compute in (("end_to_end", end_to_end),
                             ("per_layer", per_layer)):
        emitted, _ = compute(run)
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: unit for k, (_, unit) in emitted.items()} == declared


# -- count identity across runs -----------------------------------------------

def test_count_mismatches_compares_by_query_name():
    old = [{"name": "0:a", "vars": 1, "clauses": 2, "conflicts": 3},
           {"name": "1:b", "vars": 1, "clauses": 2, "conflicts": 3}]
    same = [dict(q) for q in old] + [
        {"name": "2:c", "vars": 9, "clauses": 9, "conflicts": 9}]
    assert count_mismatches(old, same) == []
    changed = [dict(old[0], conflicts=4)]
    assert count_mismatches(old, changed) == ["0:a: conflicts 3 -> 4"]
