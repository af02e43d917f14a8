"""Batch engine: shared-encoding correctness, grouping, parallelism."""

import pytest

from repro import NetworkBuilder, Verifier
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.core.encoder import EncoderOptions


def chain_builder(n=3, multipath=False):
    b = NetworkBuilder()
    names = [f"R{i}" for i in range(1, n + 1)]
    for name in names:
        b.device(name).enable_ospf(multipath=multipath)
        b.device(name).ospf_network("10.0.0.0/8")
    for a, c in zip(names, names[1:]):
        b.link(a, c)
    b.device(names[-1]).interface("host", "10.9.0.1/24")
    return b


def ospf_chain(n=3, multipath=False):
    return chain_builder(n, multipath).build()


def undecided_chain(n=3):
    """``ospf_chain`` plus a discard static on R1 for an unrelated
    prefix.  Verdicts on 10.9.0.0/24 and 172.20.0.0/16 are unchanged,
    but the static makes R1 a loop pivot, so the network fixes no
    verdict without an encoding (``repro.analysis.stable``): every
    query on it builds, caches and solves one."""
    b = chain_builder(n)
    b.device("R1").static_route("192.0.2.0/24", drop=True)
    return b.build()


def diamond(multipath=True):
    b = NetworkBuilder()
    for name in ("S", "L", "R", "D"):
        b.device(name).enable_ospf(multipath=multipath)
        b.device(name).ospf_network("10.0.0.0/8")
    b.link("S", "L")
    b.link("S", "R")
    b.link("L", "D")
    b.link("R", "D")
    b.device("D").interface("host", "10.9.0.1/24")
    return b.build()


def query_matrix():
    """A mixed batch: holding and violated, two destination prefixes."""
    return [
        BatchQuery(P.Reachability(sources="all",
                                  dest_prefix_text="10.9.0.0/24")),
        BatchQuery(P.Reachability(sources=["R1"],
                                  dest_prefix_text="172.20.0.0/16"),
                   label="unroutable"),
        BatchQuery(P.NoBlackHoles(dest_prefix_text="10.9.0.0/24")),
        BatchQuery(P.NoForwardingLoops(dest_prefix_text="10.9.0.0/24")),
        BatchQuery(P.BoundedPathLength(sources="all", bound=1,
                                       dest_prefix_text="10.9.0.0/24")),
        BatchQuery(P.BoundedPathLength(sources="all", bound=6,
                                       dest_prefix_text="10.9.0.0/24")),
    ]


def assert_matches_serial(network, queries, results, **verify_kwargs):
    verifier = Verifier(network, **verify_kwargs)
    assert len(results) == len(queries)
    for query, batched in zip(queries, results):
        serial = verifier.verify(query.prop,
                                 max_failures=query.max_failures,
                                 assumptions=list(query.assumptions))
        assert batched.holds == serial.holds, query.name()
        assert (batched.counterexample is None) == \
            (serial.counterexample is None), query.name()


class TestBatchMatchesSerial:
    def test_chain_matrix(self):
        network = ospf_chain(3)
        queries = query_matrix()
        results = BatchEngine(network).run(queries)
        assert_matches_serial(network, queries, results)
        # Spot-check expected verdicts, not just serial agreement.
        assert [r.holds for r in results] == \
            [True, False, True, True, False, True]

    def test_multipath_diamond_matrix(self):
        # Multipath states are exactly where unguarded instrumentation
        # sharing would be unsound (hop-counter equations conflict with
        # unequal branch lengths), so exercise them explicitly.
        network = diamond(multipath=True)
        queries = [
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.BoundedPathLength(sources=["S"], bound=2,
                                           dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.MultipathConsistency(
                dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.EqualPathLengths(routers=["S", "L", "R"],
                                          dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.NoForwardingLoops(dest_prefix_text="10.9.0.0/24")),
        ]
        results = BatchEngine(network).run(queries)
        assert_matches_serial(network, queries, results)

    def test_instrumented_query_does_not_taint_siblings(self):
        # A bounded-length property asserts hop-counter instrumentation.
        # If that leaked unguarded into the shared solver it would shrink
        # the state space for the queries checked after it.
        network = diamond(multipath=True)
        queries = [
            BatchQuery(P.BoundedPathLength(sources=["S"], bound=1,
                                           dest_prefix_text="10.9.0.0/24"),
                       label="too-tight"),
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.EqualPathLengths(routers=["L", "R"],
                                          dest_prefix_text="10.9.0.0/24")),
        ]
        results = BatchEngine(network).run(queries)
        assert_matches_serial(network, queries, results)
        assert results[0].holds is False

    def test_per_query_assumptions_do_not_leak(self):
        b = NetworkBuilder()
        b.device("R1").enable_bgp(65001)
        b.external_peer("R1", asn=65100, name="EXT")
        network = b.build()
        prop = P.Reachability(sources=["R1"], dest_peer="EXT",
                              dest_prefix_text="8.0.0.0/8")
        queries = [
            BatchQuery(prop,
                       assumptions=(P.announces("EXT", min_length=8),),
                       label="assumed"),
            BatchQuery(prop, label="unassumed"),
        ]
        results = BatchEngine(network).run(queries)
        assert results[0].holds is True
        assert results[1].holds is False
        assert_matches_serial(network, queries, results)

    def test_plain_properties_accepted(self):
        network = ospf_chain(2)
        results = BatchEngine(network).run([
            P.Reachability(sources="all", dest_prefix_text="10.9.0.0/24"),
            P.NoForwardingLoops(dest_prefix_text="10.9.0.0/24"),
        ])
        assert [r.holds for r in results] == [True, True]


class TestGroupingAndOrdering:
    def test_results_in_query_order(self):
        network = ospf_chain(3)
        queries = query_matrix()
        results = BatchEngine(network).run(queries)
        expected_names = [q.name() for q in queries]
        assert [r.property_name for r in results] == expected_names

    def test_groups_split_by_max_failures(self):
        network = diamond(multipath=False)
        prop = P.Reachability(sources=["S"],
                              dest_prefix_text="10.9.0.0/24")
        queries = [
            BatchQuery(prop, max_failures=0, label="k0"),
            BatchQuery(prop, max_failures=1, label="k1"),
            BatchQuery(prop, max_failures=2, label="k2"),
        ]
        engine = BatchEngine(network)
        results = engine.run(queries)
        # Diamond survives any single failure but not two (both L and R
        # links from S cut off the source).
        assert [r.holds for r in results] == [True, True, False]
        assert_matches_serial(network, queries, results)

    def test_explicit_zero_overrides_engine_default(self):
        network = ospf_chain(2)
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        engine = BatchEngine(network,
                             options=EncoderOptions(max_failures=1))
        results = engine.run([BatchQuery(prop, max_failures=0, label="k0"),
                              BatchQuery(prop, label="default")])
        # On a 2-node chain one failure disconnects R1, so the engine
        # default (k=1) must report a violation while the explicit k=0
        # query holds.
        assert results[0].holds is True
        assert results[1].holds is False

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            BatchEngine(ospf_chain(2), workers=0)


class TestParallel:
    def test_parallel_matches_serial(self):
        network = ospf_chain(3)
        queries = query_matrix()
        serial = BatchEngine(network, workers=1).run(queries)
        parallel = BatchEngine(network, workers=2).run(queries)
        assert [r.holds for r in serial] == [r.holds for r in parallel]
        assert [r.property_name for r in serial] == \
            [r.property_name for r in parallel]
        for s, p in zip(serial, parallel):
            assert (s.counterexample is None) == (p.counterexample is None)


class TestLazyFallback:
    def test_load_balanced_routed_through_verifier(self):
        network = diamond(multipath=True)
        queries = [
            BatchQuery(P.LoadBalanced(source_loads={"S": 1.0},
                                      monitor=[("L", "R")], threshold=0.01,
                                      dest_prefix_text="10.9.0.0/24"),
                       label="lb"),
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text="10.9.0.0/24")),
        ]
        results = BatchEngine(network).run(queries)
        assert results[0].property_name == "lb"
        assert results[0].holds is True
        assert results[1].holds is True
        assert_matches_serial(network, queries, results)


    def test_lazy_query_does_not_relint(self):
        from repro import obs

        verifier = Verifier(diamond(multipath=True), preflight=False)
        tracer = obs.Tracer()
        with obs.use(tracer):
            [result] = verifier.verify_batch([P.LoadBalanced(
                source_loads={"S": 1.0}, monitor=[("L", "R")],
                threshold=0.01, dest_prefix_text="10.9.0.0/24")])
        assert result.holds is True
        linted = [s["name"] for s in tracer.spans
                  if s["name"].startswith("analysis")]
        assert linted == []


class TestEncodingCache:
    # On a 2-node chain one failure cuts R1 off: the bound flips the
    # verdict, so an encoding answering at the wrong bound shows.
    def _bound_engine(self):
        from repro.serve import TTLLRUCache

        cache = TTLLRUCache()
        engine = BatchEngine(undecided_chain(2), encoding_cache=cache)
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        return engine, cache, prop, engine.encoding_cache_key()

    def test_larger_bound_encoding_answers_smaller_k(self):
        engine, cache, prop, key = self._bound_engine()
        [k1] = engine.run([BatchQuery(prop, max_failures=1)])
        assert k1.holds is False
        # A miss pays the encoding, timed even with no tracer installed.
        assert k1.encode_shared_seconds > 0.0
        assert cache.get(key).options.max_failures == 1
        [k0] = engine.run([BatchQuery(prop, max_failures=0)])
        assert engine.last_encoding_stats == {"hits": 1, "misses": 0}
        assert k0.encode_shared_seconds == 0.0
        assert k0.holds is True
        assert k0.holds == Verifier(undecided_chain(2)).verify(
            prop, max_failures=0).holds

    def test_encoding_refuses_a_larger_k(self):
        from repro.core.engine import GroupEncoding

        _, _, prop, _ = self._bound_engine()
        group = GroupEncoding(ospf_chain(2), EncoderOptions(),
                              dst_prefix=prop.dst_prefix())
        with pytest.raises(ValueError, match="bounds failures at 0"):
            group.solve_one(BatchQuery(prop, max_failures=1))

    def test_smaller_bound_encoding_is_rebuilt_at_larger_k(self):
        from repro import obs

        engine, cache, prop, key = self._bound_engine()
        tracer = obs.Tracer()
        with obs.use(tracer):
            engine.run([BatchQuery(prop, max_failures=0)])
            first = cache.get(key)
            assert first.options.max_failures == 0
            [k1] = engine.run([BatchQuery(prop, max_failures=1)])
            assert engine.last_encoding_stats == {"hits": 0, "misses": 1}
            rebuilt = cache.get(key)
            assert rebuilt is not first
            assert rebuilt.options.max_failures == 1
            [k0] = engine.run([BatchQuery(prop, max_failures=0)])
            assert engine.last_encoding_stats == {"hits": 1, "misses": 0}
        assert (k1.holds, k0.holds) == (False, True)
        snap = tracer.metrics.snapshot()
        assert snap["engine.encoding_bound_raised"]["value"] == 1
        assert snap["engine.encoding_cache_miss"]["value"] == 2

    def test_replaced_encoding_is_not_put_back(self, monkeypatch):
        from repro.core import engine as engine_mod

        engine, cache, prop, key = self._bound_engine()
        engine.run([BatchQuery(prop, max_failures=0)])
        real_solve = engine_mod._solve_group
        interleaved = []

        def solve_after_a_k1_run(*args, **kwargs):
            # A concurrent k=1 request raises the entry to K=1 while
            # this k=0 run still holds the K=0 encoding.
            if not interleaved:
                interleaved.append(True)
                BatchEngine(engine.network, encoding_cache=cache).run(
                    [BatchQuery(prop, max_failures=1)])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "_solve_group", solve_after_a_k1_run)
        [k0] = engine.run([BatchQuery(prop, max_failures=0)])
        assert k0.holds is True
        assert cache.get(key).options.max_failures == 1

    def test_evicted_encoding_is_not_put_back(self, monkeypatch):
        from repro.core import engine as engine_mod
        from repro.serve import TTLLRUCache

        cache = TTLLRUCache()
        engine = BatchEngine(undecided_chain(2), encoding_cache=cache,
                             encoding_scope="tenant/snap/")
        prop = P.Reachability(sources=["R1"],
                              dest_prefix_text="10.9.0.0/24")
        key = engine.encoding_cache_key()
        real_solve = engine_mod._solve_group

        def solve_after_a_refresh(*args, **kwargs):
            # A snapshot refresh drops the scope while this run still
            # holds the encoding.
            assert cache.evict_scope("tenant/snap/") == 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "_solve_group",
                            solve_after_a_refresh)
        [result] = engine.run([prop])
        assert result.holds is True
        assert key not in cache
        assert cache.total_bytes == 0

    def test_spent_activation_literal_is_retired_at_the_root(self):
        from repro.core.engine import GroupEncoding

        network = undecided_chain(3)
        reach = P.Reachability(sources="all",
                               dest_prefix_text="10.9.0.0/24")
        short = P.BoundedPathLength(sources="all", bound=1,
                                    dest_prefix_text="10.9.0.0/24")
        group = GroupEncoding(network, EncoderOptions(),
                              dst_prefix=reach.dst_prefix())
        assert group.solve_one(BatchQuery(reach)).holds is True
        second = group.solve_one(BatchQuery(short))
        assert second.holds is Verifier(network).verify(short).holds
        assert second.holds is False

        sat = group.solver._sat
        acts = sorted(var for var, leaf in
                      group.solver._cnf.leaf_of_var.items()
                      if leaf.kind == "boolvar"
                      and leaf.payload.startswith("batch.act#"))
        assert len(acts) == 2
        spent, live = (var - 1 for var in acts)
        assert (sat._assign[spent], sat._level[spent]) == (0, 0)
        assert (sat._assign[live], sat._level[live]) != (0, 0)

    @pytest.mark.parametrize("source",
                             ["fattree", "cloud", "long-search", "shared"])
    def test_size_estimate_tracks_measured_footprint(self, source):
        """``cache_size`` is within 1.5x of the bytes a warm group
        frees when it is dropped, so ``--cache-bytes`` bounds roughly
        the memory it says.  The long-search group's first check runs
        a few hundred conflicts to a violation (the others run a few
        dozen), so learnt clauses are a share of its footprint.  The
        shared encoding is restricted to no prefix (as a cached one
        is) and answers two prefixes at two bounds, on serve-mix's
        cloud snapshot."""
        import gc
        import tracemalloc

        from repro.core.engine import GroupEncoding
        from repro.gen import build_cloud_network, build_fattree
        from repro.net import ip as iplib

        bound = 0 if source == "long-search" else 1
        if source == "fattree":
            tree = build_fattree(2)
            network, prefixes = tree.network, [tree.tor_subnet(tree.tors[0])]
        else:
            index = {"cloud": 40, "long-search": 0, "shared": 51}[source]
            cloud = build_cloud_network(index)
            network = cloud.network
            prefixes = cloud.management_prefixes[:2 if source == "shared"
                                                 else 1]
        queries = [BatchQuery(P.Reachability(sources="all",
                                             dest_prefix_text=prefix),
                              max_failures=k)
                   for prefix in prefixes
                   for k in ((0, 1) if source == "shared" else (bound,))]
        dst = None if source == "shared" else iplib.parse_prefix(prefixes[0])
        gc.collect()
        tracemalloc.start()
        try:
            group = GroupEncoding(network,
                                  EncoderOptions(max_failures=bound),
                                  dst_prefix=dst)
            for query in queries:
                group.solve_one(query)
            estimate = group.cache_size()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del group
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert freed > 1_000_000
        assert freed / 1.5 <= estimate <= freed * 1.5


class TestStats:
    def test_per_query_stats_populated(self):
        network = undecided_chain(3)
        results = BatchEngine(network).run(query_matrix())
        for result in results:
            assert result.num_variables > 0
            assert result.num_clauses > 0
            assert result.seconds > 0
            assert result.encode_seconds > 0
            assert result.solve_seconds >= 0
            assert result.conflicts >= 0
            assert result.seconds >= result.encode_seconds

    def test_verifier_entry_point(self):
        network = ospf_chain(2)
        verifier = Verifier(network)
        results = verifier.verify_batch([
            P.Reachability(sources="all", dest_prefix_text="10.9.0.0/24"),
        ])
        assert len(results) == 1 and results[0].holds is True

    def test_shared_encoding_attribution(self):
        """The one-time shared encoding is amortized evenly across a
        group, per-query cost is separate, and encode_seconds is exactly
        their sum — so group totals add up without double-counting."""
        network = undecided_chain(3)
        queries = [
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.NoBlackHoles(dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.NoForwardingLoops(
                dest_prefix_text="10.9.0.0/24")),
        ]
        results = BatchEngine(network).run(queries)  # one group (same key)
        shares = {r.encode_shared_seconds for r in results}
        assert len(shares) == 1, "equal amortized share per group member"
        assert shares.pop() > 0
        for r in results:
            assert r.encode_query_seconds >= 0
            assert r.encode_seconds == pytest.approx(
                r.encode_shared_seconds + r.encode_query_seconds)
            assert r.seconds >= r.encode_shared_seconds

    def test_group_encode_totals_sum_to_actual_cost(self):
        """Summing encode_seconds across a group equals shared cost plus
        the per-query costs (no shared time counted twice)."""
        from repro import obs

        network = ospf_chain(3)
        queries = [
            BatchQuery(P.Reachability(sources="all",
                                      dest_prefix_text="10.9.0.0/24")),
            BatchQuery(P.NoBlackHoles(dest_prefix_text="10.9.0.0/24")),
        ]
        tracer = obs.Tracer()
        with obs.use(tracer):
            results = BatchEngine(network).run(queries)
        shared_spans = sum(s["duration"] for s in tracer.spans
                           if s["name"] == "verify.encode")
        query_spans = sum(s["duration"] for s in tracer.spans
                          if s["name"] == "verify.property")
        total = sum(r.encode_seconds for r in results)
        assert total == pytest.approx(shared_spans + query_spans)

    def test_standalone_verify_shared_is_full_network_encoding(self):
        network = undecided_chain(3)
        result = Verifier(network).verify(
            P.Reachability(sources="all", dest_prefix_text="10.9.0.0/24"))
        assert result.encode_shared_seconds > 0
        assert result.encode_seconds == pytest.approx(
            result.encode_shared_seconds + result.encode_query_seconds)


class TestPoolFallback:
    def test_pool_failure_warns_and_counts(self, monkeypatch):
        """A broken process pool must not silently degrade to serial.

        The fallback still has to produce correct results, but it must
        emit a RuntimeWarning and tick the engine.pool_fallback counter
        so operators can see why a parallel batch ran at serial speed.
        """
        from repro import obs
        from repro.core import engine as engine_mod

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("spawn forbidden in this test")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                            ExplodingPool)
        network = undecided_chain(3)
        queries = query_matrix()
        tracer = obs.Tracer()
        with obs.use(tracer):
            with pytest.warns(RuntimeWarning,
                              match="process pool failed"):
                results = BatchEngine(network, workers=2).run(queries)
        assert tracer.metrics.counter("engine.pool_fallback").value == 1
        serial = BatchEngine(network, workers=1).run(queries)
        assert [r.holds for r in results] == [r.holds for r in serial]

    def test_healthy_pool_does_not_tick_fallback(self):
        from repro import obs
        network = ospf_chain(3)
        tracer = obs.Tracer()
        with obs.use(tracer):
            BatchEngine(network, workers=2).run(query_matrix())
        assert tracer.metrics.counter("engine.pool_fallback").value == 0
