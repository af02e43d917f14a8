"""TTL + LRU cache semantics (injectable clock, no sleeping)."""

import pytest

from repro import obs
from repro.serve import TTLLRUCache


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return Clock()


def make(clock, max_bytes=1000, ttl=10.0):
    return TTLLRUCache(max_bytes=max_bytes, ttl_seconds=ttl, clock=clock)


class TestBasics:
    def test_get_put_roundtrip(self, clock):
        cache = make(clock)
        assert cache.get("k") is None
        assert cache.put("k", "v", 10)
        assert cache.get("k") == "v"
        assert cache.hits == 1 and cache.misses == 1

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            TTLLRUCache(max_bytes=0)
        with pytest.raises(ValueError):
            TTLLRUCache(ttl_seconds=0)

    def test_replace_same_key_reaccounts_bytes(self, clock):
        cache = make(clock)
        cache.put("k", "old", 600)
        cache.put("k", "new", 100)
        assert cache.get("k") == "new"
        assert cache.total_bytes == 100
        assert len(cache) == 1

    def test_replace_same_key_is_not_an_eviction(self, clock):
        cache = make(clock)
        tracer = obs.Tracer()
        with obs.use(tracer):
            cache.put("k", "old", 300)
            cache.put("other", "x", 50)
            cache.put("k", "new", 200)
        assert cache.evicted_scope == 0
        assert tracer.metrics.counter(
            "serve.cache.evicted", reason="scope").value == 0
        assert cache.total_bytes == 250
        assert cache.get("k") == "new"


class TestTTL:
    def test_entry_expires_after_ttl(self, clock):
        cache = make(clock, ttl=10.0)
        cache.put("k", "v", 1)
        clock.advance(9.9)
        assert cache.get("k") == "v"
        clock.advance(10.1)
        assert cache.get("k") is None
        assert cache.evicted_ttl == 1

    def test_get_refreshes_ttl(self, clock):
        cache = make(clock, ttl=10.0)
        cache.put("k", "v", 1)
        for _ in range(5):
            clock.advance(8.0)
            assert cache.get("k") == "v"

    def test_contains_respects_ttl_without_refreshing(self, clock):
        cache = make(clock, ttl=10.0)
        cache.put("k", "v", 1)
        assert "k" in cache
        clock.advance(11.0)
        assert "k" not in cache


class TestLRU:
    def test_least_recent_evicted_first(self, clock):
        cache = make(clock, max_bytes=300)
        cache.put("a", 1, 100)
        cache.put("b", 2, 100)
        cache.put("c", 3, 100)
        cache.get("a")  # refresh: b is now least recent
        cache.put("d", 4, 100)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.get("d") == 4
        assert cache.evicted_lru == 1

    def test_large_insert_evicts_many(self, clock):
        cache = make(clock, max_bytes=300)
        for key in "abc":
            cache.put(key, key, 100)
        cache.put("big", "B", 250)
        assert len(cache) == 1
        assert cache.get("big") == "B"
        assert cache.evicted_lru == 3

    def test_oversized_entry_refused(self, clock):
        cache = make(clock, max_bytes=100)
        assert not cache.put("huge", "x", 101)
        assert cache.get("huge") is None
        assert cache.rejected == 1

    def test_oversized_replacement_drops_stale_value(self, clock):
        cache = make(clock, max_bytes=100)
        cache.put("k", "small", 10)
        assert not cache.put("k", "huge", 500)
        # The stale small value must not survive under the key.
        assert cache.get("k") is None

    def test_oversized_replacement_is_a_rejection_not_an_eviction(
            self, clock):
        cache = make(clock, max_bytes=100)
        tracer = obs.Tracer()
        with obs.use(tracer):
            cache.put("k", "small", 10)
            assert not cache.put("k", "huge", 500)
        assert cache.rejected == 1
        assert cache.evicted_scope == 0
        assert cache.total_bytes == 0
        assert tracer.metrics.counter(
            "serve.cache.evicted", reason="scope").value == 0


class TestResize:
    def test_resize_updates_size_in_place(self, clock):
        cache = make(clock)
        cache.put("a", "A", 100)
        cache.put("b", "B", 100)
        assert cache.resize("a", "A", 300)
        assert cache.total_bytes == 400
        assert cache.stats()["bytes"] == 400
        # Like a put, re-measuring makes the entry the most recent.
        assert cache.keys() == ["b", "a"]

    def test_resize_ignores_a_different_value(self, clock):
        cache = make(clock)
        cache.put("k", "new", 100)
        assert not cache.resize("k", "old", 900)
        assert cache.get("k") == "new"
        assert cache.total_bytes == 100

    def test_resize_ignores_an_absent_key(self, clock):
        cache = make(clock)
        cache.put("other", "x", 100)
        assert not cache.resize("k", "v", 50)
        assert "k" not in cache
        assert cache.total_bytes == 100
        assert len(cache) == 1

    def test_resize_past_the_budget_drops_the_entry_as_rejected(
            self, clock):
        cache = make(clock, max_bytes=300)
        cache.put("k", "v", 100)
        cache.put("other", "x", 100)
        assert not cache.resize("k", "v", 301)
        assert "k" not in cache
        assert cache.get("other") == "x"
        assert cache.total_bytes == 100
        assert cache.rejected == 1
        assert (cache.evicted_scope, cache.evicted_lru) == (0, 0)

    def test_resize_trims_least_recent_entries(self, clock):
        cache = make(clock, max_bytes=300)
        cache.put("a", 1, 100)
        cache.put("b", 2, 100)
        cache.put("c", 3, 100)
        assert cache.resize("c", 3, 200)
        assert cache.keys() == ["b", "c"]
        assert cache.total_bytes == 300
        assert cache.evicted_lru == 1


class TestScopes:
    def test_evict_scope_drops_only_prefix(self, clock):
        cache = make(clock)
        cache.put("t1/s1/net", 1, 10)
        cache.put("t1/s1/enc/a", 2, 10)
        cache.put("t1/s2/net", 3, 10)
        cache.put("t2/s1/net", 4, 10)
        assert cache.evict_scope("t1/s1/") == 2
        assert cache.get("t1/s1/net") is None
        assert cache.get("t1/s2/net") == 3
        assert cache.get("t2/s1/net") == 4
        assert cache.evicted_scope == 2

    def test_stats_shape(self, clock):
        cache = make(clock)
        cache.put("k", "v", 10)
        cache.get("k")
        cache.get("nope")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 10
        assert stats["hits"] == 1
        assert stats["misses"] == 1
