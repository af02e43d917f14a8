"""Snapshot registry: identity, tenancy, caching, persistence."""

import os

import pytest

from repro.core import BatchEngine, BatchQuery, Verifier, properties as P
from repro.lang import write_config
from repro.net import NetworkBuilder
from repro.serve import SnapshotRegistry, TTLLRUCache
from repro.serve.schemas import ApiError


def build_texts(host_prefix="10.9.0.1/24"):
    builder = NetworkBuilder()
    for name in ("R1", "R2", "R3"):
        dev = builder.device(name)
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
    builder.link("R1", "R2")
    builder.link("R2", "R3")
    builder.link("R1", "R3")
    builder.device("R3").interface("host", host_prefix)
    network = builder.build()
    return {f"{name}.cfg": write_config(network.device(name))
            for name in network.router_names()}


@pytest.fixture()
def texts():
    return build_texts()


@pytest.fixture()
def registry():
    return SnapshotRegistry(cache=TTLLRUCache())


def reach(sources="all", label=None, max_failures=None):
    return BatchQuery(
        prop=P.Reachability(sources=sources,
                            dest_prefix_text="10.9.0.0/24"),
        max_failures=max_failures, label=label)


class TestIngest:
    def test_snapshot_id_is_content_derived(self, registry, texts):
        a = registry.ingest("t1", texts, name="a")
        b = registry.ingest("t1", dict(texts), name="b")
        assert a.snapshot_id == b.snapshot_id
        assert len(a.snapshot_id) == 12

    def test_different_content_different_id(self, registry, texts):
        a = registry.ingest("t1", texts, name="a")
        b = registry.ingest("t1", build_texts("10.8.0.1/24"), name="b")
        assert a.snapshot_id != b.snapshot_id

    def test_name_defaults_to_snapshot_id(self, registry, texts):
        snap = registry.ingest("t1", texts)
        assert snap.name == snap.snapshot_id

    def test_duplicate_name_conflicts(self, registry, texts):
        registry.ingest("t1", texts, name="prod")
        with pytest.raises(ApiError) as err:
            registry.ingest("t1", texts, name="prod")
        assert err.value.status == 409

    def test_unparsable_config_is_client_error(self, registry):
        with pytest.raises(ApiError) as err:
            registry.ingest("t1", {"r.cfg": "hostname R1\n  ???"})
        assert err.value.status == 400

    def test_unsafe_filenames_rejected(self, registry, texts):
        for bad in ("../evil.cfg", "a/b.cfg", ".hidden"):
            with pytest.raises(ApiError) as err:
                registry.ingest("t1", {bad: "hostname X"})
            assert err.value.status == 400

    def test_bad_tenant_rejected(self, registry, texts):
        with pytest.raises(ApiError):
            registry.ingest("no/slash", texts)


class TestTenancy:
    def test_same_name_isolated_per_tenant(self, registry, texts):
        registry.ingest("t1", texts, name="prod")
        registry.ingest("t2", build_texts("10.8.0.1/24"), name="prod")
        a = registry.resolve("t1", "prod")
        b = registry.resolve("t2", "prod")
        assert a.snapshot_id != b.snapshot_id
        assert [s.name for s in registry.list("t1")] == ["prod"]

    def test_resolve_never_crosses_tenants(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        with pytest.raises(ApiError) as err:
            registry.resolve("t2", snap.snapshot_id)
        assert err.value.status == 404

    def test_cache_keys_carry_tenant_scope(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        registry.verify(snap, [reach()])
        assert all(key.startswith("t1/") for key in registry.cache.keys())

    def test_delete_drops_derived_state(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        registry.verify(snap, [reach()])
        registry.delete(snap)
        assert not any(key.startswith(snap.scope)
                       for key in registry.cache.keys())
        with pytest.raises(ApiError):
            registry.resolve("t1", "prod")


class TestVerify:
    def test_warm_matches_fresh_solver(self, registry, texts):
        """The tentpole contract: warm-path verdicts are bit-identical
        to a fresh Verifier solve that never saw any cache."""
        snap = registry.ingest("t1", texts, name="prod")
        # k=1: at k=0 the network fixes these verdicts without any
        # encoding, so there would be no encoding to warm.
        cold = [reach(label="q1", max_failures=1),
                reach(sources=["R1"], label="q2", max_failures=1)]
        registry.verify(snap, cold)
        # Verdict keys are semantic (labels don't count), so the warm
        # batch needs *different* sources for the same prefix: it must
        # reuse the group encoding, not replay verdicts.
        warm = [reach(sources=["R3"], label="q3", max_failures=1),
                reach(sources=["R2"], label="q4", max_failures=1)]
        results, stats = registry.verify(snap, warm)
        assert stats["hits"] >= 1
        assert stats["verdicts_replayed"] == 0
        assert all(r.encode_shared_seconds == 0.0 for r in results)

        from repro.net.loader import network_from_texts
        fresh = Verifier(network_from_texts(texts),
                         options=registry.options,
                         preflight=False).verify_batch(warm)
        assert [r.holds for r in results] == [r.holds for r in fresh]

    def test_identical_queries_replay_verdicts(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        first, _ = registry.verify(snap, [reach(label="q")])
        second, stats = registry.verify(snap, [reach(label="q")])
        assert not first[0].cached
        assert second[0].cached
        assert second[0].holds == first[0].holds
        assert stats["verdicts_replayed"] == 1

    def test_query_counters_accumulate(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        registry.verify(snap, [reach(label="q")])
        registry.verify(snap, [reach(label="q")])
        assert snap.queries_run == 2
        assert snap.replayed == 1


class TestRefresh:
    def test_refresh_is_differential(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        queries = [reach(label="q1"),
                   BatchQuery(prop=P.Reachability(
                       sources="all", dest_prefix_text="10.8.0.0/24"),
                       label="q2")]
        registry.verify(snap, queries)
        # Move R3's host interface: only R3's canonical form changes.
        snap, changes = registry.refresh(
            snap, build_texts("10.9.0.2/24"))
        assert changes["changed_devices"] == ["R3"]
        results, stats = registry.verify(snap, queries)
        assert all(r.holds is not None for r in results)

    def test_refresh_during_verify_never_poisons_new_scope(
            self, registry, texts, monkeypatch):
        """A refresh landing mid-verify must not let encodings built
        from the pre-refresh network be cached under the post-refresh
        scope (they would serve stale verdicts to warm requests)."""
        snap = registry.ingest("t1", texts, name="prod")
        old_scope = snap.scope
        new_texts = build_texts("10.8.0.1/24")
        real_init = BatchEngine.__init__
        raced = []

        def racing_init(self, network, **kwargs):
            # Interleave a refresh between verify()'s network fetch
            # and its use of the snapshot's scope.
            if not raced:
                raced.append(True)
                registry.refresh(snap, new_texts)
            real_init(self, network, **kwargs)

        monkeypatch.setattr(BatchEngine, "__init__", racing_init)
        results, _ = registry.verify(snap, [reach()])
        assert results[0].holds is not None
        assert snap.scope != old_scope
        assert not any(key.startswith(snap.scope + "enc/")
                       for key in registry.cache.keys())

    def test_refresh_rescopes_cache(self, registry, texts):
        snap = registry.ingest("t1", texts, name="prod")
        # k=1, so the network fixes no verdict and an encoding is built.
        registry.verify(snap, [reach(max_failures=1)])
        old_scope = snap.scope
        new_texts = build_texts("10.8.0.1/24")
        snap, _ = registry.refresh(snap, new_texts)
        assert snap.scope != old_scope
        # Back to revision A: its encoding was kept.  A query the
        # verdict cache has not seen must be solved on it, not rebuilt.
        snap, _ = registry.refresh(snap, texts)
        assert snap.scope == old_scope
        results, stats = registry.verify(
            snap, [reach(sources=["R1"], max_failures=1)])
        assert stats["verdicts_replayed"] == 0
        assert stats["hits"] >= 1 and stats["misses"] == 0
        assert results[0].holds is True
        registry.delete(snap)
        assert not any(key.startswith(old_scope)
                       for key in registry.cache.keys())


class TestPersistence:
    def test_snapshots_survive_restart(self, tmp_path, texts):
        state = str(tmp_path / "serve-state")
        first = SnapshotRegistry(cache=TTLLRUCache(), state_dir=state)
        snap = first.ingest("t1", texts, name="prod")
        first.verify(snap, [reach(label="q")])

        second = SnapshotRegistry(cache=TTLLRUCache(), state_dir=state)
        restored = second.resolve("t1", "prod")
        assert restored.snapshot_id == snap.snapshot_id
        assert restored.texts == texts
        # Verdict cache was persisted: the same query replays.
        results, stats = second.verify(restored, [reach(label="q")])
        assert results[0].cached
        assert stats["verdicts_replayed"] == 1

    def test_delete_removes_persisted_state(self, tmp_path, texts):
        state = tmp_path / "serve-state"
        registry = SnapshotRegistry(cache=TTLLRUCache(),
                                    state_dir=str(state))
        snap = registry.ingest("t1", texts, name="prod")
        assert (state / "tenants" / "t1" / "prod" / "meta.json").exists()
        registry.delete(snap)
        assert not (state / "tenants" / "t1" / "prod").exists()
        fresh = SnapshotRegistry(cache=TTLLRUCache(),
                                 state_dir=str(state))
        with pytest.raises(ApiError):
            fresh.resolve("t1", "prod")

    def test_crash_before_rename_keeps_previous_state(
            self, tmp_path, texts, monkeypatch):
        # A crash between writing the temp file and os.replace must
        # leave the previous meta.json and verdicts.json in place.
        state = tmp_path / "serve-state"
        first = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        snap = first.ingest("t1", texts, name="prod")
        first.verify(snap, [reach(label="q")])
        base = state / "tenants" / "t1" / "prod"
        before = {name: (base / name).read_text()
                  for name in ("meta.json", "verdicts.json")}

        def crash(src, dst):
            raise OSError("crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        # A replayed query only rewrites meta.json; a new one first
        # rewrites verdicts.json.
        with pytest.raises(OSError):
            first.verify(snap, [reach(label="q")])
        with pytest.raises(OSError):
            first.verify(snap, [reach(sources=["R1"], label="r1")])
        monkeypatch.undo()

        assert {name: (base / name).read_text()
                for name in before} == before
        assert not list(state.rglob("*.tmp"))
        second = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        restored = second.resolve("t1", "prod")
        assert restored.snapshot_id == snap.snapshot_id
        results, _ = second.verify(restored, [reach(label="q")])
        assert results[0].cached

    @staticmethod
    def skipped(caplog):
        return [r.reason for r in caplog.records
                if getattr(r, "event", "") == "serve.snapshot.restore_skipped"]

    def test_configs_rewritten_after_meta_are_not_trusted(
            self, tmp_path, texts, caplog):
        # A crash inside _persist after the configs were written but
        # before meta.json was replaced: meta.json still names the old
        # revision, the configs are the new one.
        state = tmp_path / "serve-state"
        first = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        first.ingest("t1", texts, name="prod")
        first.ingest("t1", texts, name="other")
        configs = state / "tenants" / "t1" / "prod" / "configs"
        for name, text in build_texts("10.8.0.1/24").items():
            (configs / name).write_text(text)

        with caplog.at_level("INFO", logger="repro"):
            second = SnapshotRegistry(cache=TTLLRUCache(),
                                      state_dir=str(state))
        with pytest.raises(ApiError):
            second.resolve("t1", "prod")
        assert second.resolve("t1", "other").texts == texts
        assert self.skipped(caplog) == [
            "configs do not hash to meta.json's config_hash"]

    def test_torn_config_is_skipped(self, tmp_path, texts, caplog):
        state = tmp_path / "serve-state"
        SnapshotRegistry(cache=TTLLRUCache(),
                         state_dir=str(state)).ingest("t1", texts,
                                                      name="prod")
        config = state / "tenants" / "t1" / "prod" / "configs" / "R3.cfg"
        config.write_text(config.read_text()[:-40])

        with caplog.at_level("INFO", logger="repro"):
            second = SnapshotRegistry(cache=TTLLRUCache(),
                                      state_dir=str(state))
        assert len(second) == 0
        assert len(self.skipped(caplog)) == 1

    def test_truncated_meta_keeps_other_snapshots(self, tmp_path, texts,
                                                  caplog):
        state = tmp_path / "serve-state"
        first = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        first.ingest("t1", texts, name="prod")
        kept = first.ingest("t2", texts, name="prod")
        meta = state / "tenants" / "t1" / "prod" / "meta.json"
        meta.write_text(meta.read_text()[:20])

        with caplog.at_level("INFO", logger="repro"):
            second = SnapshotRegistry(cache=TTLLRUCache(),
                                      state_dir=str(state))
        with pytest.raises(ApiError):
            second.resolve("t1", "prod")
        assert second.resolve("t2", "prod").snapshot_id == kept.snapshot_id
        assert self.skipped(caplog) == ["meta.json unreadable"]

    def test_truncated_verdicts_restore_cold(self, tmp_path, texts):
        state = tmp_path / "serve-state"
        first = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        snap = first.ingest("t1", texts, name="prod")
        first.verify(snap, [reach(label="q")])
        verdicts = state / "tenants" / "t1" / "prod" / "verdicts.json"
        verdicts.write_text(verdicts.read_text()[:15])

        second = SnapshotRegistry(cache=TTLLRUCache(), state_dir=str(state))
        restored = second.resolve("t1", "prod")
        assert restored.snapshot_id == snap.snapshot_id
        results, stats = second.verify(restored, [reach(label="q")])
        assert results[0].holds is True
        assert not results[0].cached
        assert stats["verdicts_replayed"] == 0
