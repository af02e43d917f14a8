"""Differential verification: cache, differ, report, CLI.

The load-bearing test is ``test_diff_matches_full_verification``: on a
pods-2 fat-tree with a single rack renumber, the diff must (a) produce
verdicts bit-identical to fresh full verification of both trees,
(b) re-solve only the queries whose dependency slice the edit touched,
and (c) surface the reachability flip with a counterexample.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core import BatchQuery, properties as P
from repro.core.engine import BatchEngine
from repro.core.verifier import Verifier
from repro.diff import (
    VerdictCache,
    diff_networks,
    diff_trees,
    render_text,
    to_json,
)
from repro.gen import build_fattree
from repro.lang.writer import write_config
from repro.net import load_network


def _write_tree(network, directory, edit=False):
    directory.mkdir(parents=True, exist_ok=True)
    for name, dev in network.devices.items():
        text = write_config(dev)
        if edit and name == "tor_0_0":
            # Renumber tor_0_0's rack: interface address and the BGP
            # announcement both move from 10.0.0.0/24 to 10.250.0.0/24.
            text = text.replace("10.0.0.", "10.250.0.")
        (directory / f"{name}.cfg").write_text(text)


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    tree = build_fattree(2)
    base = tmp_path_factory.mktemp("trees")
    _write_tree(tree.network, base / "old")
    _write_tree(tree.network, base / "new", edit=True)
    return tree, base / "old", base / "new"


def _queries(tree):
    queries = []
    for tor in tree.tors:
        subnet = tree.tor_subnet(tor)
        queries.append(BatchQuery(
            prop=P.Reachability(sources="all", dest_prefix_text=subnet),
            label=f"reach-{tor}"))
        queries.append(BatchQuery(
            prop=P.NoForwardingLoops(dest_prefix_text=subnet),
            label=f"loops-{tor}"))
    return queries


# ----------------------------------------------------------------------
# VerdictCache
# ----------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    path = tmp_path / "sub" / "cache.json"
    cache = VerdictCache(str(path))
    cache.put("k1", {"holds": True, "message": "ok"})
    cache.put("k2", {"holds": False, "message": "broken"})
    assert cache.dirty
    cache.save()
    assert not cache.dirty
    loaded = VerdictCache.load(str(path))
    assert len(loaded) == 2
    assert loaded.get("k1") == {"holds": True, "message": "ok"}
    assert loaded.get("k2")["holds"] is False


def test_cache_never_stores_unknown_verdicts(tmp_path):
    cache = VerdictCache()
    cache.put("k", {"holds": None, "message": "budget exhausted"})
    assert "k" not in cache and not cache.dirty


def test_cache_missing_or_corrupt_file_is_cold(tmp_path):
    assert len(VerdictCache.load(str(tmp_path / "absent.json"))) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert len(VerdictCache.load(str(bad))) == 0
    # Wrong version or malformed records degrade to a cold cache too.
    bad.write_text(json.dumps({"version": 999, "verdicts": {"k": {}}}))
    assert len(VerdictCache.load(str(bad))) == 0
    bad.write_text(json.dumps({
        "version": 1,
        "verdicts": {"ok": {"holds": True, "message": ""},
                     "bad": {"holds": "yes"}}}))
    loaded = VerdictCache.load(str(bad))
    assert "ok" in loaded and "bad" not in loaded


def test_cache_crash_before_rename_keeps_previous_file(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "cache.json"
    cache = VerdictCache(str(path))
    cache.put("k1", {"holds": True, "message": "ok"})
    cache.save()
    before = path.read_text()
    cache.put("k2", {"holds": False, "message": "broken"})

    def crash(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        cache.save()
    monkeypatch.undo()

    assert path.read_text() == before
    loaded = VerdictCache.load(str(path))
    assert len(loaded) == 1 and "k1" in loaded
    assert not list(tmp_path.glob("*.tmp"))
    # The unsaved verdict is still pending for the next save.
    assert cache.dirty
    cache.save()
    assert len(VerdictCache.load(str(path))) == 2


def test_cache_save_requires_a_path():
    with pytest.raises(ValueError):
        VerdictCache().save()


def test_cache_concurrent_puts_and_saves(tmp_path):
    """One cache is shared by the serve daemon's request threads:
    put() mutating while save() dumps must not corrupt or crash."""
    import threading

    path = tmp_path / "cache.json"
    cache = VerdictCache(str(path))
    errors = []

    def writer(worker):
        try:
            for i in range(400):
                cache.put(f"w{worker}-{i}", {"holds": True, "message": ""})
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def saver():
        try:
            for _ in range(40):
                cache.save()
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
    threads += [threading.Thread(target=saver) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    cache.save()
    loaded = VerdictCache.load(str(path))
    assert len(loaded) == 3 * 400


# ----------------------------------------------------------------------
# Differ soundness on a pods-2 fat-tree
# ----------------------------------------------------------------------

def test_diff_matches_full_verification(trees):
    tree, old_dir, new_dir = trees
    queries = _queries(tree)
    cache = VerdictCache()
    report = diff_trees(str(old_dir), str(new_dir), queries, cache=cache)

    # (a) verdicts identical to a fresh full verification of each tree
    old_fresh = Verifier(load_network(str(old_dir))).verify_batch(queries)
    new_fresh = Verifier(load_network(str(new_dir))).verify_batch(queries)
    for q, fo, fn in zip(report.queries, old_fresh, new_fresh):
        assert q.old.holds == fo.holds, q.name
        assert q.new.holds == fn.holds, q.name

    # (b) only tor_0_0's queries (the edited rack) are re-verified
    assert set(report.reverified()) == {"reach-tor_0_0", "loops-tor_0_0"}
    assert set(report.replayed()) == {"reach-tor_1_0", "loops-tor_1_0"}
    assert report.changed_devices == ["tor_0_0"]

    # (c) the flip is a new violation with a counterexample, exit 1
    (flip,) = report.new_violations
    assert flip.name == "reach-tor_0_0"
    assert flip.new.counterexample is not None
    assert not flip.new.cached
    assert report.exit_code == 1

    # rendering includes the flip marker and the replay accounting
    text = render_text(report)
    assert "!! reach-tor_0_0" in text
    assert "2 replayed" in text and "2 re-verified" in text
    payload = to_json(report)
    assert payload["schema_version"] == 1
    assert payload["new_violations"] == ["reach-tor_0_0"]
    assert payload["exit_code"] == 1


def test_diff_identical_trees_replays_everything(trees):
    tree, old_dir, _ = trees
    queries = _queries(tree)
    cache = VerdictCache()
    report = diff_trees(str(old_dir), str(old_dir), queries, cache=cache)
    assert report.exit_code == 0
    assert not report.flips
    assert not report.changed_devices
    # Same tree on both sides: every NEW verdict replays the OLD solve.
    assert set(report.replayed()) == {q.name() for q in queries}


def test_diff_warm_cache_replays_both_sides(trees):
    tree, old_dir, new_dir = trees
    queries = _queries(tree)
    cache = VerdictCache()
    diff_trees(str(old_dir), str(new_dir), queries, cache=cache)
    report = diff_trees(str(old_dir), str(new_dir), queries, cache=cache)
    assert not report.reverified()
    assert report.exit_code == 1          # verdicts unchanged, replayed


def test_diff_unreadable_tree_raises(trees, tmp_path):
    from repro.diff import DiffError

    _, old_dir, _ = trees
    with pytest.raises(DiffError):
        diff_trees(str(old_dir), str(tmp_path / "missing"), [
            BatchQuery(prop=P.NoForwardingLoops())])


def test_diff_networks_added_removed_devices(trees):
    tree, _, _ = trees
    small = build_fattree(2, with_backbone=False).network
    report = diff_networks(tree.network, small,
                           [BatchQuery(prop=P.NoForwardingLoops())])
    # Backbone-less rebuild changes the cores (peer sessions vanish).
    assert set(report.changed_devices) == set(tree.cores)


# ----------------------------------------------------------------------
# Engine-level cache replay
# ----------------------------------------------------------------------

def test_engine_replays_cached_verdicts_identically(trees):
    tree, _, _ = trees
    queries = _queries(tree)
    cache = VerdictCache()
    fresh = BatchEngine(tree.network, verdict_cache=cache).run(queries)
    assert all(not r.cached for r in fresh)
    replayed = BatchEngine(tree.network, verdict_cache=cache).run(queries)
    assert all(r.cached for r in replayed)
    for a, b in zip(fresh, replayed):
        assert (a.holds, a.message) == (b.holds, b.message)
        assert a.property_name == b.property_name


def test_engine_without_cache_unchanged(trees):
    tree, _, _ = trees
    queries = _queries(tree)
    results = BatchEngine(tree.network).run(queries)
    assert all(not r.cached for r in results)
    assert all(r.holds is True for r in results)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_diff_text_and_cache_file(trees, tmp_path, capsys):
    _, old_dir, new_dir = trees
    cache_path = tmp_path / "verdicts.json"
    code = main(["diff", str(old_dir), str(new_dir),
                 "--property", "reachability",
                 "--dest-prefix", "10.1.0.0/24",
                 "--cache", str(cache_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 replayed" in out
    assert cache_path.exists()
    # Second run replays from the saved cache file.
    code = main(["diff", str(old_dir), str(new_dir),
                 "--property", "reachability",
                 "--dest-prefix", "10.1.0.0/24",
                 "--cache", str(cache_path)])
    out = capsys.readouterr().out
    assert code == 0 and "0 re-verified" in out


def test_cli_diff_json_flip_exit_code(trees, capsys):
    _, old_dir, new_dir = trees
    code = main(["diff", str(old_dir), str(new_dir),
                 "--property", "reachability",
                 "--dest-prefix", "10.0.0.0/24", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["exit_code"] == 1
    assert payload["new_violations"] == ["Reachability"]
    assert "counterexample" in payload["queries"][0]


def test_cli_diff_bad_tree_exits_2(trees, tmp_path, capsys):
    _, old_dir, _ = trees
    code = main(["diff", str(old_dir), str(tmp_path / "nope"),
                 "--property", "loops"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_diff_needs_queries(trees):
    _, old_dir, new_dir = trees
    with pytest.raises(SystemExit):
        main(["diff", str(old_dir), str(new_dir)])


def test_cli_diff_cone_stats(trees, capsys):
    _, old_dir, new_dir = trees
    code = main(["diff", str(old_dir), str(new_dir),
                 "--property", "reachability",
                 "--dest-prefix", "10.1.0.0/24", "--cone-stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dependency cones (NEW tree):" in out
    assert "fragments on" in out
    # JSON mode carries the per-query stats (and omits the key without
    # the flag: checked by the schema assertions in the tests above).
    code = main(["diff", str(old_dir), str(new_dir),
                 "--property", "reachability",
                 "--dest-prefix", "10.1.0.0/24",
                 "--cone-stats", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    (stat,) = payload["cone_stats"]
    assert stat["name"] == "Reachability"
    assert stat["cacheable"] and stat["bounded"]
    assert 0 < stat["devices"] <= 10
    assert stat["fragments"] > 0
