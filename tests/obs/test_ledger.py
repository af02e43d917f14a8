"""Run ledger: append/read round-trip, refs, schema, comparison."""

import sqlite3

import pytest

from repro.obs import ledger as ledgerlib
from repro.obs.ledger import (
    LedgerError,
    RunLedger,
    RunRecord,
    build_record,
    compare_runs,
)


def _record(run_id, *, clauses=100, holds=True, seconds=0.5,
            config_hash="abc", options="{}", command="verify"):
    return RunRecord(
        run_id=run_id, command=command,
        argv=["verify", "cfg"], started=100.0, finished=100.0 + seconds,
        config_hash=config_hash, options=options,
        workload={"routers": 3},
        queries=[{"idx": 0, "name": "Reachability", "holds": holds,
                  "cached": False, "seconds": seconds,
                  "encode_seconds": seconds / 2,
                  "solve_seconds": seconds / 2,
                  "vars": 40, "clauses": clauses, "conflicts": 7,
                  "message": ""}],
        phases={"verify": {"count": 1, "total_seconds": seconds}},
        metrics={"sat.conflicts": {"kind": "counter",
                                   "name": "sat.conflicts",
                                   "labels": {}, "value": 7}},
        extra={"note": "test"})


class TestRoundTrip:
    def test_append_and_get_preserve_everything(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa11112222"))
            assert len(ledger) == 1
            back = ledger.get("aaaa11112222")
        assert back.command == "verify"
        assert back.argv == ["verify", "cfg"]
        assert back.config_hash == "abc"
        assert back.workload == {"routers": 3}
        assert back.queries[0]["name"] == "Reachability"
        assert back.queries[0]["holds"] is True
        assert back.queries[0]["clauses"] == 100
        assert back.phases["verify"]["count"] == 1
        assert back.metrics["sat.conflicts"]["value"] == 7
        assert back.extra == {"note": "test"}
        assert back.seconds == pytest.approx(0.5)

    def test_none_verdict_survives(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("bbbb", holds=None))
            assert ledger.get("bbbb").queries[0]["holds"] is None

    def test_duplicate_run_id_rejected(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("cccc"))
            with pytest.raises(sqlite3.IntegrityError):
                ledger.append(_record("cccc"))
            # The failed transaction must not leave partial rows.
            assert len(ledger) == 1

    def test_unwritten_ledger_creates_no_file(self, tmp_path):
        path = tmp_path / "never.sqlite"
        ledger = RunLedger(str(path))
        assert ledger.runs() == []
        assert len(ledger) == 0
        assert not path.exists()


class TestRefs:
    def test_prefix_and_index_refs(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa11112222"))
            ledger.append(_record("bbbb33334444"))
            assert ledger.get("aaaa").run_id == "aaaa11112222"
            assert ledger.get("-1").run_id == "bbbb33334444"
            assert ledger.get("-2").run_id == "aaaa11112222"

    def test_ambiguous_prefix_raises(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa11112222"))
            ledger.append(_record("aaaa99990000"))
            with pytest.raises(LedgerError, match="ambiguous"):
                ledger.get("aaaa")

    def test_unknown_ref_raises(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa"))
            with pytest.raises(LedgerError, match="no run"):
                ledger.get("zzzz")
            with pytest.raises(LedgerError, match="no run"):
                ledger.get("-5")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="no ledger"):
            RunLedger(str(tmp_path / "missing.sqlite")).get("-1")


class TestListing:
    def test_runs_newest_first_with_filters(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("run1"))
            ledger.append(_record("run2", command="diff"))
            ledger.append(_record("run3"))
            runs = ledger.runs()
            assert [r["run_id"] for r in runs] == ["run3", "run2", "run1"]
            assert runs[0]["queries"] == 1
            assert runs[0]["holding"] == 1
            only = ledger.runs(command="diff")
            assert [r["run_id"] for r in only] == ["run2"]
            assert [r["run_id"] for r in ledger.runs(limit=1)] == ["run3"]


class TestSchema:
    def test_newer_schema_refused(self, tmp_path):
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa"))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = ? WHERE key = ?",
                         (str(ledgerlib.SCHEMA_VERSION + 1),
                          "schema_version"))
        conn.close()
        with pytest.raises(LedgerError, match="schema"):
            RunLedger(path).get("aaaa")

    def test_method_column_added_to_an_older_ledger(self, tmp_path):
        """A ledger written before ``queries.method`` existed gains the
        column on open; its rows read back as decided by the SAT
        search, and new rows keep their own method."""
        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            ledger.append(_record("aaaa"))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("ALTER TABLE queries DROP COLUMN method")
        conn.close()
        record = _record("bbbb")
        record.queries[0]["method"] = "simulation"
        with RunLedger(path) as ledger:
            assert ledger.get("aaaa").queries[0]["method"] == "sat"
            ledger.append(record)
            assert ledger.get("bbbb").queries[0]["method"] == "simulation"

    def test_garbage_file_refused(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_text("this is not a sqlite database, not even close")
        with pytest.raises(LedgerError):
            with RunLedger(str(path)) as ledger:
                ledger.append(_record("aaaa"))


class TestBuildRecord:
    def test_from_network_results_and_tracer(self):
        from repro import obs
        from repro.core import Verifier, properties as P
        from repro.net import NetworkBuilder

        builder = NetworkBuilder()
        for name in ("A", "B"):
            dev = builder.device(name)
            dev.enable_ospf()
            dev.ospf_network("10.0.0.0/8")
        builder.link("A", "B")
        builder.device("B").interface("host", "10.9.0.1/24")
        network = builder.build()
        tracer = obs.Tracer()
        with obs.use(tracer):
            verifier = Verifier(network)
            # k=1 from B: a query the network does not decide without
            # an encoding, so the record carries CNF counts.
            result = verifier.verify(
                P.Reachability(sources=["B"],
                               dest_prefix_text="10.9.0.0/24"),
                max_failures=1)
        record = build_record("verify", ["verify", "x"], network=network,
                              options=verifier.options, results=[result],
                              tracer=tracer)
        assert record.config_hash == ledgerlib.network_hash(network)
        assert record.workload["routers"] == 2
        assert record.queries[0]["holds"] is True
        assert record.queries[0]["clauses"] > 0
        assert "verify" in record.phases
        assert record.phases["verify"]["count"] == 1
        assert record.options  # fingerprint string present
        assert record.metrics  # snapshot captured
        assert record.verdict_summary() == "1/1 hold"

    def test_network_hash_ignores_formatting_noise(self):
        from repro.net import NetworkBuilder, load_network
        from repro.lang import write_config
        import tempfile, pathlib

        builder = NetworkBuilder()
        dev = builder.device("R1")
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
        network = builder.build()
        with tempfile.TemporaryDirectory() as tmp:
            p = pathlib.Path(tmp) / "R1.cfg"
            text = write_config(network.device("R1"))
            p.write_text(text)
            h1 = ledgerlib.network_hash(load_network(tmp))
            p.write_text("! a comment line\n" + text + "\n\n")
            h2 = ledgerlib.network_hash(load_network(tmp))
        assert h1 == h2

    def test_texts_hash_orders_independently(self):
        a = ledgerlib.texts_hash({"x": "1", "y": "2"})
        b = ledgerlib.texts_hash({"y": "2", "x": "1"})
        c = ledgerlib.texts_hash({"x": "1", "y": "CHANGED"})
        assert a == b
        assert a != c


class TestCompareRuns:
    def test_identical_runs_are_clean(self):
        report = compare_runs(_record("old"), _record("new"))
        assert report["regressions"] == []
        assert report["warnings"] == []
        assert not report["config_changed"]
        assert not report["options_changed"]

    def test_verdict_flip_always_regresses(self):
        report = compare_runs(_record("old", holds=True),
                              _record("new", holds=False))
        assert any("verdict" in r for r in report["regressions"])

    def test_count_growth_beyond_threshold_regresses(self):
        report = compare_runs(_record("old", clauses=100),
                              _record("new", clauses=150),
                              threshold=0.10)
        assert any("clauses 100 -> 150" in r
                   for r in report["regressions"])

    def test_count_growth_within_threshold_passes(self):
        report = compare_runs(_record("old", clauses=100),
                              _record("new", clauses=105),
                              threshold=0.10)
        assert report["regressions"] == []

    def test_timing_drift_warns_unless_gated(self):
        slow = _record("new", seconds=2.0)
        report = compare_runs(_record("old", seconds=0.5), slow)
        assert report["regressions"] == []
        assert any("seconds" in w or "phase" in w
                   for w in report["warnings"])
        gated = compare_runs(_record("old", seconds=0.5), slow,
                             gate_timings=True)
        assert gated["regressions"]

    def test_sub_noise_floor_timing_drift_ignored(self):
        # 0.5ms -> 2ms is +300% but under the absolute noise floor.
        report = compare_runs(_record("old", seconds=0.0005),
                              _record("new", seconds=0.002))
        assert report["warnings"] == []
        assert report["regressions"] == []

    def test_config_and_option_changes_flagged(self):
        report = compare_runs(
            _record("old"),
            _record("new", config_hash="zzz", options='{"k":1}'))
        assert report["config_changed"]
        assert report["options_changed"]

    def test_missing_and_added_queries_listed(self):
        old = _record("old")
        new = _record("new")
        new.queries[0] = dict(new.queries[0], name="Other")
        report = compare_runs(old, new)
        assert report["missing"] == ["Reachability"]
        assert report["added"] == ["Other"]
