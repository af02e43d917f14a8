"""CLI tests, driving the real config-file path end to end."""

import pytest

from repro.cli import main
from repro.lang import write_config
from repro.net import NetworkBuilder


@pytest.fixture()
def config_dir(tmp_path):
    builder = NetworkBuilder()
    for name in ("R1", "R2", "R3"):
        dev = builder.device(name)
        dev.enable_ospf()
        dev.ospf_network("10.0.0.0/8")
    builder.link("R1", "R2")
    builder.link("R2", "R3")
    builder.link("R1", "R3")
    builder.device("R3").interface("host", "10.9.0.1/24")
    builder.device("R2").static_route("172.16.0.0/16", drop=True)
    # Advertise the discard route so neighbors actually send traffic into
    # the black hole (exercises the blackholes CLI check).
    builder.device("R2").redistribute("ospf", "static", metric=30)
    network = builder.build()
    for name in network.router_names():
        (tmp_path / f"{name}.cfg").write_text(
            write_config(network.device(name)))
    return str(tmp_path)


class TestShow:
    def test_show_summarizes(self, config_dir, capsys):
        assert main(["show", config_dir]) == 0
        out = capsys.readouterr().out
        assert "3 routers" in out
        assert "R1" in out and "ospf" in out


class TestVerify:
    def test_reachability_holds(self, config_dir, capsys):
        code = main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24"])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_no_preprocess_flag_same_verdicts(self, config_dir, capsys):
        for extra in ([], ["--no-preprocess"]):
            code = main(["verify", config_dir, "reachability",
                         "--dest-prefix", "10.9.0.0/24"] + extra)
            assert code == 0
            assert "HOLDS" in capsys.readouterr().out
        code = main(["verify-batch", config_dir,
                     "--property", "reachability",
                     "--property", "loops",
                     "--dest-prefix", "10.9.0.0/24",
                     "--no-preprocess"])
        assert code == 0
        assert "2/2 hold" in capsys.readouterr().out

    def test_reachability_violated_exit_code(self, config_dir, capsys):
        code = main(["verify", config_dir, "reachability",
                     "--sources", "R1",
                     "--dest-prefix", "172.20.0.0/16"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "dstIp" in out  # counterexample printed

    def test_fault_tolerance_flag(self, config_dir):
        assert main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--max-failures", "1"]) == 0
        assert main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--max-failures", "2"]) == 1

    def test_loops_and_blackholes(self, config_dir):
        assert main(["verify", config_dir, "loops",
                     "--dest-prefix", "10.9.0.0/24"]) == 0
        # The Null0 static on R2 is a black hole for covered traffic.
        assert main(["verify", config_dir, "blackholes",
                     "--dest-prefix", "172.16.0.0/16"]) == 1

    def test_bounded_length(self, config_dir):
        assert main(["verify", config_dir, "bounded-length",
                     "--sources", "R1", "--bound", "2",
                     "--dest-prefix", "10.9.0.0/24"]) == 0

    def test_waypoint_argument_validation(self, config_dir):
        with pytest.raises(SystemExit):
            main(["verify", config_dir, "waypoint",
                  "--dest-prefix", "10.9.0.0/24"])


#: Every property flag, set away from its default.
PROPERTY_FLAGS = ["--sources", "R1", "R2", "--dest-prefix", "10.9.0.0/24",
                  "--dest-peer", "EXT", "--bound", "3", "--waypoints", "R2",
                  "--max-leak-length", "20", "--max-failures", "1",
                  "--announced-by", "EXT", "--no-preprocess"]


@pytest.mark.parametrize("flags", [[], PROPERTY_FLAGS],
                         ids=["defaults", "all-set"])
def test_verify_and_verify_batch_share_property_flags(flags):
    from repro.cli import _build_parser

    parser = _build_parser()
    single = vars(parser.parse_args(
        ["verify", "cfg", "reachability", *flags]))
    batch = vars(parser.parse_args(
        ["verify-batch", "cfg", "--property", "reachability", *flags]))
    shared = {"sources", "dest_prefix", "dest_peer", "bound", "waypoints",
              "max_leak_length", "max_failures", "announced_by",
              "no_preprocess"}
    assert shared <= set(single) & set(batch)
    assert ({key: single[key] for key in shared}
            == {key: batch[key] for key in shared})


class TestVerifyBatch:
    def test_flags_mode_all_hold(self, config_dir, capsys):
        code = main(["verify-batch", config_dir,
                     "--property", "reachability",
                     "--property", "blackholes",
                     "--property", "loops",
                     "--dest-prefix", "10.9.0.0/24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 hold" in out

    def test_spec_mode_mixed_verdicts(self, config_dir, tmp_path, capsys):
        import json
        spec = tmp_path / "queries.json"
        spec.write_text(json.dumps([
            {"property": "reachability", "dest_prefix": "10.9.0.0/24",
             "label": "rack"},
            {"property": "reachability", "sources": ["R1"],
             "dest_prefix": "172.20.0.0/16", "label": "unroutable"},
            {"property": "blackholes", "dest_prefix": "172.16.0.0/16"},
        ]))
        code = main(["verify-batch", config_dir,
                     "--spec", str(spec), "--stats"])
        assert code == 1
        out = capsys.readouterr().out
        assert "rack: HOLDS" in out
        assert "unroutable: VIOLATED" in out
        assert "dstIp" in out       # counterexample printed
        assert "clauses=" in out    # --stats output
        assert "1/3 hold" in out

    def test_workers_flag(self, config_dir, capsys):
        code = main(["verify-batch", config_dir,
                     "--property", "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--property", "loops",
                     "--workers", "2"])
        assert code == 0
        assert "2/2 hold" in capsys.readouterr().out

    def test_requires_some_query(self, config_dir):
        with pytest.raises(SystemExit):
            main(["verify-batch", config_dir])

    def test_rejects_unknown_property_in_spec(self, config_dir, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text('[{"property": "nonsense"}]')
        with pytest.raises(SystemExit):
            main(["verify-batch", config_dir, "--spec", str(spec)])

    @pytest.mark.parametrize("entries, message", [
        ('[{"property": "loops"}, {"property": "nonsense"}]',
         "query 1: unknown property 'nonsense' (choose from reachability, "
         "isolation, blackholes, loops, bounded-length, waypoint, "
         "prefix-leak)"),
        ("[1]", "query 0: expected an object, got int"),
        ('[{"property": "loops", "dest_prefix": "10.9.0.0/24"},'
         ' {"property": "loops", "max_failures": -1}]',
         "query 1: max_failures must be a non-negative integer"),
    ])
    def test_malformed_spec_entry_exits_with_message(
            self, config_dir, tmp_path, entries, message):
        spec = tmp_path / "bad.json"
        spec.write_text(entries)
        with pytest.raises(SystemExit) as exc:
            main(["verify-batch", config_dir, "--spec", str(spec)])
        assert str(exc.value) == message


@pytest.mark.parametrize("argv", [
    ["show"],
    ["analyze"],
    ["verify", "reachability", "--dest-prefix", "10.9.0.0/24"],
    ["verify-batch", "--property", "loops"],
    ["equivalence", "R1", "R2"],
    ["simulate", "--from", "R1", "--dst", "10.9.0.5"],
])
class TestConfigPathErrors:
    def _run(self, argv, configs):
        command, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(configs), *rest])
        return str(exc.value)

    def test_not_a_directory(self, argv, tmp_path):
        path = tmp_path / "R1.cfg"
        path.write_text("hostname R1\n")
        assert self._run(argv, path) == f"not a directory: {path}"

    def test_no_config_files(self, argv, tmp_path):
        (tmp_path / "notes.md").write_text("not a config\n")
        assert self._run(argv, tmp_path).startswith(
            f"no config files (.cfg/.conf/.txt) in {tmp_path}")


class TestEquivalence:
    def test_equivalence_of_symmetric_routers(self, config_dir):
        # R1 and R3 both have three interfaces but differ (host subnet),
        # so sorted pairing flags them; R1 vs R2 differ by the static.
        code = main(["equivalence", config_dir, "R1", "R2", "--by-name"])
        assert code in (0, 1)


class TestSimulate:
    def test_trace_output(self, config_dir, capsys):
        code = main(["simulate", config_dir,
                     "--from", "R1", "--dst", "10.9.0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_failed_link_reroutes(self, config_dir, capsys):
        code = main(["simulate", config_dir,
                     "--from", "R1", "--dst", "10.9.0.5",
                     "--fail", "R1", "R3"])
        assert code == 0
        assert "R1 -> R2 -> R3" in capsys.readouterr().out


class TestObservability:
    def test_verify_stats_line(self, config_dir, capsys):
        code = main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clauses=" in out
        assert "shared=" in out and "query=" in out
        assert "method=" in out

    def test_verify_trace_and_profile(self, config_dir, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        code = main(["verify", config_dir, "loops",
                     "--trace", str(trace), "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "verify.encode" in out
        assert trace.exists()
        import json
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_batch_trace_jsonl_and_stats_command(self, config_dir,
                                                 tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(["verify-batch", config_dir,
                     "--property", "loops", "--property", "blackholes",
                     "--dest-prefix", "10.9.0.0/24",
                     "--trace", str(trace), "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shared=" in out   # same stats line as single verify
        assert trace.exists()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "batch.query" in out
        assert "cnf.clauses{module=network}" in out

    def test_stats_command_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "missing.json")])

    def test_metrics_out_is_valid_exposition(self, config_dir, tmp_path,
                                             capsys):
        from repro.obs.promexport import parse_exposition

        out = tmp_path / "metrics.prom"
        code = main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--metrics-out", str(out)])
        assert code == 0
        samples = parse_exposition(out.read_text())
        assert samples["sat_conflicts_total"]
        assert any(name.startswith("cnf_clauses") for name in samples)
        # Histogram families round-trip with consistent +Inf buckets
        # (parse_exposition raises otherwise).
        assert any(name == "sat_solve_seconds" for name in samples)

    def test_log_json_records_carry_run_id(self, config_dir, tmp_path,
                                           capsys):
        import json as jsonlib

        log = tmp_path / "run.log.jsonl"
        code = main(["verify", config_dir, "loops",
                     "--log-json", str(log)])
        assert code == 0
        records = [jsonlib.loads(line)
                   for line in log.read_text().splitlines()]
        events = [r["event"] for r in records]
        assert "run.start" in events and "run.finish" in events
        assert len({r["run_id"] for r in records}) == 1

    def test_workers2_merged_trace_round_trips(self, config_dir,
                                               tmp_path, capsys):
        """Satellite: a workers=2 run merges worker lanes into one
        trace; serialize → read back must be lossless, and ``repro
        stats`` must digest the merged file."""
        from repro.obs.export import read_trace

        import json as jsonlib

        spec = tmp_path / "queries.json"
        spec.write_text(jsonlib.dumps([
            {"property": "reachability", "dest_prefix": "10.9.0.0/24"},
            {"property": "loops", "dest_prefix": "172.16.0.0/16"},
        ]))
        trace = tmp_path / "merged.jsonl"
        code = main(["verify-batch", config_dir, "--spec", str(spec),
                     "--workers", "2", "--trace", str(trace)])
        assert code == 0
        capsys.readouterr()
        data = read_trace(str(trace))
        lanes = {s["lane"] for s in data["spans"]}
        assert any(lane.startswith("group ") for lane in lanes)
        # Round-trip equality: re-serialize the loaded form and load it
        # again; spans and metrics must survive bit-identical.
        lines = [jsonlib.dumps({"type": "span", **s})
                 for s in data["spans"]]
        lines += [jsonlib.dumps({"type": "metric", "key": k, **entry})
                  for k, entry in data["metrics"].items()]
        copy = tmp_path / "copy.jsonl"
        copy.write_text("\n".join(lines) + "\n")
        again = read_trace(str(copy))
        assert again["spans"] == data["spans"]
        assert again["metrics"] == data["metrics"]
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "batch.group" in out


class TestLedger:
    def _ledger(self, tmp_path):
        return str(tmp_path / "ledger.sqlite")

    def _verify(self, config_dir, ledger, extra=()):
        return main(["verify", config_dir, "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--ledger", ledger] + list(extra))

    def test_verify_records_a_run(self, config_dir, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger = self._ledger(tmp_path)
        assert self._verify(config_dir, ledger) == 0
        with RunLedger(ledger) as db:
            assert len(db) == 1
            record = db.get("-1")
        assert record.command == "verify"
        assert record.config_hash
        assert record.options
        assert record.workload["routers"] == 3
        assert record.queries[0]["holds"] is True
        assert record.queries[0]["clauses"] > 0
        assert record.phases  # rollups from the implicit tracer
        assert "verify" in record.phases

    def test_no_ledger_opts_out(self, config_dir, tmp_path, capsys):
        import os

        ledger = self._ledger(tmp_path)
        assert self._verify(config_dir, ledger, ["--no-ledger"]) == 0
        assert not os.path.exists(ledger)

    def test_batch_records_all_queries(self, config_dir, tmp_path,
                                       capsys):
        from repro.obs.ledger import RunLedger

        ledger = self._ledger(tmp_path)
        code = main(["verify-batch", config_dir,
                     "--property", "reachability",
                     "--property", "loops",
                     "--dest-prefix", "10.9.0.0/24",
                     "--workers", "2", "--ledger", ledger])
        assert code == 0
        with RunLedger(ledger) as db:
            record = db.get("-1")
        assert record.command == "verify-batch"
        assert len(record.queries) == 2
        assert {q["holds"] for q in record.queries} == {True}
        # Worker spans merged at join show up in the phase rollups.
        assert "batch.group" in record.phases

    def test_diff_records_tree_hashes(self, config_dir, tmp_path,
                                      capsys):
        from repro.obs.ledger import RunLedger

        ledger = self._ledger(tmp_path)
        code = main(["diff", config_dir, config_dir,
                     "--property", "reachability",
                     "--dest-prefix", "10.9.0.0/24",
                     "--ledger", ledger])
        assert code == 0
        with RunLedger(ledger) as db:
            record = db.get("-1")
        assert record.command == "diff"
        assert record.config_hash  # NEW-side hash
        assert record.extra["old_hash"] == record.config_hash
        assert record.extra["flips"] == 0

    def test_analyze_records_findings(self, config_dir, tmp_path,
                                      capsys):
        from repro.obs.ledger import RunLedger

        ledger = self._ledger(tmp_path)
        code = main(["analyze", config_dir, "--ledger", ledger])
        capsys.readouterr()
        with RunLedger(ledger) as db:
            record = db.get("-1")
        assert record.command == "analyze"
        assert record.config_hash
        assert record.extra["exit_code"] == code
        assert "diagnostics" in record.extra

    def test_ledger_failure_never_breaks_verification(
            self, config_dir, tmp_path, capsys):
        bad = tmp_path / "dir-not-file"
        bad.mkdir()
        code = self._verify(config_dir, str(bad))
        assert code == 0  # verdict still delivered
        assert "could not record run" in capsys.readouterr().err


class TestHistoryCLI:
    @pytest.fixture()
    def two_runs(self, config_dir, tmp_path):
        ledger = str(tmp_path / "ledger.sqlite")
        for _ in range(2):
            assert main(["verify", config_dir, "reachability",
                         "--dest-prefix", "10.9.0.0/24",
                         "--ledger", ledger]) == 0
        return ledger

    def test_list_shows_runs(self, two_runs, capsys):
        capsys.readouterr()
        assert main(["history", "--ledger", two_runs, "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("verify") >= 2
        assert "1/1 hold" in out

    def test_show_renders_queries_and_phases(self, two_runs, capsys):
        capsys.readouterr()
        assert main(["history", "--ledger", two_runs, "show", "-1"]) == 0
        out = capsys.readouterr().out
        assert "Reachability: HOLDS" in out
        assert "phases:" in out
        assert "clauses=" in out
        assert "method=sat" in out

    def test_compare_identical_runs_exits_zero(self, two_runs, capsys):
        capsys.readouterr()
        code = main(["history", "--ledger", two_runs,
                     "compare", "-2", "-1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_compare_detects_seeded_regression(self, two_runs, capsys):
        import sqlite3

        conn = sqlite3.connect(two_runs)
        with conn:
            newest = conn.execute(
                "SELECT run_id FROM runs ORDER BY seq DESC LIMIT 1"
            ).fetchone()[0]
            conn.execute(
                "UPDATE queries SET clauses = clauses * 2, holds = 0 "
                "WHERE run_id = ?", (newest,))
        conn.close()
        capsys.readouterr()
        code = main(["history", "--ledger", two_runs,
                     "compare", "-2", "-1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "verdict" in out   # flip detected
        assert "clauses" in out   # count growth detected

    def test_compare_json_output(self, two_runs, capsys):
        import json as jsonlib

        capsys.readouterr()
        code = main(["history", "--ledger", two_runs,
                     "compare", "-2", "-1", "--json"])
        assert code == 0
        doc = jsonlib.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        assert doc["regressions"] == []
        assert doc["queries"][0]["name"] == "Reachability"

    def test_errors_exit_two(self, tmp_path, two_runs, capsys):
        missing = str(tmp_path / "missing.sqlite")
        assert main(["history", "--ledger", missing,
                     "show", "-1"]) == 2
        assert main(["history", "--ledger", two_runs,
                     "show", "nope"]) == 2
        assert main(["history", "--ledger", missing,
                     "compare", "-1", "-2"]) == 2
