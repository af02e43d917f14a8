"""Command-line interface: verify configuration directories directly.

Examples::

    python -m repro show configs/
    python -m repro analyze configs/ --json
    python -m repro verify configs/ reachability --sources R1 \
        --dest-prefix 10.9.0.0/24 --max-failures 1
    python -m repro verify configs/ blackholes --dest-prefix 10.0.0.0/8
    python -m repro verify configs/ loops
    python -m repro verify-batch configs/ --property reachability \
        --property blackholes --dest-prefix 10.9.0.0/24 --workers 4
    python -m repro verify-batch configs/ --spec queries.json
    python -m repro diff old-configs/ new-configs/ --spec queries.json \
        --cache .repro-verdicts.json --json
    python -m repro verify-batch configs/ --property loops \
        --workers 4 --profile --trace run.trace.json
    python -m repro verify-batch configs/ --property loops \
        --metrics-out metrics.prom --log-json run.log.jsonl
    python -m repro stats run.trace.json
    python -m repro history list
    python -m repro history show -1
    python -m repro history compare -2 -1 --threshold 10
    python -m repro equivalence configs/ R1 R2
    python -m repro simulate configs/ --from R1 --dst 10.9.0.5

Verifying subcommands (verify, verify-batch, diff, analyze) append one
row to the run ledger (``.repro-ledger.sqlite``; ``--ledger FILE`` /
``REPRO_LEDGER`` override, ``--no-ledger`` to skip) — ``repro
history`` lists, inspects and regression-diffs recorded runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro import obs
from repro.core import BatchQuery, EncoderOptions, Verifier
from repro.net import load_config_texts, load_network

__all__ = ["main"]

PROPERTY_CHOICES = ["reachability", "isolation", "blackholes", "loops",
                    "bounded-length", "waypoint", "prefix-leak"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minesweeper-style network configuration verification")
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="summarize a parsed network")
    show.add_argument("configs", help="directory of config files")

    analyze = sub.add_parser(
        "analyze",
        help="lint configs: dangling references, session mismatches, "
             "SMT-proven shadowed rules (exit 0/1/2 = clean/warn/error)")
    analyze.add_argument("configs", help="directory of config files")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    analyze.add_argument("--sarif", action="store_true",
                         help="SARIF 2.1.0 report on stdout (for CI "
                              "code-scanning upload)")
    analyze.add_argument("--no-smt", action="store_true",
                         help="skip the solver-backed shadow checks")
    analyze.add_argument("--rules", nargs="*", default=None,
                         help="only report these rule ids")
    _add_ledger_flags(analyze)

    # Shared by every command that runs the solver.
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--no-preprocess", action="store_true",
                              help="disable SAT-level CNF preprocessing")

    verify = sub.add_parser("verify", parents=[solver_flags],
                            help="verify a property")
    verify.add_argument("configs")
    verify.add_argument("property", choices=PROPERTY_CHOICES)
    _add_query_flags(verify)
    _add_observability_flags(verify)

    batch = sub.add_parser(
        "verify-batch", parents=[solver_flags],
        help="verify many properties in one run (shared encodings, "
             "optional process-pool parallelism)")
    batch.add_argument("configs")
    _add_batch_flags(batch)
    _add_observability_flags(batch)

    diff = sub.add_parser(
        "diff", parents=[solver_flags],
        help="differential verification of two config trees: replay "
             "cached verdicts for queries whose dependency slice is "
             "untouched, re-verify the rest, report verdict flips "
             "(exit 0/1/2 = no new violations/new violations/error)")
    diff.add_argument("old", help="directory with the OLD config tree")
    diff.add_argument("new", help="directory with the NEW config tree")
    _add_batch_flags(diff)
    diff.add_argument("--cache", default=None, metavar="FILE",
                      help="verdict-cache file to read and update "
                           "(omit for an in-memory cache: correct, but "
                           "nothing carries over between runs)")
    diff.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout")
    diff.add_argument("--cone-stats", action="store_true",
                      help="report each query's dependency-slice size "
                           "(devices / fragments) on the NEW tree")
    _add_observability_flags(diff)

    equiv = sub.add_parser("equivalence",
                           help="check local equivalence of two routers")
    equiv.add_argument("configs")
    equiv.add_argument("router_a")
    equiv.add_argument("router_b")
    equiv.add_argument("--by-name", action="store_true",
                       help="pair interfaces by name instead of position")

    simulate = sub.add_parser(
        "simulate", help="trace a packet through one concrete environment")
    simulate.add_argument("configs")
    simulate.add_argument("--from", dest="source", required=True)
    simulate.add_argument("--dst", required=True)
    simulate.add_argument("--announce", nargs=2, action="append",
                          metavar=("PEER", "PREFIX"), default=[],
                          help="external announcement (repeatable)")
    simulate.add_argument("--fail", nargs=2, action="append",
                          metavar=("A", "B"), default=[],
                          help="failed link between two routers")

    stats = sub.add_parser(
        "stats",
        help="summarize a trace file written by --trace (phase "
             "breakdown table plus recorded metrics)")
    stats.add_argument("trace", help="trace file (Chrome JSON or JSONL)")

    history = sub.add_parser(
        "history",
        help="inspect the run ledger: list recorded runs, show one, "
             "or compare two for regressions")
    history.add_argument("--ledger", default=None, metavar="FILE",
                         help="ledger database (default: "
                              ".repro-ledger.sqlite or $REPRO_LEDGER)")
    hsub = history.add_subparsers(dest="history_command", required=True)
    hlist = hsub.add_parser("list", help="recorded runs, newest first")
    hlist.add_argument("--limit", type=int, default=20)
    hlist.add_argument("--command", dest="command_filter", default=None,
                       help="only runs of this subcommand")
    hlist.add_argument("--json", action="store_true")
    hshow = hsub.add_parser("show", help="one run in full detail")
    hshow.add_argument("run", help="run id, unique prefix, or -N "
                                   "(-1 = most recent)")
    hshow.add_argument("--json", action="store_true")
    hcmp = hsub.add_parser(
        "compare",
        help="diff two runs: verdicts, CNF sizes, conflicts, phase "
             "timings (exit 0 clean / 1 regression / 2 error)")
    hcmp.add_argument("old", help="baseline run (id, prefix, or -N)")
    hcmp.add_argument("new", help="candidate run (id, prefix, or -N)")
    hcmp.add_argument("--threshold", type=float, default=10.0,
                      metavar="PCT",
                      help="max growth of deterministic count metrics "
                           "(vars/clauses/conflicts) before failing "
                           "(default 10%%)")
    hcmp.add_argument("--time-threshold", type=float, default=50.0,
                      metavar="PCT",
                      help="max growth of timing metrics before "
                           "warning (default 50%%)")
    hcmp.add_argument("--gate-timings", action="store_true",
                      help="timing growth beyond --time-threshold "
                           "fails instead of warning (noisy runners "
                           "beware)")
    hcmp.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve", parents=[solver_flags],
        help="verification-as-a-service HTTP daemon: tenant snapshot "
             "store plus a cross-request encoding cache (warm queries "
             "skip parse/build/encode); see docs/SERVING.md")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                       help="listen port (0 picks a free one; the bound "
                            "address is printed on startup)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="persist snapshots (configs, metadata, "
                            "verdict caches) here and reload them on "
                            "restart; omit for a memory-only daemon")
    serve.add_argument("--cache-bytes", type=int,
                       default=256 * 1024 * 1024, metavar="N",
                       help="byte budget of the shared network/encoding "
                            "cache (default 256 MiB)")
    serve.add_argument("--cache-ttl", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="evict cache entries idle this long "
                            "(default 3600)")
    serve.add_argument("--allow-local-dirs", default=None, metavar="ROOT",
                       help="enable {\"directory\": ...} ingest bodies, "
                            "confined to paths under ROOT (disabled by "
                            "default: it lets clients read files the "
                            "daemon can see)")
    serve.add_argument("--log-json", default=None, metavar="FILE",
                       help="structured JSON logs ('-' for stderr)")
    _add_ledger_flags(serve)
    return parser


def _add_query_flags(parser: argparse.ArgumentParser) -> None:
    """The property flags: verify's one query, or the settings every
    ``--property`` query of verify-batch and diff shares."""
    parser.add_argument("--sources", nargs="*", default=None,
                        help="source routers (default: all)")
    parser.add_argument("--dest-prefix", default=None,
                        help="destination prefix A.B.C.D/len")
    parser.add_argument("--dest-peer", default=None,
                        help="destination external peer name")
    parser.add_argument("--bound", type=int, default=4,
                        help="hop bound for bounded-length")
    parser.add_argument("--waypoints", nargs="*", default=[],
                        help="waypoint chain for the waypoint property")
    parser.add_argument("--max-leak-length", type=int, default=24)
    parser.add_argument("--max-failures", type=int, default=None,
                        help="verify under up to k link failures")
    parser.add_argument("--announced-by", nargs="*", default=[],
                        help="assume these peers announce the destination")


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """Query-list flags shared by verify-batch and diff."""
    parser.add_argument("--spec", default=None,
                        help="JSON query-spec file: a list of objects, each "
                             'like {"property": "reachability", "sources": '
                             '["R1"], "dest_prefix": "10.9.0.0/24", '
                             '"max_failures": 1, "label": "edge-reach"}')
    parser.add_argument("--property", dest="properties", action="append",
                        choices=PROPERTY_CHOICES, default=[],
                        help="property to check (repeatable; each repeat "
                             "makes one query from the shared flags below)")
    _add_query_flags(parser)
    parser.add_argument("--workers", type=_worker_count, default=1,
                        help="process-pool workers; the destination "
                             "prefixes are dealt into one group per "
                             "worker (1 = serial, one encoding)")


def _worker_count(text: str) -> int:
    """A ``--workers`` value: an integer of at least 1."""
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return workers


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="run-ledger database to append this run to "
                             "(default: .repro-ledger.sqlite, or "
                             "$REPRO_LEDGER)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not record this run in the ledger")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print per-query decision method "
                             "(sat/simulation), vars/clauses/conflicts "
                             "and encode/solve time split")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record pipeline spans; .jsonl writes JSON "
                             "lines, anything else Chrome trace-event "
                             "JSON (Perfetto / chrome://tracing)")
    parser.add_argument("--profile", action="store_true",
                        help="print the phase-breakdown table and "
                             "pipeline metrics after the run")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the run's metrics as Prometheus/"
                             "OpenMetrics text exposition")
    parser.add_argument("--log-json", default=None, metavar="FILE",
                        help="structured JSON logs ('-' for stderr); "
                             "every record carries this run's id")
    _add_ledger_flags(parser)


class _RunContext:
    """Mutable carrier the command handlers fill in while running under
    :func:`_observed`: the loaded network, encoder options and results
    feed the ledger row written at exit."""

    __slots__ = ("tracer", "run_id", "network", "options", "results",
                 "config_hash", "extra")

    def __init__(self, tracer, run_id: str) -> None:
        self.tracer = tracer
        self.run_id = run_id
        self.network = None
        self.options = None
        self.results: List = []
        self.config_hash: Optional[str] = None
        self.extra: dict = {}


@contextmanager
def _observed(args, command: Optional[str] = None):
    """Observe one CLI run end to end.

    Installs a process-wide tracer when anything needs the telemetry —
    ``--trace``/``--profile``/``--metrics-out``, or the run ledger
    (on by default) — then, afterwards, writes the trace file, prints
    the profile tables, writes the Prometheus exposition, and appends
    the ledger row.  Yields a :class:`_RunContext` the handler fills
    in as it goes.
    """
    from repro.obs import ledger as ledgerlib, log as loglib

    ledger_on = (command is not None
                 and not getattr(args, "no_ledger", True))
    want_tracer = bool(args.trace or args.profile
                       or getattr(args, "metrics_out", None) or ledger_on)
    run_id = loglib.new_run_id()
    log_handler = None
    if getattr(args, "log_json", None):
        log_handler = loglib.configure(args.log_json, run=run_id)
    else:
        loglib.set_run_id(run_id)
    ctx = _RunContext(obs.Tracer() if want_tracer else obs.NULL_TRACER,
                      run_id)
    started = time.time()
    loglib.event("run.start", command=command or args.command,
                 argv=list(sys.argv[1:]))
    try:
        if want_tracer:
            with obs.use(ctx.tracer):
                yield ctx
        else:
            yield ctx
    finally:
        loglib.event("run.finish", command=command or args.command,
                     seconds=round(time.time() - started, 4))
        if log_handler is not None:
            loglib.unconfigure(log_handler)
        loglib.set_run_id(None)
    tracer = ctx.tracer
    if args.trace:
        obs.export.write_trace(tracer, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.profile:
        print(obs.export.phase_table(tracer))
        if len(tracer.metrics):
            print(obs.export.metrics_table(tracer))
    if getattr(args, "metrics_out", None):
        obs.promexport.write_prometheus(tracer.metrics, args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if ledger_on:
        record = ledgerlib.build_record(
            command, sys.argv[1:], run_id=run_id,
            network=ctx.network, options=ctx.options,
            results=ctx.results, tracer=tracer,
            started=started, config_hash=ctx.config_hash,
            extra=ctx.extra)
        _append_ledger(args, record)


def _append_ledger(args, record) -> None:
    from repro.obs import ledger as ledgerlib

    path = getattr(args, "ledger", None) or ledgerlib.default_ledger_path()
    try:
        with ledgerlib.RunLedger(path) as ledger:
            ledger.append(record)
    except Exception as exc:
        # Recording must never break verification itself.
        print(f"warning: could not record run in ledger {path}: {exc}",
              file=sys.stderr)


def _stats_line(result) -> str:
    """The per-query --stats detail line (same for verify and batch)."""
    return (f"  method={result.method} "
            f"vars={result.num_variables} "
            f"clauses={result.num_clauses} "
            f"conflicts={result.conflicts} "
            f"encode={result.encode_seconds * 1e3:.1f}ms "
            f"(shared={result.encode_shared_seconds * 1e3:.1f}ms "
            f"query={result.encode_query_seconds * 1e3:.1f}ms) "
            f"solve={result.solve_seconds * 1e3:.1f}ms")


def _flag_spec(args, kind: str) -> dict:
    """The query spec the property flags describe for property ``kind``:
    the shape of a ``--spec`` entry or a serve request body."""
    return {
        "property": kind,
        "sources": args.sources,
        "dest_prefix": args.dest_prefix,
        "dest_peer": args.dest_peer,
        "bound": args.bound,
        "waypoints": args.waypoints,
        "max_leak_length": args.max_leak_length,
        "max_failures": args.max_failures,
        "announced_by": args.announced_by,
    }


def _queries(specs: List[dict], network=None) -> List[BatchQuery]:
    """The queries of ``specs``, checked and built by the serve API's
    own :mod:`repro.serve.schemas` (with ``network``, their router
    names are checked against it too); its 400s become the CLI's
    ``SystemExit`` messages."""
    from repro.serve.schemas import ApiError, check_routers, query_from_spec

    try:
        queries = [query_from_spec(spec, i) for i, spec in enumerate(specs)]
        if network is not None:
            check_routers(queries, network)
    except ApiError as exc:
        raise SystemExit(exc.message) from exc
    return queries


def _load_network(configs: str):
    """:func:`load_network`, with a path that is not a directory of
    config files as a ``SystemExit`` message, not a traceback."""
    try:
        return load_network(configs)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_show(args) -> int:
    network = _load_network(args.configs)
    print(f"{len(network.devices)} routers, "
          f"{len(network.internal_links())} links, "
          f"{len(network.externals)} external peers, "
          f"{network.total_config_lines()} config lines")
    for name in network.router_names():
        device = network.device(name)
        neighbors = sorted({e.target for e in network.edges_from(name)})
        peers = [p.name for p in network.externals_at(name)]
        protos = ",".join(sorted(device.protocols()))
        line = f"  {name} [{protos}] -> {', '.join(neighbors)}"
        if peers:
            line += f" | external: {', '.join(peers)}"
        print(line)
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import format_text, to_json, to_sarif
    from repro.analysis.engine import analyze_configs

    if args.json and args.sarif:
        raise SystemExit("--json and --sarif are mutually exclusive")
    try:
        texts = load_config_texts(args.configs)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from exc
    report = analyze_configs(texts, smt=not args.no_smt)
    if args.rules is not None:
        wanted = set(args.rules)
        report.diagnostics = [d for d in report.diagnostics
                              if d.rule_id in wanted]
        report.suppressed = [d for d in report.suppressed
                             if d.rule_id in wanted]
    if args.sarif:
        print(to_sarif(report))
    else:
        print(to_json(report) if args.json else format_text(report))
    if not args.no_ledger:
        from repro.obs import ledger as ledgerlib

        _append_ledger(args, ledgerlib.build_record(
            "analyze", sys.argv[1:],
            config_hash=ledgerlib.texts_hash(texts),
            extra={"diagnostics": len(report.diagnostics),
                   "suppressed": len(report.suppressed),
                   "exit_code": report.exit_code}))
    return report.exit_code


def _cmd_verify(args) -> int:
    with _observed(args, command="verify") as ctx:
        network = _load_network(args.configs)
        verifier = Verifier(network, options=EncoderOptions(
            preprocess=not args.no_preprocess))
        [query] = _queries([_flag_spec(args, args.property)], network)
        result = verifier.verify(query.prop, max_failures=query.max_failures,
                                 assumptions=query.assumptions)
        ctx.network, ctx.options = network, verifier.options
        ctx.results = [result]
    print(result)
    if args.stats:
        print(_stats_line(result))
    if result.holds is False and result.counterexample is not None:
        print(result.counterexample.summary())
    return 0 if result.holds else 1


def _batch_specs(args) -> List[dict]:
    """The ``--spec`` file's entries, then one spec per ``--property``."""
    specs: List[dict] = []
    if args.spec:
        try:
            with open(args.spec) as handle:
                specs = json.load(handle)
        except OSError as exc:
            raise SystemExit(f"cannot read --spec file: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--spec is not valid JSON: {exc}")
        if not isinstance(specs, list):
            raise SystemExit("--spec must contain a JSON list of queries")
    specs += [_flag_spec(args, kind) for kind in args.properties]
    if not specs:
        raise SystemExit(
            f"{args.command} needs --spec and/or at least one --property")
    return specs


def _cmd_verify_batch(args) -> int:
    with _observed(args, command="verify-batch") as ctx:
        network = _load_network(args.configs)
        verifier = Verifier(network, options=EncoderOptions(
            preprocess=not args.no_preprocess))
        queries = _queries(_batch_specs(args), network)
        results = verifier.verify_batch(queries, workers=args.workers)
        ctx.network, ctx.options = network, verifier.options
        ctx.results = results
    status_text = {True: "HOLDS", False: "VIOLATED", None: "UNKNOWN"}
    for query, result in zip(queries, results):
        line = (f"{result.property_name}: {status_text[result.holds]} "
                f"({result.seconds * 1e3:.1f} ms)")
        if result.message:
            line += f" — {result.message}"
        print(line)
        if args.stats:
            print(_stats_line(result))
        if result.holds is False and result.counterexample is not None:
            print("  " + result.counterexample.summary()
                  .replace("\n", "\n  "))
    total = sum(r.seconds for r in results)
    holding = sum(1 for r in results if r.holds is True)
    print(f"{holding}/{len(results)} hold, total {total * 1e3:.1f} ms")
    return 0 if all(r.holds is True for r in results) else 1


def _cmd_diff(args) -> int:
    from repro.diff import (
        DiffError,
        VerdictCache,
        diff_trees,
        render_text,
        to_json,
    )

    cache = VerdictCache.load(args.cache) if args.cache else VerdictCache()
    try:
        with _observed(args, command="diff") as ctx:
            queries = _queries(_batch_specs(args))
            options = EncoderOptions(preprocess=not args.no_preprocess)
            report = diff_trees(args.old, args.new, queries,
                                options=options, workers=args.workers,
                                cache=cache, cone_stats=args.cone_stats)
            ctx.options = options
            # NEW-side verdicts (with replay flags) are the run's
            # outcome; the pair of tree hashes anchors reproducibility.
            ctx.results = [q.new for q in report.queries]
            ctx.config_hash = report.new_hash
            ctx.extra = {
                "old_dir": str(args.old), "new_dir": str(args.new),
                "old_hash": report.old_hash,
                "changed_devices": len(report.changed_devices),
                "flips": len(report.flips),
                "new_violations": len(report.new_violations),
            }
    except DiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = report.exit_code
    if args.json:
        print(json.dumps(to_json(report, exit_code=code), indent=1))
    else:
        print(render_text(report))
    if args.cache and cache.dirty:
        cache.save()
    return code


def _cmd_stats(args) -> int:
    try:
        data = obs.export.read_trace(args.trace)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file: {exc}")
    except (ValueError, KeyError) as exc:
        raise SystemExit(f"not a recognizable trace file: {exc}")
    print(obs.export.phase_table(data))
    if data.get("metrics"):
        print(obs.export.metrics_table(data["metrics"]))
    return 0


def _cmd_history(args) -> int:
    from repro.obs import ledger as ledgerlib

    path = args.ledger or ledgerlib.default_ledger_path()
    try:
        with ledgerlib.RunLedger(path) as ledger:
            if args.history_command == "list":
                return _history_list(args, ledger)
            if args.history_command == "show":
                return _history_show(args, ledger)
            return _history_compare(args, ledger)
    except ledgerlib.LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _fmt_when(epoch: float) -> str:
    from datetime import datetime

    return datetime.fromtimestamp(epoch).strftime("%Y-%m-%d %H:%M:%S")


def _history_list(args, ledger) -> int:
    runs = ledger.runs(limit=args.limit, command=args.command_filter)
    if args.json:
        print(json.dumps(runs, indent=1))
        return 0
    if not runs:
        print(f"(no runs recorded in {ledger.path})")
        return 0
    header = (f"{'run':<12}  {'command':<12}  {'when':<19}  "
              f"{'secs':>7}  {'queries':>7}  verdicts")
    print(header)
    print("-" * len(header))
    for run in runs:
        if run["queries"]:
            verdict = f"{run['holding']}/{run['queries']} hold"
            if run["cached"]:
                verdict += f" ({run['cached']} cached)"
        elif "diagnostics" in run["extra"]:
            verdict = f"{run['extra']['diagnostics']} finding(s)"
        else:
            verdict = "-"
        print(f"{run['run_id']:<12}  {run['command']:<12}  "
              f"{_fmt_when(run['started']):<19}  "
              f"{run['seconds']:>7.2f}  {run['queries']:>7}  {verdict}")
    return 0


def _history_show(args, ledger) -> int:
    record = ledger.get(args.run)
    if args.json:
        from dataclasses import asdict

        print(json.dumps(asdict(record), indent=1))
        return 0
    print(f"run      {record.run_id}  ({record.command})")
    print(f"when     {_fmt_when(record.started)}  "
          f"({record.seconds:.2f}s)")
    print(f"argv     {' '.join(record.argv)}")
    if record.config_hash:
        print(f"configs  {record.config_hash[:16]}")
    if record.options:
        print(f"options  {record.options}")
    if record.workload:
        detail = " ".join(f"{k}={v}"
                          for k, v in sorted(record.workload.items()))
        print(f"network  {detail}")
    print(f"verdicts {record.verdict_summary()}")
    if record.queries:
        print("queries:")
        status = {True: "HOLDS", False: "VIOLATED", None: "UNKNOWN"}
        for q in record.queries:
            line = (f"  {q['name']}: {status[q['holds']]} "
                    f"{q['seconds'] * 1e3:.1f}ms method={q['method']} "
                    f"vars={q['vars']} clauses={q['clauses']} "
                    f"conflicts={q['conflicts']}")
            if q["cached"]:
                line += " [cached]"
            print(line)
    if record.phases:
        print("phases:")
        ordered = sorted(record.phases.items(),
                         key=lambda kv: -kv[1]["total_seconds"])
        for name, row in ordered:
            print(f"  {name:<28} x{row['count']:<4} "
                  f"{row['total_seconds'] * 1e3:>9.1f}ms")
    if record.extra:
        print("extra:")
        for key, value in sorted(record.extra.items()):
            print(f"  {key} = {value}")
    return 0


def _history_compare(args, ledger) -> int:
    from repro.obs.ledger import compare_runs

    old = ledger.get(args.old)
    new = ledger.get(args.new)
    report = compare_runs(old, new,
                          threshold=args.threshold / 100.0,
                          time_threshold=args.time_threshold / 100.0,
                          gate_timings=args.gate_timings)
    code = 1 if report["regressions"] else 0
    if args.json:
        print(json.dumps({**report, "exit_code": code}, indent=1))
        return code
    print(f"comparing {old.run_id} ({old.command}) -> "
          f"{new.run_id} ({new.command})")
    if report["config_changed"]:
        print("note: config hashes differ — the runs verified "
              "different networks")
    if report["options_changed"]:
        print("note: encoder options differ between the runs")
    status = {True: "HOLDS", False: "VIOLATED", None: "UNKNOWN"}
    for entry in report["queries"]:
        deltas = entry["deltas"]
        parts = []
        for fld in ("vars", "clauses", "conflicts"):
            a, b = deltas[fld]["old"], deltas[fld]["new"]
            parts.append(f"{fld} {a}->{b}" if a != b else f"{fld} {a}")
        a, b = deltas["seconds"]["old"], deltas["seconds"]["new"]
        parts.append(f"time {a * 1e3:.1f}->{b * 1e3:.1f}ms")
        verdict = status[entry["old_holds"]]
        if entry["old_holds"] != entry["new_holds"]:
            verdict += f" -> {status[entry['new_holds']]}"
        print(f"  {entry['name']}: {verdict}  " + "  ".join(parts))
    for name in report["missing"]:
        print(f"  {name}: only in baseline run")
    for name in report["added"]:
        print(f"  {name}: only in candidate run")
    if report["phases"]:
        print("phases:")
        for row in report["phases"]:
            print(f"  {row['name']:<28} {row['old'] * 1e3:>9.1f}ms -> "
                  f"{row['new'] * 1e3:>9.1f}ms")
    for text in report["warnings"]:
        print(f"warning: {text}")
    for text in report["regressions"]:
        print(f"REGRESSION: {text}")
    print("result: "
          + (f"{len(report['regressions'])} regression(s)"
             if report["regressions"] else "no regressions"))
    return code


def _cmd_equivalence(args) -> int:
    network = _load_network(args.configs)
    result = Verifier(network).verify_local_equivalence(
        args.router_a, args.router_b,
        iface_pairing="by-name" if args.by_name else "sorted")
    print(result)
    return 0 if result.holds else 1


def _cmd_simulate(args) -> int:
    from repro.net import ip as iplib
    from repro.sim import (
        DataPlane,
        Environment,
        ExternalAnnouncement,
        Packet,
        simulate,
    )

    network = _load_network(args.configs)
    announcements = [
        ExternalAnnouncement.make(peer, prefix)
        for peer, prefix in args.announce]
    env = Environment.of(announcements,
                         [tuple(pair) for pair in args.fail])
    state = simulate(network, env)
    if not state.converged:
        print("warning: control plane did not converge", file=sys.stderr)
    dataplane = DataPlane(state)
    packet = Packet(dst_ip=iplib.parse_ip(args.dst))
    traces = dataplane.traces(args.source, packet)
    for trace in traces:
        path = " -> ".join(trace.path)
        suffix = f" via {trace.exit_peer}" if trace.exit_peer else ""
        print(f"{path}: {trace.disposition}{suffix}")
    return 0 if all(t.delivered for t in traces) else 1


def _cmd_serve(args) -> int:
    from repro.obs import ledger as ledgerlib, log as loglib
    from repro.serve import SnapshotRegistry, TTLLRUCache, make_server

    log_handler = None
    if args.log_json:
        log_handler = loglib.configure(args.log_json)
    options = EncoderOptions(preprocess=not args.no_preprocess)
    cache = TTLLRUCache(max_bytes=args.cache_bytes,
                        ttl_seconds=args.cache_ttl)
    registry = SnapshotRegistry(cache=cache, options=options,
                                state_dir=args.state_dir)
    ledger_path = (None if args.no_ledger
                   else args.ledger or ledgerlib.default_ledger_path())
    server = make_server(args.host, args.port, registry,
                         ledger_path=ledger_path,
                         local_dir_root=args.allow_local_dirs)
    host, port = server.server_address[:2]
    # Parseable startup line: smoke harnesses bind --port 0 and read
    # the chosen port from here.
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    loglib.event("serve.start", host=host, port=port,
                 state_dir=args.state_dir or "",
                 snapshots=len(registry))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        loglib.event("serve.stop", host=host, port=port)
        if log_handler is not None:
            loglib.unconfigure(log_handler)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "show": _cmd_show,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "verify-batch": _cmd_verify_batch,
        "diff": _cmd_diff,
        "equivalence": _cmd_equivalence,
        "simulate": _cmd_simulate,
        "stats": _cmd_stats,
        "history": _cmd_history,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. output piped into `head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
