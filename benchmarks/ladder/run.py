"""Minesweeper ladder: one benchmark, three workloads.

Run from the root of a checkout::

    python3 benchmarks/ladder/run.py --workload fattree-k4 --seed 0 \\
        --seconds 15 --trace 0
    PYTHONPATH=src:. python -m benchmarks.ladder --workload all --seed 0
    PYTHONPATH=src:. python -m benchmarks.ladder --workload all --trace

Every metric is printed as ``name value unit``; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (untraced run) or the per-layer metrics (traced
run) named in ``BENCHMARK.json``.  Each run is appended to the run
ledger (``benchmarks/out/ladder.ledger.sqlite``), which ``repro history
list/show`` read.  The exit code is 1 when a verdict disagrees with its
known answer, an operation failed, or a query's CNF size or conflict
count differs from an earlier ledger run of the same workload, seed and
source code.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ("fattree-k4", "cloud-audit", "serve-mix")
DEFAULT_LEDGER = os.path.join(ROOT, "benchmarks", "out",
                              "ladder.ledger.sqlite")

#: BENCHMARK.json lists only metrics that every workload reports and
#: that are never 0 there; everything else is printed, not listed.
#: Layer self times (s) every workload exercises, then counts per
#: freshly solved query, then phase totals.
LAYER_TIMES = ("lang.parse_s", "net.build_s", "core.encode_s",
               "core.property_s", "smt.cnf_s", "sat.load_s",
               "sat.preprocess_s", "sat.search_s")
PER_QUERY = ("cnf.vars", "cnf.clauses", "sat.conflicts", "sat.decisions",
             "sat.propagations", "sat.pp_removed_clauses",
             "sat.pp_eliminated_vars")
TOTALS = ("dataflow.fixpoint_iterations",)
#: Printed only: 0 on some workload (fattree-k4 finds no violation, so
#: builds no model; cloud-audit runs no batch; serve-mix lints at ingest;
#: small instances rarely restart or delete learned clauses; only
#: serve-mix has caches).
PARTIAL_LAYERS = ("analysis.preflight_s", "core.model_s", "engine.plan_s")
PARTIAL_PER_QUERY = ("sat.restarts", "sat.learned_deleted")
PARTIAL_TOTALS = ("engine.encoding_cache_hit", "engine.encoding_cache_miss",
                  "engine.encoding_recycled", "diff.cache_hit",
                  "diff.reverified", "serve.cache.hit", "serve.cache.miss",
                  "serve.cache.evicted")
#: Count fields that must repeat exactly for the same query.
COUNT_FIELDS = ("vars", "clauses", "conflicts")


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("ladder: no repro sources under src/repro; run from the "
                 "root of a checkout of the repository")
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "fattree-k4":
        from benchmarks.ladder.inproc import fattree_k4
        return fattree_k4(seed, seconds, trace)
    if name == "cloud-audit":
        from benchmarks.ladder.inproc import cloud_audit
        return cloud_audit(seed, seconds, trace)
    from benchmarks.ladder.serve_mix import serve_mix
    workdir = os.path.join(ROOT, "benchmarks", "out", "ladder",
                           f"serve-{os.getpid()}")
    return serve_mix(seed, seconds, trace, ROOT, workdir)


def timings(run):
    """Latency medians and throughput of a run.

    These wall-clock timings do not repeat within 10% from run to run
    on the calibration host (README.md, "Calibration"), so they are
    printed by every run and listed as per-layer metrics of the traced
    run, not gated as end-to-end metrics.
    """
    def median(samples):
        return statistics.median(samples) if samples else 0.0

    return {"query_p50_s": (median(run.latencies), "s"),
            "fresh_p50_s": (median(run.fresh_latencies), "s"),
            "queries_per_s": (run.answered / run.wall_s, "1/s")}


def end_to_end(run):
    """``(metrics for BENCHMARK.json, further report lines)``."""
    from benchmarks.ladder.measure import tail_percentile

    metrics = {"setup_s": (run.setup_s, "s"),
               "peak_rss_mb": (run.peak_rss_mb, "MB")}
    report = timings(run)
    report["wall_s"] = (run.wall_s, "s")
    report["query_samples"] = (len(run.latencies), "count")
    report["fresh_samples"] = (len(run.fresh_latencies), "count")
    for percent in (90, 99):
        value = tail_percentile(run.latencies, percent)
        if value is not None:
            report[f"query_p{percent}_s"] = (value, "s")
    report["verdict_accuracy"] = (
        (run.checks - run.wrong) / run.checks if run.checks else 0.0,
        "ratio")
    report["failed_ratio"] = (run.failed / run.attempted, "ratio")
    report["unknown_ratio"] = (run.unknown / max(run.answered, 1), "ratio")
    for name, value in run.extra.items():
        if not name.startswith("serve."):
            report[name] = value
    return metrics, report


def per_layer(run):
    """``(metrics for BENCHMARK.json, further report lines)``."""
    from benchmarks.ladder.measure import counter_name, layer_seconds

    layers = layer_seconds(run.spans)
    attributed = sum(layers.values())
    counters = run.counters
    solved = max(run.solved, 1)

    def total(name: str) -> float:
        return counters.get(counter_name(name), 0.0)

    metrics = {name: (layers[name], "s") for name in LAYER_TIMES}
    metrics["other_s"] = (run.client_s - attributed, "s")
    for name in PER_QUERY:
        metrics[name] = (total(name) / solved, "count")
    metrics["cnf.clauses.instrumentation"] = (
        counters.get(counter_name("cnf.clauses") + "{instrumentation}", 0.0)
        / solved, "count")
    for name in TOTALS:
        metrics[name] = (total(name), "count")
    search, preprocess = layers["sat.search_s"], layers["sat.preprocess_s"]
    metrics["sat.pp_share"] = (
        preprocess / (preprocess + search) if search else 0.0, "ratio")
    metrics["sat.props_per_s"] = (
        total("sat.propagations") / search if search else 0.0, "1/s")
    metrics.update(timings(run))

    report = {name: (layers[name], "s") for name in PARTIAL_LAYERS}
    for name in PARTIAL_PER_QUERY:
        report[name] = (total(name) / solved, "count")
    for name in PARTIAL_TOTALS:
        report[name] = (total(name), "count")
    hits, misses = (total("engine.encoding_cache_hit"),
                    total("engine.encoding_cache_miss"))
    report["engine.encoding_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    replays, fresh = total("diff.cache_hit"), total("diff.reverified")
    report["diff.replay_ratio"] = (
        replays / (replays + fresh) if replays + fresh else 0.0, "ratio")
    report["unknown_ratio"] = (run.unknown / max(run.answered, 1), "ratio")
    report["layer_coverage_pct"] = (100.0 * attributed / run.client_s, "%")
    for name, value in run.extra.items():
        if name.startswith("serve."):
            report[name] = value
    return metrics, report


def code_digest() -> str:
    """Content hash of the program's and the ladder's Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"),
                os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _ledger_record(run, metrics, report, seconds, argv):
    from repro import obs
    from repro.obs.ledger import build_record

    tracer = None
    if run.trace:
        tracer = obs.Tracer(lane="ladder")
        tracer.merge({"spans": run.spans})
    values = {name: value for name, (value, _) in
              list(metrics.items()) + list(report.items())}
    return build_record(
        f"ladder {run.workload}", argv=argv, results=run.results,
        tracer=tracer, started=time.time() - run.wall_s,
        extra={"workload": run.workload, "seed": run.seed,
               "seconds": seconds, "trace": run.trace, "metrics": values,
               "code": code_digest()})


def _previous(ledger, record, **match):
    """The newest earlier ledger run of the same command whose extra
    fields equal ``match``."""
    for summary in ledger.runs(command=record.command):
        extra = summary["extra"]
        if summary["run_id"] != record.run_id and all(
                extra.get(k) == v for k, v in match.items()):
            return ledger.get(summary["run_id"])
    return None


def count_mismatches(old_queries, new_queries):
    """Queries (matched by name) whose CNF size or conflicts differ."""
    old = {q["name"]: q for q in old_queries}
    out = []
    for query in new_queries:
        before = old.get(query["name"])
        if before is None:
            continue
        for fld in COUNT_FIELDS:
            if before[fld] != query[fld]:
                out.append(f"{query['name']}: {fld} {before[fld]} -> "
                           f"{query[fld]}")
    return out


def _record(run, metrics, report, seconds, argv, path):
    """Append the run to the ledger; returns count mismatches against
    the previous run of the same in-process workload and seed, and adds
    ``obs.overhead_pct`` to a traced run's report."""
    from repro.obs.ledger import RunLedger

    record = _ledger_record(run, metrics, report, seconds, argv)
    with RunLedger(path) as ledger:
        ledger.append(record)
        if run.trace:
            plain = _previous(ledger, record, seed=run.seed,
                              seconds=seconds, trace=False,
                              code=record.extra["code"])
            if plain is not None:
                traced_qps = run.answered / run.wall_s
                untraced = plain.extra["metrics"]["queries_per_s"]
                report["obs.overhead_pct"] = (
                    100.0 * (untraced / traced_qps - 1.0), "%")
        if run.workload == "serve-mix":
            return []  # counts depend on what the shared caches hold
        previous = _previous(ledger, record, seed=run.seed,
                             code=record.extra["code"])
        if previous is None:
            return []
        return count_mismatches(previous.queries, record.queries)


def _print(workload, metrics, report):
    for name, (value, unit) in list(metrics.items()) + list(report.items()):
        print(f"{workload} {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the Minesweeper ladder benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of each timed phase (default 15)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): traced run reporting "
                             "per-layer metrics")
    parser.add_argument("--ledger", default=DEFAULT_LEDGER,
                        help="run ledger to append to")
    args = parser.parse_args(argv)
    _bootstrap()
    # Unwind through every ``finally`` (the serve-mix daemon is stopped
    # there) when asked to terminate.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return _run_all(args)
    run = _run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    metrics, report = (per_layer if run.trace else end_to_end)(run)
    mismatches = _record(run, metrics, report, args.seconds,
                         sys.argv[1:] if argv is None else argv, args.ledger)
    _print(args.workload, metrics, report)
    for problem in run.problems + mismatches:
        print(f"{args.workload} problem: {problem}", file=sys.stderr)
    correct = not (run.wrong or run.failed or mismatches)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own;
    the result line prefixes each metric with its workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--ledger", args.ledger],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if lines:
            print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": value
                        for name, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
