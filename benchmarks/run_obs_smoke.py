"""Fast observability smoke check for `make check` / CI (< 30 s).

Runs a traced verify-batch over a small fat-tree and asserts the
telemetry invariants the tracing layer promises:

* the trace is non-empty and valid Chrome trace-event JSON (loadable
  in Perfetto), with every batch lane present;
* per-result encode/solve second fields agree with the corresponding
  span totals within 5% (they are views over the same spans);
* per-phase self times sum to (at most, and close to) traced wall
  time on every lane;
* the run ledger records the runs, ``repro history compare`` exits 0
  on two identical recorded runs, and deterministically exits 1 on a
  seeded CNF-size regression (count-based metrics, no timing
  dependence);
* the ``--metrics-out`` Prometheus exposition parses strictly and
  keeps at least 10 metric families;
* running with tracing disabled is not measurably slower: the median
  overhead over 10 untraced/traced pairs, alternating which side runs
  first, stays under 25% (a guard sized for noise on a sub-second
  workload; the <2% claim is meaningful only at real workload sizes).
  The traced side of each pair includes the ledger append, so
  recording overhead is bounded by the same band.

The exit code is the gate.  Writes ``benchmarks/out/obs_smoke_trace.json``
and ``benchmarks/out/obs_smoke_ledger.sqlite`` (uploaded as CI
artifacts).  ``--pods 4`` reproduces the 20-router acceptance
configuration (slow: all 20 timed runs are then at full scale).
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from repro import obs
from repro.cli import main as repro_main
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.gen import build_fattree
from repro.obs.ledger import RunLedger, build_record
from repro.obs.promexport import parse_exposition, write_prometheus

from benchmarks.harness import out_path

#: Bound on tracing+ledger overhead, as the median over the pairs.
MAX_OVERHEAD = 0.25
#: Untraced/traced pairs timed for the overhead guard.
OVERHEAD_PAIRS = 10
#: Half the 20 families the exposition had when the bound was set:
#: fewer means instrumentation went missing, not just moved.
MIN_PROM_FAMILIES = 10


def _queries(tree, max_reach=4):
    # k=1: at k=0 the fat-tree fixes rack reachability without an
    # encoding, and the checks below need spans, CNF and solver work.
    queries = [BatchQuery(P.Reachability(dest_prefix_text=tree.tor_subnet(t)),
                          max_failures=1, label=f"reach-{t}")
               for t in tree.tors[:max_reach]]
    queries.append(BatchQuery(P.NoForwardingLoops(), label="loops"))
    return queries


def _untraced_run(network, queries, workers):
    """One batch with spans off (results still carry span-derived
    timing through throwaway local tracers)."""
    start = time.perf_counter()
    results = BatchEngine(network, workers=workers).run(queries)
    return time.perf_counter() - start, results


def _traced_run(network, queries, workers, ledger_path):
    """One traced batch, timed INCLUDING the ledger append so the
    overhead guard bounds recording cost too."""
    tracer = obs.Tracer()
    start = time.perf_counter()
    with obs.use(tracer):
        results = BatchEngine(network, workers=workers).run(queries)
    record = build_record("verify-batch", ["obs-smoke"],
                          network=network, results=results,
                          tracer=tracer)
    with RunLedger(ledger_path) as ledger:
        ledger.append(record)
    return time.perf_counter() - start, results, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=2,
                        help="fat-tree pods (4 = the 20-router "
                             "acceptance configuration)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trace-out", default=None,
                        help="trace artifact path (default: "
                             "benchmarks/out/obs_smoke_trace.json)")
    args = parser.parse_args(argv)
    if args.trace_out is None:
        args.trace_out = out_path("obs_smoke_trace.json")

    tree = build_fattree(args.pods)
    network = tree.network
    queries = _queries(tree)

    ledger_path = out_path("obs_smoke_ledger.sqlite")
    if os.path.exists(ledger_path):
        os.remove(ledger_path)

    # Timed pairs, alternating which side runs first so warm-up and
    # drift hit both sides alike.  The first pair's runs feed the
    # checks below and its traced record is the ledger's first run;
    # later pairs record into a throwaway ledger.
    overheads = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(OVERHEAD_PAIRS):
            target = ledger_path if pair == 0 else os.path.join(
                tmp, "timing.sqlite")
            if pair % 2:
                traced = _traced_run(network, queries, args.workers, target)
                untraced = _untraced_run(network, queries, args.workers)
            else:
                untraced = _untraced_run(network, queries, args.workers)
                traced = _traced_run(network, queries, args.workers, target)
            if pair == 0:
                _, baseline = untraced
                _, results, tracer = traced
            overheads.append((traced[0] - untraced[0]) / untraced[0])

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok  " if ok else "FAIL") + f"  {what}")
        if not ok:
            failures.append(what)

    check([r.holds for r in results] == [r.holds for r in baseline],
          "traced and untraced verdicts identical")
    check(len(tracer.spans) > 0, f"trace non-empty ({len(tracer.spans)} "
          "spans)")

    # --- Chrome trace validity --------------------------------------
    obs.export.write_trace(tracer, args.trace_out)
    with open(args.trace_out) as handle:
        doc = json.load(handle)
    events = doc.get("traceEvents", [])
    complete = [e for e in events if e.get("ph") == "X"]
    check(len(complete) == len(tracer.spans),
          f"one complete event per span ({len(complete)})")
    check(all(set(e) >= {"name", "ph", "ts", "dur", "pid", "tid"}
              for e in complete), "trace events carry required keys")
    lanes = {e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "thread_name"}
    group_spans = [s for s in tracer.spans if s["name"] == "batch.group"]
    check(len(group_spans) > 0 and
          all((s.get("lane") or "main") in lanes for s in tracer.spans),
          f"every lane named in metadata ({sorted(lanes)})")

    # --- result stats are views over the spans ----------------------
    def span_total(name: str) -> float:
        return sum(s["duration"] for s in tracer.spans
                   if s["name"] == name)

    encode_spans = (span_total("verify.encode")
                    + span_total("verify.property"))
    encode_results = sum(r.encode_seconds for r in results)
    solve_spans = span_total("verify.solve")
    solve_results = sum(r.solve_seconds for r in results)
    enc_err = abs(encode_spans - encode_results) / max(encode_spans, 1e-9)
    slv_err = abs(solve_spans - solve_results) / max(solve_spans, 1e-9)
    check(enc_err < 0.05,
          f"encode: spans {encode_spans * 1e3:.1f}ms vs results "
          f"{encode_results * 1e3:.1f}ms ({enc_err * 100:.2f}% off)")
    check(slv_err < 0.05,
          f"solve: spans {solve_spans * 1e3:.1f}ms vs results "
          f"{solve_results * 1e3:.1f}ms ({slv_err * 100:.2f}% off)")
    for r in results:
        check(abs(r.encode_seconds - (r.encode_shared_seconds
                                      + r.encode_query_seconds)) < 1e-9,
              f"{r.property_name}: encode = shared + query")

    # --- phase totals vs wall time ----------------------------------
    # Self times (duration minus direct children) partition each lane's
    # busy time, so per lane they cannot exceed that lane's wall span
    # and should cover most of it (the remainder is untraced glue).
    child = {}
    for s in tracer.spans:
        if s["parent_id"]:
            child[s["parent_id"]] = (child.get(s["parent_id"], 0.0)
                                     + s["duration"])
    by_lane = {}
    for s in tracer.spans:
        by_lane.setdefault(s.get("lane") or "main", []).append(s)
    for lane, spans in sorted(by_lane.items()):
        self_total = sum(max(0.0, s["duration"]
                             - child.get(s["span_id"], 0.0))
                         for s in spans)
        wall = (max(s["start"] + s["duration"] for s in spans)
                - min(s["start"] for s in spans))
        check(self_total <= wall * 1.02,
              f"lane {lane!r}: self {self_total * 1e3:.1f}ms <= wall "
              f"{wall * 1e3:.1f}ms")

    # --- run ledger + history compare --------------------------------
    # Record the untraced baseline as a second run: counts (vars,
    # clauses, conflicts) are deterministic for the fixed workload, so
    # the two records must compare clean, and a seeded 1.5x clause
    # inflation must be detected — no timing dependence either way.
    with RunLedger(ledger_path) as ledger:
        ledger.append(build_record("verify-batch", ["obs-smoke"],
                                   network=network, results=baseline))
        seeded = build_record("verify-batch", ["obs-smoke", "seeded"],
                              network=network, results=results)
        for q in seeded.queries:
            q["clauses"] = int(q["clauses"] * 1.5)
        ledger.append(seeded)
        recorded = len(ledger)
    check(recorded == 3, f"ledger recorded {recorded} run(s)")

    identical_rc = repro_main(["history", "--ledger", ledger_path,
                               "compare", "-3", "-2"])
    check(identical_rc == 0,
          f"history compare of identical runs exits 0 (got "
          f"{identical_rc})")
    seeded_rc = repro_main(["history", "--ledger", ledger_path,
                            "compare", "-3", "-1"])
    check(seeded_rc == 1,
          f"history compare flags the seeded 1.5x clause growth "
          f"(exit {seeded_rc})")

    # --- Prometheus exposition ---------------------------------------
    prom_path = out_path("obs_smoke_metrics.prom")
    write_prometheus(tracer.metrics, prom_path)
    with open(prom_path) as handle:
        try:
            families = parse_exposition(handle.read())
            prom_ok = len(families) > 0
        except ValueError as exc:
            print(f"  exposition invalid: {exc}", file=sys.stderr)
            prom_ok = False
    check(prom_ok, f"Prometheus exposition parses "
          f"({len(families) if prom_ok else 0} families)")
    check(prom_ok and len(families) >= MIN_PROM_FAMILIES,
          f"exposition keeps >= {MIN_PROM_FAMILIES} metric families")

    # --- overhead ----------------------------------------------------
    overhead = statistics.median(overheads)
    check(overhead < MAX_OVERHEAD,
          f"tracing+ledger overhead {overhead * 100:+.1f}% (median of "
          f"{len(overheads)} pairs, range {min(overheads) * 100:+.1f}% "
          f"to {max(overheads) * 100:+.1f}%)")

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
