"""Bench-regression gate: compare fresh BENCH_*.json against baselines.

CI runs the smoke benchmarks (``run_batch_smoke``, ``run_obs_smoke``,
``run_preprocess_smoke``) on every push, then calls this script to
diff the fresh ``BENCH_<name>.json`` files in ``benchmarks/out/``
against the committed snapshots in ``benchmarks/baselines/``.  Only
ratio-style metrics are gated — speedups, overhead percentages,
reduction percentages — never raw seconds, which vary with the
runner.  Each gate has a tolerance band sized for CI noise.  Gates on
timing-derived ratios are warn-only (a loaded shared runner can dip
below any band without a real regression); only the deterministic
clause-reduction metric hard-fails the job.

Usage::

    python benchmarks/compare_bench.py            # gate, exit 1 on fail
    python benchmarks/compare_bench.py --update   # rebaseline

After an intentional performance change, run the smokes locally, then
``--update`` and commit the refreshed baselines with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(ROOT, "benchmarks", "baselines")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")
BENCHES = (
    "batch",
    "obs",
    "preprocess",
    "satcore",
    "diff",
    "analysis",
    "serve",
)


@dataclass
class Gate:
    """One gated metric with its tolerance band.

    ``higher_better`` picks the failing direction; the band is
    ``rel_tol`` (fraction of the baseline value) or ``abs_tol`` (same
    unit as the metric), whichever is looser.  ``floor`` and
    ``ceiling`` are hard limits applied regardless of the baseline —
    the acceptance criteria themselves.  ``hard`` decides whether an
    out-of-band value fails the job or only warns: timing-derived
    metrics are warn-only because shared CI runners make them noisy.
    """

    bench: str
    metric: str
    higher_better: bool
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    floor: Optional[float] = None
    ceiling: Optional[float] = None
    hard: bool = True

    def allowed(self, baseline: float) -> float:
        slack = max(abs(baseline) * self.rel_tol, self.abs_tol)
        if self.higher_better:
            bound = baseline - slack
            if self.floor is not None:
                bound = max(bound, self.floor)
        else:
            bound = baseline + slack
            if self.ceiling is not None:
                bound = min(bound, self.ceiling)
        return bound

    def passes(self, fresh: float, baseline: float) -> bool:
        bound = self.allowed(baseline)
        return fresh >= bound if self.higher_better else fresh <= bound


# Timing-derived ratios (speedup, overhead, solve ratio) get wide
# bands and are warn-only: even wide bands can't make a shared runner
# deterministic, and a hard timing gate turns runner noise into flaky
# CI.  Clause reduction is deterministic for a fixed encoding, so it
# is the hard gate — tight band plus the >= 20% acceptance floor.
GATES = [
    Gate("batch", "speedup", True, rel_tol=0.65, floor=1.5, hard=False),
    Gate("obs", "overhead_pct", False, abs_tol=15.0, ceiling=25.0, hard=False),
    # Ledger recording and run-over-run comparison are deterministic
    # (count-based metrics, fixed workload): hard floors, no band.
    Gate("obs", "history_compare_identical", True, floor=1.0),
    Gate("obs", "history_compare_seeded", True, floor=1.0),
    Gate("obs", "ledger_runs", True, floor=3.0),
    # Family count shifts when instrumentation is added/removed; only
    # a collapse to (near) nothing means the exposition broke.
    Gate("obs", "prom_families", True, rel_tol=0.5, floor=1.0),
    Gate("preprocess", "clause_reduction_pct", True, abs_tol=2.0, floor=20.0),
    Gate("preprocess", "solve_ratio", True, rel_tol=0.5, hard=False),
    # SAT-core differential identity is exact for a fixed workload:
    # hard floors at 1.0, no band.
    Gate("satcore", "verdict_match", True, floor=1.0),
    Gate("satcore", "counter_match", True, floor=1.0),
    Gate("satcore", "props_per_sec", True, rel_tol=0.5, hard=False),
    Gate("satcore", "solve_ratio", True, rel_tol=0.5, hard=False),
    # Differential verification: verdict identity with full re-solving,
    # the exact expected re-verify set, and the seeded flip are all
    # deterministic — hard floors at 1.0.  The warm-cache speedup over
    # a fresh verification of the NEW tree is timing-derived: warn-only
    # above the 3x acceptance floor.
    Gate("diff", "verdict_match", True, floor=1.0),
    Gate("diff", "reverify_exact", True, floor=1.0),
    Gate("diff", "flip_match", True, floor=1.0),
    Gate("diff", "policy_verdict_match", True, floor=1.0),
    Gate("diff", "policy_reverify_exact", True, floor=1.0),
    Gate("diff", "cloud_verdict_match", True, floor=1.0),
    Gate("diff", "speedup", True, rel_tol=0.65, floor=3.0, hard=False),
    # Static-analysis dataflow: every gated count is deterministic for
    # the fixed seeded fat-tree, so the bands are zero.  Cold-clause
    # pruning must stay verdict-identical, the fixpoint must converge
    # without widening, the dataflow-tightened cones must not grow
    # back toward the structural widening, and pruning/rule power must
    # not silently regress.  Wall-clock is warn-only as usual.
    Gate("analysis", "cold_verdict_match", True, floor=1.0),
    Gate("analysis", "fixpoint_widened", False, ceiling=0.0),
    Gate("analysis", "cone_reach_fragments", False),
    Gate("analysis", "cone_reach_devices", False),
    Gate("analysis", "cone_loops_fragments", False),
    Gate("analysis", "cold_clauses_pruned", True),
    Gate("analysis", "xdf_findings", True, floor=1.0),
    Gate("analysis", "seconds", False, rel_tol=1.0, hard=False),
    # Verification-as-a-service: every correctness metric is exact for
    # the fixed workload — verdict identity between daemon paths (cold,
    # verdict-replay warm, encoding-warm, post-refresh, tiny-budget)
    # and fresh in-process solves, the exact differential re-solve set
    # after a refresh, cache-hit/eviction evidence, and strict
    # exposition parsing.  The warm-vs-cold latency ratio is the usual
    # warn-only timing gate.
    Gate("serve", "cold_verdict_match", True, floor=1.0),
    Gate("serve", "warm_verdict_match", True, floor=1.0),
    Gate("serve", "warm_replayed", True, floor=1.0),
    Gate("serve", "encoding_hit_on_warm", True, floor=1.0),
    Gate("serve", "warm_encode_skipped", True, floor=1.0),
    Gate("serve", "encoding_warm_verdict_match", True, floor=1.0),
    Gate("serve", "refresh_changed_exact", True, floor=1.0),
    Gate("serve", "refresh_replay_exact", True, floor=1.0),
    Gate("serve", "refresh_verdict_match", True, floor=1.0),
    Gate("serve", "eviction_exercised", True, floor=1.0),
    Gate("serve", "tiny_budget_verdict_match", True, floor=1.0),
    Gate("serve", "metrics_parse", True, floor=1.0),
    Gate("serve", "warm_speedup", True, rel_tol=0.65, floor=2.0, hard=False),
]

# Exact command to regenerate a bench at the baseline configuration —
# printed on a pods mismatch so the local flow (`make check` writes a
# --pods 2 BENCH_preprocess.json, the baselines are --pods 4) is
# self-repairing.
RERUN = {
    "batch": "PYTHONPATH=src:. python benchmarks/run_batch_smoke.py",
    "obs": "PYTHONPATH=src:. python benchmarks/run_obs_smoke.py --pods {pods}",
    "preprocess": (
        "PYTHONPATH=src:. python benchmarks/run_preprocess_smoke.py"
        " --pods {pods}"
    ),
    "satcore": (
        "PYTHONPATH=src:. python benchmarks/run_satcore_smoke.py --pods {pods}"
    ),
    "diff": (
        "PYTHONPATH=src:. python benchmarks/run_diff_smoke.py --pods {pods}"
    ),
    "analysis": "PYTHONPATH=src:. python benchmarks/run_analysis_smoke.py",
    "serve": (
        "PYTHONPATH=src:. python benchmarks/run_serve_smoke.py --pods {pods}"
    ),
}


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _fresh_path(bench: str) -> str:
    return os.path.join(OUT_DIR, f"BENCH_{bench}.json")


def _baseline_path(bench: str) -> str:
    return os.path.join(BASELINE_DIR, f"BENCH_{bench}.json")


def update(benches=BENCHES) -> int:
    os.makedirs(BASELINE_DIR, exist_ok=True)
    for bench in benches:
        fresh = _fresh_path(bench)
        if not os.path.exists(fresh):
            print(
                f"missing {fresh}; run the {bench} smoke first",
                file=sys.stderr,
            )
            return 1
        shutil.copyfile(fresh, _baseline_path(bench))
        print(f"rebaselined {bench} from {os.path.basename(fresh)}")
    return 0


def compare(benches=BENCHES) -> int:
    failures = 0
    warnings = 0
    mismatched = set()
    rows = []
    for gate in GATES:
        if gate.bench not in benches:
            continue
        fresh_doc = _load(_fresh_path(gate.bench))
        base_doc = _load(_baseline_path(gate.bench))
        if fresh_doc.get("pods") != base_doc.get("pods"):
            if gate.bench not in mismatched:
                mismatched.add(gate.bench)
                cmd = RERUN[gate.bench].format(pods=base_doc.get("pods"))
                print(
                    f"{gate.bench}: fresh pods={fresh_doc.get('pods')} vs "
                    f"baseline pods={base_doc.get('pods')} — rerun the "
                    f"smoke at the baseline configuration:\n    {cmd}",
                    file=sys.stderr,
                )
                failures += 1
            continue
        fresh = float(fresh_doc[gate.metric])
        baseline = float(base_doc[gate.metric])
        ok = gate.passes(fresh, baseline)
        if ok:
            status = "ok  "
        elif gate.hard:
            status = "FAIL"
            failures += 1
        else:
            status = "warn"
            warnings += 1
        direction = ">=" if gate.higher_better else "<="
        rows.append(
            (
                status,
                f"{gate.bench}.{gate.metric}",
                f"{fresh:.2f}",
                f"{direction} {gate.allowed(baseline):.2f}",
                f"(baseline {baseline:.2f})",
            )
        )
    width = max(len(row[1]) for row in rows) if rows else 0
    for status, name, fresh, bound, base in rows:
        print(f"{status}  {name:<{width}}  {fresh:>8}  {bound:<12} {base}")
    if warnings:
        print(
            f"{warnings} timing gate(s) out of band (warn-only: likely "
            "runner noise; rerun locally if a real regression is "
            "suspected)",
            file=sys.stderr,
        )
    if failures:
        print(
            f"{failures} bench gate(s) failed — if intentional, rerun "
            "the smokes and rebaseline with --update",
            file=sys.stderr,
        )
        return 1
    print("bench gates OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy fresh BENCH_*.json over the committed baselines",
    )
    parser.add_argument(
        "--benches",
        default=None,
        metavar="A,B",
        help="only gate (or rebaseline) these benches — lets split CI "
        "jobs each compare the BENCH files they actually produced "
        f"(default: all of {','.join(BENCHES)})",
    )
    args = parser.parse_args(argv)
    if args.benches is None:
        benches = BENCHES
    else:
        benches = tuple(b.strip() for b in args.benches.split(",") if b)
        unknown = [b for b in benches if b not in BENCHES]
        if unknown:
            parser.error(f"unknown bench(es): {', '.join(unknown)}")
    return update(benches) if args.update else compare(benches)


if __name__ == "__main__":
    sys.exit(main())
