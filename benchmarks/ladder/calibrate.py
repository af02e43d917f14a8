"""Run the ladder over many seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed (one run at a time)
and prints, for every metric the runs print, the median over seeds and
the spread: the interquartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.  This is how
the regression bounds in ``BENCHMARK.json`` were chosen, and which
metrics were left out of its end-to-end list.

Usage, from the root of a checkout::

    python3 benchmarks/ladder/calibrate.py --seeds 10 --first-seed 100 \\
        [--workload fattree-k4 ...] [--trace 0] [--out FILE.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("fattree-k4", "cloud-audit", "serve-mix")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """Every metric one run printed, ``{name: {"value", "unit"}}``."""
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    metrics = {}
    for line in lines[:-1]:
        _, name, value, unit = line.split()
        metrics[name] = {"value": float(value), "unit": unit}
    metrics.update(json.loads(lines[-1])["metrics"])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="also write every run's metrics here (JSON)")
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {}
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in seeds]
        results[workload] = runs
        for name in runs[0]:
            values = [r[name]["value"] for r in runs if name in r]
            unit = runs[0][name]["unit"]
            median = statistics.median(values)
            shown = (f"spread {spread(values):.3f}" if median and
                     len(values) > 1 else "")
            if len(values) < len(runs):
                shown += f" ({len(values)} of {len(runs)} runs)"
            print(f"{workload} {name} median {median:.6g} {unit} {shown}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
