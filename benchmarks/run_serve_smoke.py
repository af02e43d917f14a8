"""Serve-daemon smoke check for `make check` / CI.

Boots the real ``repro serve`` daemon as a subprocess and drives the
whole verification-as-a-service lifecycle over HTTP:

* **Cold vs fresh** — ingest a fat-tree snapshot, run per-rack
  reachability/loop queries, and compare every verdict against an
  in-process ``BatchEngine.run`` that never saw the daemon
  (``cold_verdict_match``, hard-gated at 1.0).
* **Warm verdict replay** — repeat the identical batch: every verdict
  must replay from the snapshot's verdict cache, bit-identical
  (``warm_verdict_match``, ``warm_replayed``).
* **Warm encoding reuse** — a *different* query set for the same
  destination prefixes must hit the cross-request encoding cache:
  the response's per-request stats report hits and zero misses, every
  result carries ``encode_shared_seconds == 0`` (the parse/build/
  encode phases were skipped outright), and verdicts again match a
  fresh solve (``encoding_hit_on_warm``, ``warm_encode_skipped``,
  ``encoding_warm_verdict_match``).
* **One encoding for every bound** — a batch holding a k=0 and a k=1
  query for one prefix (cached so far at k=0) must rebuild the
  snapshot's encoding once, at k=1 (``misses == 1``, visible as
  ``engine_encoding_bound_raised_total`` on ``/metrics``); a following
  k=0 ``/verify`` must hit it and return the fresh k=0 verdict
  (``bound_shared_encoding``, ``bound_verdict_match``).
* **Refresh as differential verification** — renumber one ToR's rack
  and refresh the snapshot in place: the next batch must replay every
  untouched-slice verdict and re-solve exactly the edited rack's
  reachability and loop queries (``refresh_replay_exact``), with
  verdicts matching a fresh solve of the NEW configs
  (``refresh_verdict_match``).
* **Eviction under pressure** — a second daemon with a deliberately
  tiny ``--cache-bytes`` budget serves two snapshots: its cache must
  record evictions/rejections while verdicts stay correct
  (``eviction_exercised``, ``tiny_budget_verdict_match``).
* **Exposition health** — ``/metrics`` must parse under the strict
  Prometheus parser (``metrics_parse``).

All of the above are deterministic, and each must be 1.0 or the smoke
exits non-zero: the exit code is the gate.  The warm-vs-cold latency
ratio (``warm_speedup``) is timing-derived and only reported;
performance is measured by the ladder in ``BENCHMARK.json``.

Writes the daemon's log and ledger to ``benchmarks/out/`` as CI
artifacts.  ``--pods 2`` (the default) keeps ``make check`` fast.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro import Verifier
from repro.core import BatchEngine, BatchQuery, properties as P
from repro.gen import build_fattree
from repro.lang.writer import write_config
from repro.net import ip as iplib
from repro.net import load_network
from repro.net.device import StaticRoute
from repro.obs.promexport import parse_exposition

from benchmarks.harness import out_path, print_table
from benchmarks.run_diff_smoke import rack_queries, write_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ServeClient:
    """Tiny urllib client for one daemon instance."""

    def __init__(self, port: int, tenant: str = "smoke") -> None:
        self.port = port
        self.tenant = tenant

    def call(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=data,
            method=method,
            headers={"X-Repro-Tenant": self.tenant},
        )
        with urllib.request.urlopen(request, timeout=300) as resp:
            return json.loads(resp.read())

    def text(self, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}{path}",
            timeout=60,
        ) as resp:
            return resp.read().decode()


def start_daemon(state_dir, log_path, ledger_path, cache_bytes=None):
    """Start ``repro serve`` on a free port; returns (proc, client)."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--state-dir",
        state_dir,
        "--log-json",
        log_path,
        "--ledger",
        ledger_path,
    ]
    if cache_bytes is not None:
        argv += ["--cache-bytes", str(cache_bytes)]
    env = dict(os.environ)
    paths = (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=ROOT,
    )
    line = proc.stdout.readline().strip()
    if "listening on" not in line:
        raise RuntimeError(f"daemon failed to start: {line!r}")
    client = ServeClient(int(line.rsplit(":", 1)[1]))
    deadline = time.time() + 30
    while True:
        try:
            client.call("GET", "/healthz")
            return proc, client
        except (urllib.error.URLError, OSError):
            if time.time() > deadline:
                proc.terminate()
                raise
            time.sleep(0.1)


def stop_daemon(proc):
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)


def query_spec(query):
    """The serve-API spec for one of ``rack_queries``'s BatchQuery."""
    prop = query.prop
    is_loops = type(prop).__name__ == "NoForwardingLoops"
    kind = "loops" if is_loops else "reachability"
    spec = {
        "property": kind,
        "dest_prefix": prop.dest_prefix_text,
        "label": query.label,
    }
    if kind == "reachability" and prop.sources != "all":
        spec["sources"] = list(prop.sources)
    return spec


def verdicts(results):
    return [r["holds"] for r in results]


def exact(flag):
    return 1.0 if flag else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pods", type=int, default=2)
    args = parser.parse_args()

    ft = build_fattree(args.pods)
    network = ft.network
    # A discard route for an unrelated prefix makes the core a loop
    # pivot.  Verdicts on the racks are unchanged, but the network no
    # longer fixes any of them without an encoding, so every section
    # below builds, caches and shares encodings.
    discard = StaticRoute(iplib.parse_ip("192.0.2.0"), 24, drop=True)
    network.device(ft.cores[0]).static_routes.append(discard)
    tors = ft.tors
    subnets = [(tor, ft.tor_subnet(tor)) for tor in tors]
    edited = tors[0]
    texts = {
        f"{name}.cfg": write_config(dev)
        for name, dev in network.devices.items()
    }
    queries = rack_queries(subnets)
    specs = [query_spec(q) for q in queries]

    log_path = out_path("serve_smoke.log.jsonl")
    ledger_path = out_path("serve_smoke.ledger.sqlite")
    for stale in (log_path, ledger_path):
        if os.path.exists(stale):
            os.remove(stale)

    metrics = {"pods": args.pods, "queries": len(queries)}
    with tempfile.TemporaryDirectory() as tmp:
        proc, client = start_daemon(
            os.path.join(tmp, "state"),
            log_path,
            ledger_path,
        )
        try:
            snap = client.call(
                "POST",
                "/v1/snapshots",
                {"configs": texts, "name": "prod"},
            )
            assert snap["snapshot"]["routers"] == len(network.devices)

            # Cold solve through the daemon vs a fresh in-process one.
            t0 = time.perf_counter()
            cold = client.call(
                "POST",
                "/v1/snapshots/prod/verify-batch",
                {"queries": specs},
            )
            cold_seconds = time.perf_counter() - t0
            fresh = BatchEngine(network).run(queries)
            metrics["cold_verdict_match"] = exact(
                verdicts(cold["results"]) == [r.holds for r in fresh]
            )
            metrics["cold_misses"] = cold["stats"]["misses"]

            # Identical repeat: every verdict replays, bit-identical.
            t0 = time.perf_counter()
            warm = client.call(
                "POST",
                "/v1/snapshots/prod/verify-batch",
                {"queries": specs},
            )
            warm_seconds = time.perf_counter() - t0
            metrics["warm_verdict_match"] = exact(
                verdicts(warm["results"]) == verdicts(cold["results"])
            )
            metrics["warm_replayed"] = exact(
                warm["stats"]["verdicts_replayed"] == len(queries)
                and all(r["cached"] for r in warm["results"])
            )
            metrics["warm_speedup"] = (
                cold_seconds / warm_seconds if warm_seconds > 0 else 0.0
            )

            # New queries in the same groups: the *encoding* cache must
            # carry them — per-request hits, no misses, no shared-encode
            # time — while verdicts still match a fresh solve.
            enc_specs, enc_queries = [], []
            for tor, subnet in subnets:
                source = tors[1] if tor == edited else tors[0]
                label = f"reach-{tor}-from-{source}"
                prop = P.Reachability(
                    sources=[source],
                    dest_prefix_text=subnet,
                )
                enc_queries.append(BatchQuery(prop=prop, label=label))
                spec = {
                    "property": "reachability",
                    "sources": [source],
                    "dest_prefix": subnet,
                    "label": label,
                }
                enc_specs.append(spec)
            enc = client.call(
                "POST",
                "/v1/snapshots/prod/verify-batch",
                {"queries": enc_specs},
            )
            metrics["encoding_hit_on_warm"] = exact(
                enc["stats"]["hits"] >= 1
                and enc["stats"]["misses"] == 0
                and enc["stats"]["verdicts_replayed"] == 0
            )
            skipped = all(
                r["encode_shared_seconds"] == 0.0 for r in enc["results"]
            )
            metrics["warm_encode_skipped"] = exact(skipped)
            fresh_enc = BatchEngine(network).run(enc_queries)
            metrics["encoding_warm_verdict_match"] = exact(
                verdicts(enc["results"]) == [r.holds for r in fresh_enc]
            )

            # Mixed failure bounds on one prefix share one encoding,
            # built at the larger bound; the smaller bound then hits it.
            tor, subnet = subnets[-1]
            bound_queries = [
                BatchQuery(P.NoBlackHoles(dest_prefix_text=subnet),
                           max_failures=k, label=f"holes-{tor}-k{k}")
                for k in (0, 1)
            ]
            bound_batch = client.call(
                "POST",
                "/v1/snapshots/prod/verify-batch",
                {"queries": [
                    {"property": "blackholes", "dest_prefix": subnet,
                     "max_failures": q.max_failures, "label": q.label}
                    for q in bound_queries
                ]},
            )
            core = next(name for name in network.router_names()
                        if name.startswith("core"))
            bound_query = BatchQuery(
                P.Reachability(sources=[core], dest_prefix_text=subnet),
                max_failures=0, label=f"reach-{tor}-from-{core}-k0")
            bound_one = client.call(
                "POST",
                "/v1/snapshots/prod/verify",
                {"property": "reachability", "sources": [core],
                 "dest_prefix": subnet, "max_failures": 0,
                 "label": bound_query.label},
            )
            metrics["bound_shared_encoding"] = exact(
                bound_batch["stats"]["misses"] == 1
                and bound_batch["stats"]["hits"] == 0
                and bound_one["stats"]["hits"] == 1
                and bound_one["stats"]["misses"] == 0
                and bound_one["result"]["encode_shared_seconds"] == 0.0
            )
            # Fresh per-bound solves: each builds its own encoding at k.
            fresh_bound = [
                Verifier(network, preflight=False).verify(
                    q.prop, max_failures=q.max_failures).holds
                for q in bound_queries + [bound_query]
            ]
            metrics["bound_verdict_match"] = exact(
                verdicts(bound_batch["results"] + [bound_one["result"]])
                == fresh_bound
            )

            # Refresh with a renumbered rack: differential verification
            # over HTTP.  Only the edited rack's queries may re-solve.
            # (Same edit as run_diff_smoke: rewrite the rack's octet
            # prefix so exactly one device's canonical form changes.)
            rack_net = dict(subnets)[edited].split("/")[0]
            old_rack = rack_net.rsplit(".", 1)[0] + "."
            new_dir = os.path.join(tmp, "new-tree")
            write_tree(
                network,
                new_dir,
                rename=(edited, old_rack, "10.250.0."),
            )
            new_network = load_network(new_dir)
            new_texts = {
                f"{name}.cfg": write_config(dev)
                for name, dev in new_network.devices.items()
            }
            refreshed = client.call(
                "POST",
                "/v1/snapshots/prod/refresh",
                {"configs": new_texts},
            )
            metrics["refresh_changed_exact"] = exact(
                refreshed["changes"]["changed_devices"] == [edited]
            )
            post = client.call(
                "POST",
                "/v1/snapshots/prod/verify-batch",
                {"queries": specs},
            )
            resolved = {
                q.label
                for q, r in zip(queries, post["results"])
                if not r["cached"]
            }
            metrics["refresh_replay_exact"] = exact(
                resolved == {f"reach-{edited}", f"loops-{edited}"}
            )
            fresh_post = BatchEngine(new_network).run(queries)
            metrics["refresh_verdict_match"] = exact(
                verdicts(post["results"]) == [r.holds for r in fresh_post]
            )

            # Exposition must satisfy the strict parser.
            families = parse_exposition(client.text("/metrics"))
            metrics["metrics_parse"] = exact(
                "serve_cache_hit_total" in families
            )
            metrics["bound_raise_exported"] = exact(
                "engine_encoding_bound_raised_total" in families
            )
            metrics["prom_families"] = float(len(families))
        finally:
            stop_daemon(proc)

        # Tiny byte budget: the cache must shed entries (evict or
        # reject) while the service stays verdict-correct.
        proc, client = start_daemon(
            os.path.join(tmp, "tiny-state"),
            out_path("serve_smoke_tiny.log.jsonl"),
            os.path.join(tmp, "tiny-ledger.sqlite"),
            cache_bytes=96 * 1024,
        )
        try:
            client.call(
                "POST",
                "/v1/snapshots",
                {"configs": texts, "name": "a"},
            )
            client.call(
                "POST",
                "/v1/snapshots",
                {"configs": new_texts, "name": "b"},
            )
            want = f"reach-{edited}"
            spec0 = [s for s in specs if s["label"] == want]
            tiny_a = client.call(
                "POST",
                "/v1/snapshots/a/verify-batch",
                {"queries": spec0},
            )
            tiny_b = client.call(
                "POST",
                "/v1/snapshots/b/verify-batch",
                {"queries": spec0},
            )
            health = client.call("GET", "/healthz")
            shed = (
                health["cache"]["evicted_lru"]
                + health["cache"]["evicted_ttl"]
                + health["cache"]["rejected"]
            )
            metrics["eviction_exercised"] = exact(shed >= 1)
            expect_a = [r.holds for r in fresh if r.property_name == want]
            expect_b = [
                r.holds for r in fresh_post if r.property_name == want
            ]
            metrics["tiny_budget_verdict_match"] = exact(
                verdicts(tiny_a["results"]) == expect_a
                and verdicts(tiny_b["results"]) == expect_b
            )
        finally:
            stop_daemon(proc)

    metrics["cold_seconds"] = round(cold_seconds, 4)
    metrics["warm_seconds"] = round(warm_seconds, 4)
    print_table(
        "serve smoke",
        ("metric", "value"),
        sorted((k, v) for k, v in metrics.items()),
    )

    hard = [
        "cold_verdict_match",
        "warm_verdict_match",
        "warm_replayed",
        "encoding_hit_on_warm",
        "warm_encode_skipped",
        "encoding_warm_verdict_match",
        "bound_shared_encoding",
        "bound_verdict_match",
        "bound_raise_exported",
        "refresh_changed_exact",
        "refresh_replay_exact",
        "refresh_verdict_match",
        "eviction_exercised",
        "tiny_budget_verdict_match",
        "metrics_parse",
    ]
    failed = [name for name in hard if metrics[name] != 1.0]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
