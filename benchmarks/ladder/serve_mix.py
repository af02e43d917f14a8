"""The serve-mix workload: a ``repro serve`` daemon under a closed loop.

Two client threads (one per core), each with its own tenant and one
keep-alive ``http.client`` connection, send their seeded operation
sequences (see :func:`draws.serve_ops`) until ``seconds`` have passed.
Both tenants hold the same two snapshots: the pods-2 fat-tree ``ft``,
which ``refresh`` toggles between revision A and revision B (one rack
renumbered), and ``cloud``, a seeded 5-router corpus network.

The daemon is ``python -m repro serve`` itself.  A traced run starts it
through ``traced_serve.py``, which runs the same CLI entry point and
writes the server's spans out at shutdown.  Counters come from
``/metrics`` scraped before and after the timed phase; peak memory is
the daemon's ``VmHWM``, read before it is stopped.

Known answers come after the timed phase, outside every timing: each
distinct (snapshot, revision, query) a client saw is verified again
in-process by a fresh ``Verifier.verify_batch`` with no verdict or
encoding cache, and every verdict the daemon returned for it must
match.  This checks the serve, cache and replay layers.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro import Verifier, VerificationResult, network_from_texts
from repro.gen import build_cloud_network, build_fattree
from repro.obs.promexport import parse_exposition
from repro.serve.schemas import parse_queries

from . import draws
from .measure import Run, counter_delta, counters_from_exposition

CLIENTS = 2
#: A set-up takes about 15 s (the warm-up encodes every group); two
#: keep a run near a minute.
SETUP_REPS = 2
REQUEST_TIMEOUT = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


class Client:
    """One tenant's keep-alive connection to the daemon."""

    def __init__(self, port: int, tenant: str) -> None:
        self.port = port
        self.tenant = tenant
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)

    def call(self, method: str, path: str, body=None):
        """``(status, parsed JSON or text)``; reconnects after a
        transport error so the next call starts on a clean socket."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"X-Repro-Tenant": self.tenant,
                   "Content-Type": "application/json"}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self.conn = self._connect()
            raise
        if response.headers.get("Content-Type", "").startswith(
                "application/json"):
            return response.status, json.loads(payload)
        return response.status, payload.decode()

    def close(self) -> None:
        self.conn.close()


class Daemon:
    """A running ``repro serve --port 0`` subprocess."""

    def __init__(self, root: str, workdir: str, trace: bool) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.spans_path = os.path.join(workdir, "spans.json")
        serve = ["serve", "--port", "0",
                 "--ledger", os.path.join(workdir, "daemon.ledger.sqlite")]
        if trace:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                    self.spans_path] + serve
        else:
            argv = [sys.executable, "-m", "repro"] + serve
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.stderr = open(os.path.join(workdir, "daemon.stderr"), "w")
        self.proc = subprocess.Popen(argv, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        line = self.proc.stdout.readline().strip()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon failed to start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def stop(self) -> Optional[Dict]:
        """SIGINT, wait, and return the spans a traced daemon wrote."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()
        if not os.path.exists(self.spans_path):
            return None
        with open(self.spans_path) as handle:
            return json.load(handle)


def serve_inputs(seed: int):
    """Snapshot texts (ft A/B, cloud) and the query pool."""
    tree = build_fattree(2)
    ft_a = draws.render(tree.network)
    edited = tree.tors[0]
    ft_b = draws.renumber_rack(ft_a, edited, tree.tor_subnet(edited),
                               draws.DARK_PREFIX)
    cloud = build_cloud_network(draws.draw_serve_cloud(seed))
    racks = cloud.roles["tor"] or cloud.roles["core"]
    cloud_prefixes = cloud.management_prefixes + [
        f"10.{cloud.index % 120}.{i}.0/24" for i in range(len(racks))]
    pool = (draws.query_pool("ft", tree.network.router_names(),
                             [tree.tor_subnet(t) for t in tree.tors]
                             + [draws.DARK_PREFIX])
            + draws.query_pool("cloud", cloud.network.router_names(),
                               cloud_prefixes))
    texts = {("ft", "A"): ft_a, ("ft", "B"): ft_b,
             ("cloud", "-"): draws.render(cloud.network)}
    return texts, pool


def warmup_batch(pool, snapshot: str) -> List[Dict]:
    """The first query of every (prefix, k) group of one snapshot."""
    leaders: Dict[tuple, Dict] = {}
    for name, spec in pool:
        if name == snapshot:
            leaders.setdefault((spec["dest_prefix"], spec["max_failures"]),
                               spec)
    return list(leaders.values())


def _start(root: str, workdir: str, trace: bool, texts, pool) -> Daemon:
    """One set-up: start the daemon, ingest both snapshots for every
    tenant, and send one warm-up request per snapshot.

    The warm-up is a ``/verify-batch`` with one query per (prefix, k)
    group, so every group encoding is built before the timed phase, as
    a daemon that has served a while has them.  The timed phase then
    measures serving rather than a daemon still filling its cache, and
    the daemon's peak memory no longer depends on how far a run got.
    """
    daemon = Daemon(root, workdir, trace)
    try:
        for client in range(CLIENTS):
            api = Client(daemon.port, f"tenant{client}")
            for snapshot, revision in (("ft", "A"), ("cloud", "-")):
                status, _ = api.call("POST", "/v1/snapshots", {
                    "configs": texts[(snapshot, revision)],
                    "name": snapshot})
                if status != 201:
                    raise RuntimeError(f"ingest {snapshot}: HTTP {status}")
                status, _ = api.call(
                    "POST", f"/v1/snapshots/{snapshot}/verify-batch",
                    {"queries": warmup_batch(pool, snapshot)})
                if status != 200:
                    raise RuntimeError(f"warm-up {snapshot}: HTTP {status}")
            api.close()
    except Exception:
        daemon.stop()
        raise
    return daemon


def _scrape(port: int) -> Dict[str, float]:
    api = Client(port, "tenant0")
    try:
        status, text = api.call("GET", "/metrics")
    finally:
        api.close()
    if status != 200:
        raise RuntimeError(f"/metrics: HTTP {status}")
    return counters_from_exposition(parse_exposition(text))


def _client_loop(client: int, port: int, seed: int, pool, texts,
                 deadline: float, log: List[Dict]) -> None:
    """Closed loop: send the next operation only after the previous
    answer arrived, until the deadline passes."""
    api = Client(port, f"tenant{client}")
    revision = "A"
    refreshed = False
    try:
        for kind, snapshot, indices in draws.serve_ops(seed, client, pool):
            if kind == "refresh":
                target = "B" if revision == "A" else "A"
                path, body = "/v1/snapshots/ft/refresh", {
                    "configs": texts[("ft", target)]}
            elif kind == "verify":
                path = f"/v1/snapshots/{snapshot}/verify"
                body = pool[indices[0]][1]
            else:
                path = f"/v1/snapshots/{snapshot}/verify-batch"
                body = {"queries": [pool[i][1] for i in indices]}
            entry = {"kind": kind, "snapshot": snapshot,
                     "indices": indices,
                     "revision": revision if snapshot == "ft" else "-",
                     "post_refresh": refreshed and snapshot == "ft"
                     and kind != "refresh"}
            began = time.perf_counter()
            try:
                status, doc = api.call("POST", path, body)
            except (OSError, http.client.HTTPException) as exc:
                entry.update(status=None, error=repr(exc))
            else:
                entry.update(status=status, doc=doc)
            entry["seconds"] = time.perf_counter() - began
            entry["end"] = time.time()
            log.append(entry)
            if entry["status"] == 200:
                if kind == "refresh":
                    revision, refreshed = target, True
                elif entry["post_refresh"]:
                    refreshed = False
            if time.perf_counter() >= deadline:
                break
    finally:
        api.close()


def serve_mix(seed: int, seconds: float, trace: bool, root: str,
              workdir: str) -> Run:
    run = Run("serve-mix", seed, trace)
    shutil.rmtree(workdir, ignore_errors=True)
    daemons: List[Daemon] = []
    try:
        times = []
        for _ in range(SETUP_REPS):
            if daemons:
                daemons.pop().stop()
            began = time.perf_counter()
            texts, pool = serve_inputs(seed)
            daemons.append(_start(root, workdir, trace, texts, pool))
            times.append(time.perf_counter() - began)
        run.setup_s = statistics.median(times)
        daemon = daemons[0]
        before = _scrape(daemon.port)
        logs: List[List[Dict]] = [[] for _ in range(CLIENTS)]
        wall_start = time.time()
        start = time.perf_counter()
        threads = [threading.Thread(
            target=_client_loop,
            args=(c, daemon.port, seed, pool, texts, start + seconds,
                  logs[c]), name=f"client{c}") for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + REQUEST_TIMEOUT + 10)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve-mix client did not finish")
        run.wall_s = time.perf_counter() - start
        wall_end = max((e["end"] for log in logs for e in log),
                       default=wall_start)
        run.client_s = sum(log[-1]["end"] - wall_start
                           for log in logs if log)
        run.counters = counter_delta(_scrape(daemon.port), before)
        run.peak_rss_mb = daemon.peak_rss_mb()
        export = daemons.pop().stop()
    finally:
        for daemon in daemons:
            daemon.stop()
    if export is not None:
        run.spans = _window(export, wall_start, wall_end)
    _account(run, logs, pool)
    _check(run, logs, pool, texts)
    shutil.rmtree(workdir, ignore_errors=True)
    return run


def _window(export: Dict, wall_start: float, wall_end: float) -> List[Dict]:
    """The daemon's spans that ran inside the timed phase."""
    offset = export["wall_t0"]
    return [s for s in export["spans"]
            if offset + s["start"] >= wall_start
            and offset + s["start"] + s["duration"] <= wall_end + 0.01]


def _account(run: Run, logs: List[List[Dict]], pool) -> None:
    """Latencies, failures, per-result fields and serve-layer splits."""
    client_wait = handle = encode = solve = 0.0
    post_refresh, refreshes = [], []
    for client, log in enumerate(logs):
        for number, entry in enumerate(log):
            run.attempted += 1
            if entry["status"] != 200:
                run.failed += 1
                run.problems.append(
                    f"client {client} op {number} {entry['kind']}: "
                    f"{entry.get('status')} {entry.get('error', '')}")
                continue
            if entry["kind"] == "refresh":
                refreshes.append(entry["seconds"])
                continue
            run.latencies.append(entry["seconds"])
            doc = entry["doc"]
            if not all(result["cached"] for result in doc["results"]):
                run.fresh_latencies.append(entry["seconds"])
            if entry["post_refresh"]:
                post_refresh.append(entry["seconds"])
            server = doc["stats"]["seconds"]
            client_wait += entry["seconds"] - server
            handle += server - sum(r["seconds"] for r in doc["results"])
            for index, result in zip(entry["indices"], doc["results"]):
                encode += result["encode_seconds"]
                solve += result["solve_seconds"]
                run.answered += 1
                run.solved += not result["cached"]
                run.unknown += result["holds"] is None
                run.results.append(VerificationResult(
                    property_name=(f"{client}.{number}:{entry['snapshot']}"
                                   f"@{entry['revision']}:"
                                   f"{draws.spec_key(pool[index][1])}"),
                    holds=result["holds"], cached=result["cached"],
                    seconds=result["seconds"],
                    encode_seconds=result["encode_seconds"],
                    solve_seconds=result["solve_seconds"],
                    num_variables=result["num_variables"],
                    num_clauses=result["num_clauses"],
                    conflicts=result["conflicts"],
                    message=result["message"]))
    run.extra["serve.client_wait_s"] = (client_wait, "s")
    run.extra["serve.handle_s"] = (handle, "s")
    run.extra["serve.encode_s"] = (encode, "s")
    run.extra["serve.solve_s"] = (solve, "s")
    run.extra["refresh_samples"] = (len(refreshes), "count")
    if post_refresh:
        run.extra["post_refresh_p50_s"] = (
            statistics.median(post_refresh), "s")
        run.extra["post_refresh_samples"] = (len(post_refresh), "count")


def _check(run: Run, logs: List[List[Dict]], pool, texts) -> None:
    """Compare every verdict with a cache-free in-process answer."""
    seen: Dict[tuple, Dict[int, List]] = defaultdict(dict)
    for log in logs:
        for entry in log:
            if entry["status"] != 200 or entry["kind"] == "refresh":
                continue
            key = (entry["snapshot"], entry["revision"])
            for index, result in zip(entry["indices"],
                                     entry["doc"]["results"]):
                seen[key].setdefault(index, []).append(result["holds"])
    for key, verdicts in sorted(seen.items()):
        indices = sorted(verdicts)
        verifier = Verifier(network_from_texts(texts[key]), preflight=False)
        queries = parse_queries({"queries": [pool[i][1] for i in indices]},
                                batch=True)
        for index, fresh in zip(indices, verifier.verify_batch(queries)):
            for holds in verdicts[index]:
                if holds is None:
                    continue
                run.checks += 1
                if holds != fresh.holds:
                    run.wrong += 1
                    run.problems.append(
                        f"{key[0]}@{key[1]} "
                        f"{draws.spec_key(pool[index][1])}: served "
                        f"{holds}, fresh {fresh.holds}")
