"""HTTP surface of the daemon: routing, errors, concurrency, metrics.

The server under test is a real ``ThreadingHTTPServer`` bound to an
ephemeral port with requests made through ``urllib`` — the same code
path production traffic takes, minus only the CLI wrapper.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import Verifier
from repro.net.loader import network_from_texts
from repro.obs.ledger import RunLedger
from repro.obs.promexport import parse_exposition
from repro.serve import SnapshotRegistry, TTLLRUCache, make_server
from repro.serve import server as server_mod

from tests.serve.test_registry import build_texts


@pytest.fixture()
def start_server(tmp_path):
    started = []

    def start(**kwargs):
        registry = SnapshotRegistry(cache=TTLLRUCache())
        srv = make_server("127.0.0.1", 0, registry,
                          ledger_path=str(tmp_path / "ledger.sqlite"),
                          **kwargs)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        started.append((srv, thread))
        return srv

    yield start
    for srv, thread in started:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server(start_server):
    return start_server()


def call(server, method, path, body=None, tenant="acme", raw=None):
    port = server.server_address[1]
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None)
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"X-Repro-Tenant": tenant})
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), err.headers


def reach_spec(sources=None, label=None, max_failures=None):
    return {"property": "reachability", "sources": sources,
            "dest_prefix": "10.9.0.0/24", "label": label,
            "max_failures": max_failures}


class TestLifecycle:
    def test_healthz(self, server):
        status, doc, _ = call(server, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert "cache" in doc

    def test_accepted_connections_disable_nagle(self, server, monkeypatch):
        # Keep-alive responses are written as headers then body; with
        # Nagle on, the body stalls on the client's delayed ACK.
        nodelay = []
        original = server_mod._Handler.setup

        def setup(handler):
            original(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(server_mod._Handler, "setup", setup)
        status, _, _ = call(server, "GET", "/healthz")
        assert status == 200
        assert nodelay and all(nodelay)

    def test_ingest_show_delete(self, server):
        status, doc, _ = call(server, "POST", "/v1/snapshots",
                              {"configs": build_texts(), "name": "prod"})
        assert status == 201
        sid = doc["snapshot"]["snapshot_id"]
        assert doc["snapshot"]["routers"] == 3

        for ref in ("prod", sid):
            status, doc, _ = call(server, "GET", f"/v1/snapshots/{ref}")
            assert status == 200
            assert doc["snapshot"]["snapshot_id"] == sid

        status, doc, _ = call(server, "DELETE", "/v1/snapshots/prod")
        assert status == 200
        status, _, _ = call(server, "GET", "/v1/snapshots/prod")
        assert status == 404

    def test_ingest_from_directory(self, start_server, tmp_path):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name, text in build_texts().items():
            (configs / name).write_text(text)
        server = start_server(local_dir_root=str(tmp_path))
        # Absolute path under the root and root-relative both work.
        for ref, body_dir in (("fromdir", str(configs)),
                              ("fromrel", "configs")):
            status, doc, _ = call(server, "POST", "/v1/snapshots",
                                  {"directory": body_dir, "name": ref})
            assert status == 201
            assert doc["snapshot"]["files"] == 3

    def test_directory_ingest_disabled_by_default(self, server, tmp_path):
        status, doc, _ = call(server, "POST", "/v1/snapshots",
                              {"directory": str(tmp_path),
                               "name": "fromdir"})
        assert status == 403
        assert "--allow-local-dirs" in doc["error"]

    def test_directory_escape_rejected(self, start_server, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (tmp_path / "secret.cfg").write_text("hostname LEAK")
        server = start_server(local_dir_root=str(root))
        for escape in (str(tmp_path), "../", "/etc"):
            status, doc, _ = call(server, "POST", "/v1/snapshots",
                                  {"directory": escape, "name": "evil"})
            assert status == 403
            assert "outside the allowed root" in doc["error"]

    def test_directory_symlink_out_of_root_is_not_read(self, start_server,
                                                       tmp_path):
        root = tmp_path / "root"
        (root / "configs").mkdir(parents=True)
        (tmp_path / "secret.cfg").write_text("hostname LEAK")
        (root / "configs" / "leak.cfg").symlink_to(tmp_path / "secret.cfg")
        (root / "R1.cfg").write_text("hostname R1")
        server = start_server(local_dir_root=str(root))
        for directory, error in (("configs", "no config files in configs"),
                                 ("R1.cfg", "not a directory: R1.cfg")):
            status, doc, _ = call(server, "POST", "/v1/snapshots",
                                  {"directory": directory, "name": "evil"})
            assert status == 400
            assert doc["error"] == error

    def test_tenant_listing_is_isolated(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"}, tenant="t1")
        status, doc, _ = call(server, "GET", "/v1/snapshots",
                              tenant="t2")
        assert status == 200 and doc["snapshots"] == []
        status, doc, _ = call(server, "GET", "/v1/snapshots",
                              tenant="t1")
        assert [s["name"] for s in doc["snapshots"]] == ["prod"]


class TestVerifyEndpoints:
    def test_verify_and_run_id_header(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        status, doc, headers = call(server, "POST",
                                    "/v1/snapshots/prod/verify",
                                    reach_spec())
        assert status == 200
        assert doc["result"]["holds"] is True
        # The OSPF triangle has one stable state: no encoding is built.
        assert doc["result"]["method"] == "simulation"
        assert doc["run_id"] == headers["X-Repro-Run-Id"]

        status, second, headers = call(server, "POST",
                                       "/v1/snapshots/prod/verify",
                                       reach_spec())
        assert second["result"]["cached"] is True
        assert second["result"]["method"] == "simulation"
        assert second["run_id"] != doc["run_id"]

    def test_batch_warm_encoding(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        # k=1: at k=0 the network fixes these verdicts without any
        # encoding, so there would be no encoding to warm.
        cold = {"queries": [reach_spec(label="a", max_failures=1)]}
        call(server, "POST", "/v1/snapshots/prod/verify-batch", cold)
        warm = {"queries": [reach_spec(sources=["R1"], label="b",
                                       max_failures=1),
                            reach_spec(sources=["R2"], label="c",
                                       max_failures=1)]}
        status, doc, _ = call(server, "POST",
                              "/v1/snapshots/prod/verify-batch", warm)
        assert status == 200
        assert doc["stats"]["hits"] >= 1
        assert doc["stats"]["verdicts_replayed"] == 0
        assert all(r["encode_shared_seconds"] == 0.0
                   for r in doc["results"])

    def test_refresh_roundtrip(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        status, doc, _ = call(server, "POST",
                              "/v1/snapshots/prod/refresh",
                              {"configs": build_texts("10.9.0.2/24")})
        assert status == 200
        assert doc["changes"]["changed_devices"] == ["R3"]
        assert doc["snapshot"]["refreshes"] == 1

    def test_verify_recorded_in_ledger(self, server, tmp_path):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        _, doc, _ = call(server, "POST", "/v1/snapshots/prod/verify",
                         reach_spec())
        with RunLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            runs = ledger.runs()
        assert [r["command"] for r in runs] == ["serve.verify"]
        assert runs[0]["run_id"] == doc["run_id"]
        assert runs[0]["extra"]["tenant"] == "acme"

    def test_concurrent_verifies_match_fresh_solves(self, server):
        texts = build_texts()
        call(server, "POST", "/v1/snapshots",
             {"configs": texts, "name": "prod"})
        sources = [["R1"], ["R2"], ["R3"], None]
        outcomes = {}
        errors = []

        def worker(index, source):
            try:
                status, doc, _ = call(
                    server, "POST", "/v1/snapshots/prod/verify",
                    reach_spec(sources=source, label=f"q{index}"))
                outcomes[index] = (status, doc["result"]["holds"])
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, source))
                   for i, source in enumerate(sources)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(status == 200 for status, _ in outcomes.values())

        verifier = Verifier(network_from_texts(texts), preflight=False)
        from tests.serve.test_registry import reach
        fresh = verifier.verify_batch(
            [reach(sources=source or "all") for source in sources])
        assert ([holds for _, holds in
                 (outcomes[i] for i in range(len(sources)))]
                == [r.holds for r in fresh])


class TestErrors:
    def test_malformed_json_is_400(self, server):
        status, doc, _ = call(server, "POST", "/v1/snapshots",
                              raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in doc["error"]

    def test_missing_body_is_400(self, server):
        status, _, _ = call(server, "POST", "/v1/snapshots",
                            raw=b"")
        assert status == 400

    def test_keepalive_survives_error_with_unread_body(self, server):
        # resolve() 404s before the handler reads the POST body; the
        # server must drain it or the bytes get parsed as the next
        # request on the persistent connection.
        import http.client

        port = server.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            body = json.dumps(reach_spec()).encode()
            for _ in range(2):  # two bad requests back to back
                conn.request("POST", "/v1/snapshots/ghost/verify",
                             body=body,
                             headers={"X-Repro-Tenant": "acme"})
                resp = conn.getresponse()
                assert resp.status == 404
                resp.read()
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
        finally:
            conn.close()

    def test_unknown_snapshot_is_404(self, server):
        status, doc, _ = call(server, "POST",
                              "/v1/snapshots/ghost/verify",
                              reach_spec())
        assert status == 404
        assert "ghost" in doc["error"]

    def test_unknown_route_is_404(self, server):
        status, _, _ = call(server, "GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _, _ = call(server, "DELETE", "/healthz")
        assert status == 405

    def test_invalid_tenant_is_400(self, server):
        status, doc, _ = call(server, "GET", "/v1/snapshots",
                              tenant="bad tenant!")
        assert status == 400
        assert "tenant" in doc["error"]

    def test_unknown_property_is_400(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        status, doc, _ = call(server, "POST",
                              "/v1/snapshots/prod/verify",
                              {"property": "teleportation"})
        assert status == 400
        assert "teleportation" in doc["error"]

    @pytest.mark.parametrize("spec, message", [
        ({"property": "reachability", "sources": "R1"},
         "query 0: sources must be a list of names"),
        ({"property": "bounded-length", "bound": "x"},
         "query 0: bound must be a non-negative integer"),
        ({"property": "reachability", "dest_prefix": "10.0.0.0/33"},
         "query 0: dest_prefix '10.0.0.0/33' is not a prefix A.B.C.D/len"),
        ({"property": "reachability", "sources": ["R1", "nope"]},
         "query 0: sources names no router of the snapshot: nope"),
        ({"property": "waypoint", "sources": ["R1"], "waypoints": ["R9"]},
         "query 0: waypoints names no router of the snapshot: R9"),
        ({"property": "reachability", "max_failures": True},
         "query 0: max_failures must be a non-negative integer"),
        ({"property": "reachability", "announced_by": ["nope"]},
         "query 0: announced_by names no external peer of the snapshot: "
         "nope"),
    ], ids=["sources-string", "bound-string", "prefix-length",
            "unknown-source", "unknown-waypoint", "max-failures-bool",
            "unknown-peer"])
    def test_malformed_query_spec_is_400(self, server, spec, message):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        body = dict({"dest_prefix": "10.9.0.0/24"}, **spec)
        status, doc, _ = call(server, "POST",
                              "/v1/snapshots/prod/verify", body)
        assert status == 400
        assert doc["error"] == message

    def test_ingest_requires_exactly_one_source(self, server):
        status, _, _ = call(server, "POST", "/v1/snapshots", {})
        assert status == 400
        status, _, _ = call(server, "POST", "/v1/snapshots",
                            {"configs": {"a.cfg": "hostname A"},
                             "directory": "/tmp"})
        assert status == 400


class TestMetrics:
    def test_exposition_parses_and_counts(self, server):
        call(server, "POST", "/v1/snapshots",
             {"configs": build_texts(), "name": "prod"})
        call(server, "POST", "/v1/snapshots/prod/verify", reach_spec())
        call(server, "POST", "/v1/snapshots/prod/verify", reach_spec())
        port = server.server_address[1]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30) as resp:
            text = resp.read().decode()
        families = parse_exposition(text)
        assert "serve_cache_hit_total" in families
        assert "serve_snapshots_ingested_total" in families
