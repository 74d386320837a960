"""HTTP sidecar tests: /metrics and /healthz next to a real daemon."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.service.daemon import DaemonConfig
from repro.service.store import TuningStore
from tests.service.test_daemon import DaemonHarness


@pytest.fixture()
def http_daemon(tmp_path):
    store = TuningStore(tmp_path / "s.jsonl")
    with DaemonHarness(store, DaemonConfig(http_port=0)) as harness:
        assert harness.daemon.http_port
        yield harness


def _get(harness, path: str):
    url = f"http://127.0.0.1:{harness.daemon.http_port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read()


class TestHttpAdmin:
    def test_metrics_is_prometheus_text(self, http_daemon):
        http_daemon.client().ping()  # generate at least one sample
        status, headers, body = _get(http_daemon, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE orion_daemon_requests_total counter" in text
        assert 'orion_daemon_requests_total{' in text

    def test_healthz_reports_ok_json(self, http_daemon):
        status, headers, body = _get(http_daemon, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        health = json.loads(body)
        assert health["ok"] is True
        assert health["draining"] is False
        assert health["store_entries"] == 0
        assert health["pending"] == 0

    def test_unknown_path_is_404(self, http_daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(http_daemon, "/nope")
        with excinfo.value as error:  # it holds the open response
            assert error.code == 404

    def test_non_get_is_405(self, http_daemon):
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_daemon.daemon.http_port}/metrics",
            data=b"x",  # makes it a POST
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 405

    def test_malformed_request_line_is_400(self, http_daemon):
        with socket.create_connection(
            ("127.0.0.1", http_daemon.daemon.http_port), timeout=10
        ) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    def test_http_off_by_default(self, tmp_path):
        store = TuningStore(tmp_path / "s2.jsonl")
        with DaemonHarness(store) as harness:
            assert harness.daemon.http_port is None
            assert harness.daemon.http is None

    def test_every_response_carries_a_date_header(self, http_daemon):
        for path in ("/metrics", "/healthz", "/debug/requests"):
            _, headers, _ = _get(http_daemon, path)
            # RFC-style IMF-fixdate, always GMT.
            assert headers["Date"].endswith(" GMT")

    def test_head_matches_get_headers_with_empty_body(self, http_daemon):
        http_daemon.client().ping()
        get_status, get_headers, get_body = _get(http_daemon, "/metrics")
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_daemon.daemon.http_port}/metrics",
            method="HEAD",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == get_status
            assert response.read() == b""
            # Content-Length still describes the GET body (RFC 9110).
            assert int(response.headers["Content-Length"]) == len(get_body)
            assert (
                response.headers["Content-Type"]
                == get_headers["Content-Type"]
            )

    def test_head_on_404_is_empty_too(self, http_daemon):
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_daemon.daemon.http_port}/nope",
            method="HEAD",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 404
            assert error.read() == b""
            assert int(error.headers["Content-Length"]) > 0


class TestCliScrape:
    def test_metrics_url_scrapes_a_live_daemon(self, http_daemon, capsys):
        from repro.cli import main

        http_daemon.client().ping()
        code = main(
            ["metrics", "--url",
             f"127.0.0.1:{http_daemon.daemon.http_port}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE orion_daemon_requests_total counter" in out


class TestDebugEndpoints:
    def test_debug_requests_reflects_recent_traffic(self, http_daemon):
        http_daemon.client().ping()
        http_daemon.client().query("ab" * 32)
        status, headers, body = _get(http_daemon, "/debug/requests")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["capacity"] == 128
        assert doc["total"] >= 2
        by_type = {entry["type"]: entry for entry in doc["entries"]}
        assert by_type["ping"]["outcome"] == "ok"
        assert by_type["query"]["outcome"] == "miss"
        for entry in doc["entries"]:
            assert isinstance(entry["ms"], float)
            assert entry["n"] >= 1

    def test_debug_vars_bundles_health_and_metrics(self, http_daemon):
        http_daemon.client().ping()
        _, _, body = _get(http_daemon, "/debug/vars")
        doc = json.loads(body)
        assert doc["health"]["ok"] is True
        names = {m["name"] for m in doc["metrics"]}
        assert "orion_daemon_requests_total" in names

    def test_debug_trace_404_when_untraced(self, http_daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(http_daemon, "/debug/trace")
        with excinfo.value as error:
            assert error.code == 404

    def test_debug_trace_serves_the_flushed_trace_file(self, tmp_path):
        store = TuningStore(tmp_path / "s3.jsonl")
        with DaemonHarness(
            store,
            DaemonConfig(http_port=0),
            trace_file=tmp_path / "daemon.trace.jsonl",
        ) as harness:
            harness.client().ping()
            _, headers, body = _get(harness, "/debug/trace")
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [
            json.loads(line) for line in body.decode("utf-8").splitlines()
        ]
        assert any(
            e["data"].get("name") == "daemon_request" for e in events
        )
        # A traced daemon mints ids even for untraced clients.
        assert any(
            isinstance(e["data"].get("trace"), str) for e in events
        )
