"""CLI surface of the service layer: serve, submit, store, fuzz --store."""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.isa.assembly import format_module
from repro.service.client import TuningClient
from repro.service.store import TuningRecord, TuningStore
from tests.helpers import loop_kernel


@pytest.fixture()
def fat_binary(tmp_path):
    asm = tmp_path / "kernel.oras"
    asm.write_text(format_module(loop_kernel()))
    out = tmp_path / "fat.bin"
    assert main(
        [
            "compile",
            str(asm),
            "-o",
            str(out),
            "--block-size",
            "128",
            "--max-versions",
            "4",
        ]
    ) == 0
    return out


def seeded_store(path, keys=("a", "b")) -> TuningStore:
    store = TuningStore(path)
    for key in keys:
        store.put(
            TuningRecord(
                key=key,
                kernel="fp-" + key,
                kernel_name="k",
                arch="gtx680",
                backend="timing",
                winner_label="original",
                winner_warps=32,
                occupancy=0.5,
                total_cycles=100,
            )
        )
    return store


class TestStoreCommands:
    def test_stats(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        seeded_store(path)
        assert main(["store", str(path), "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["schema_version"] == 1

    def test_export_to_file_and_stdout(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        seeded_store(path)
        out = tmp_path / "dump.json"
        assert main(["store", str(path), "export", "-o", str(out)]) == 0
        assert [r["key"] for r in json.loads(out.read_text())] == ["a", "b"]
        capsys.readouterr()
        assert main(["store", str(path), "export"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["key"] == "a"

    def test_gc_compacts(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        store = seeded_store(path)
        for _ in range(5):
            store.get("a")
        assert main(["store", str(path), "gc"]) == 0
        assert "2 live record(s)" in capsys.readouterr().out
        assert len(path.read_text().splitlines()) == 3  # header + 2 puts


class TestServeSubmit:
    def test_cold_then_warm_submit_round_trip(
        self, tmp_path, fat_binary, capsys
    ):
        store_path = tmp_path / "s.jsonl"
        port_file = tmp_path / "port"
        serve = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--store",
                    str(store_path),
                    "--port-file",
                    str(port_file),
                ],
            ),
            daemon=True,
        )
        serve.start()
        deadline = time.monotonic() + 15
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "daemon never wrote its port file"
        try:
            submit = [
                "submit",
                str(fat_binary),
                "--port-file",
                str(port_file),
                "--grid",
                "16",
                "--iterations",
                "6",
                "--max-events",
                "2000",
            ]
            assert main(submit) == 0
            cold = capsys.readouterr().out
            assert "source: tuned" in cold
            assert main(submit) == 0
            warm = capsys.readouterr().out
            assert "source: store" in warm
            assert main(submit + ["--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["source"] == "store"
            assert payload["record"]["winner_label"]
        finally:
            with TuningClient(port_file=port_file) as client:
                client.shutdown()
            serve.join(timeout=15)
        assert not serve.is_alive()
        assert len(TuningStore(store_path)) == 1

    def test_traced_serve_submit_merge_round_trip(
        self, tmp_path, fat_binary, capsys
    ):
        """The full distributed-tracing loop, driven via the CLI only:
        a traced daemon, a traced submit, one merged timeline."""
        store_path = tmp_path / "s.jsonl"
        port_file = tmp_path / "port"
        daemon_trace = tmp_path / "daemon.trace.jsonl"
        daemon_log = tmp_path / "daemon.log.jsonl"
        client_trace = tmp_path / "client.trace.jsonl"
        serve = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--store", str(store_path),
                    "--port-file", str(port_file),
                    "--trace", str(daemon_trace),
                    "--log-file", str(daemon_log),
                ],
            ),
            daemon=True,
        )
        serve.start()
        deadline = time.monotonic() + 15
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert port_file.exists(), "daemon never wrote its port file"
        try:
            assert main(
                [
                    "submit", str(fat_binary),
                    "--port-file", str(port_file),
                    "--grid", "16",
                    "--iterations", "6",
                    "--max-events", "2000",
                    "--trace", str(client_trace),
                ]
            ) == 0
        finally:
            with TuningClient(port_file=port_file) as client:
                client.shutdown()
            serve.join(timeout=15)
        capsys.readouterr()

        merged = tmp_path / "merged.json"
        assert main(
            [
                "trace", "merge",
                f"client={client_trace}", f"daemon={daemon_trace}",
                "--format", "chrome", "-o", str(merged),
            ]
        ) == 0
        out = capsys.readouterr().out
        # The client's minted trace id reached the daemon's file.
        assert "(1 cross-node)" in out
        document = json.loads(merged.read_text())
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert names == {"client", "daemon"}
        # The structured log recorded the daemon lifecycle.
        log = [
            json.loads(line)
            for line in daemon_log.read_text().splitlines()
        ]
        events = [record["event"] for record in log]
        assert "daemon_listening" in events
        assert "daemon_stopped" in events

    def test_submit_degrades_without_a_daemon(
        self, tmp_path, fat_binary, capsys
    ):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        code = main(
            [
                "submit",
                str(fat_binary),
                "--port",
                str(dead_port),
                "--grid",
                "16",
                "--iterations",
                "6",
                "--max-events",
                "2000",
                "--retries",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "source: local" in out
        assert "degraded to local tuning" in out

    def test_submit_no_fallback_errors(self, tmp_path, fat_binary, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        code = main(
            [
                "submit",
                str(fat_binary),
                "--port",
                str(dead_port),
                "--retries",
                "0",
                "--no-fallback",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRingCli:
    @staticmethod
    def _free_ports(count):
        import socket

        sockets = [socket.socket() for _ in range(count)]
        try:
            for sock in sockets:
                sock.bind(("127.0.0.1", 0))
            return [sock.getsockname()[1] for sock in sockets]
        finally:
            for sock in sockets:
                sock.close()

    def test_serve_ring_requires_identity(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--store",
                str(tmp_path / "s.jsonl"),
                "--ring",
                "127.0.0.1:1,127.0.0.1:2",
            ]
        )
        assert code == 1
        assert "--node-id" in capsys.readouterr().err

    def test_submit_and_loadtest_across_a_cli_ring(
        self, tmp_path, fat_binary, capsys
    ):
        ports = self._free_ports(2)
        ring = ",".join(f"127.0.0.1:{port}" for port in ports)
        threads = []
        for port in ports:
            thread = threading.Thread(
                target=main,
                args=(
                    [
                        "serve",
                        "--store",
                        str(tmp_path / f"store-{port}.jsonl"),
                        "--port",
                        str(port),
                        "--ring",
                        ring,
                    ],
                ),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        deadline = time.monotonic() + 15
        ready = set()
        while len(ready) < len(ports) and time.monotonic() < deadline:
            for port in ports:
                if port in ready:
                    continue
                try:
                    with TuningClient(port=port, retries=0) as client:
                        client.ping()
                    ready.add(port)
                except OSError:
                    pass
            time.sleep(0.02)
        assert len(ready) == len(ports), "ring daemons never came up"
        try:
            submit = [
                "submit",
                str(fat_binary),
                "--ring",
                ring,
                "--grid",
                "16",
                "--iterations",
                "6",
                "--max-events",
                "2000",
            ]
            assert main(submit) == 0
            assert "source: tuned" in capsys.readouterr().out
            assert (
                main(
                    [
                        "loadtest",
                        str(fat_binary),
                        "--ring",
                        ring,
                        "--requests",
                        "12",
                        "--clients",
                        "3",
                        "--grid",
                        "16",
                        "--iterations",
                        "6",
                        "--max-events",
                        "2000",
                        "--json",
                    ]
                )
                == 0
            )
            summary = json.loads(capsys.readouterr().out)
            assert summary["ok"] == 12
            assert summary["dropped"] == 0
            assert summary["p99_ms"] > 0
            assert summary["sources"].get("store", 0) >= 11
        finally:
            for port in ports:
                try:
                    with TuningClient(port=port, retries=0) as client:
                        client.shutdown()
                except OSError:
                    pass
            for thread in threads:
                thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)


class TestFuzzStoreFlag:
    def test_fuzz_with_store(self, tmp_path, capsys):
        path = tmp_path / "fuzz.jsonl"
        code = main(
            [
                "fuzz",
                "--cases",
                "2",
                "--shape",
                "straight",
                "--quiet",
                "--store",
                str(path),
            ]
        )
        assert code == 0
        assert len(TuningStore(path)) == 2
