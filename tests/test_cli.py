"""CLI tests (python -m repro ...)."""

import shutil
import subprocess

import pytest

from repro.cli import main
from repro.isa.assembly import format_module
from repro.isa.encoding import decode_module
from tests.helpers import call_kernel, straight_line_kernel


@pytest.fixture()
def asm_file(tmp_path):
    path = tmp_path / "kernel.oras"
    path.write_text(format_module(straight_line_kernel()))
    return path


@pytest.fixture()
def call_asm_file(tmp_path):
    path = tmp_path / "calls.oras"
    path.write_text(format_module(call_kernel()))
    return path


class TestAsmDis:
    def test_round_trip(self, asm_file, tmp_path, capsys):
        binary = tmp_path / "kernel.bin"
        assert main(["asm", str(asm_file), "-o", str(binary)]) == 0
        assert binary.read_bytes()[:4] == b"ORAS"
        out = tmp_path / "back.oras"
        assert main(["dis", str(binary), "-o", str(out)]) == 0
        assert out.read_text() == asm_file.read_text()

    def test_dis_to_stdout(self, asm_file, tmp_path, capsys):
        binary = tmp_path / "kernel.bin"
        main(["asm", str(asm_file), "-o", str(binary)])
        capsys.readouterr()
        assert main(["dis", str(binary)]) == 0
        assert ".kernel k" in capsys.readouterr().out

    def test_bad_input_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.oras"
        bad.write_text("this is not assembly")
        binary = tmp_path / "out.bin"
        assert main(["asm", str(bad), "-o", str(binary)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCompileInspect:
    def test_compile_writes_multiversion(self, call_asm_file, tmp_path, capsys):
        out = tmp_path / "fat.bin"
        code = main(
            ["compile", str(call_asm_file), "-o", str(out), "--arch", "gtx680"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "direction=" in stdout
        assert out.exists()
        code = main(["inspect", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "occupancy" in stdout and "candidate" in stdout

    def test_compile_perf_flags(self, call_asm_file, tmp_path, capsys):
        plain = tmp_path / "plain.bin"
        fast = tmp_path / "fast.bin"
        code = main(
            ["compile", str(call_asm_file), "-o", str(plain), "--no-cache"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "compile",
                str(call_asm_file),
                "-o",
                str(fast),
                "--timings",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Compilation phases" in stdout
        assert "compile cache:" in stdout
        # Neither the cache nor the timing report changes the output bytes.
        assert fast.read_bytes() == plain.read_bytes()

    def test_compile_accepts_binary_input(self, asm_file, tmp_path, capsys):
        binary = tmp_path / "kernel.bin"
        main(["asm", str(asm_file), "-o", str(binary)])
        out = tmp_path / "fat.bin"
        assert main(["compile", str(binary), "-o", str(out)]) == 0


class TestRun:
    def test_run_prints_memory(self, tmp_path, capsys):
        from repro.harness.reporting import format_table  # noqa: F401
        from tests.helpers import module_from_asm

        src = tmp_path / "store.oras"
        src.write_text(
            format_module(
                module_from_asm(
                    """
                    .module m
                    .kernel k shared=0
                    BB0:
                        S2R %v0, %tid
                        LD.param %v1, [0]
                        IADD %v2, %v0, %v1
                        SHL %v3, %v0, 2
                        ST.global [%v3], %v2
                        EXIT
                    .end
                    """
                )
            )
        )
        code = main(
            ["run", str(src), "--grid", "1", "--block-size", "4",
             "--param", "0=100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 global words written" in out
        assert "100" in out


    def test_recursive_module_is_rejected(self, tmp_path, capsys):
        src = tmp_path / "rec.oras"
        src.write_text(
            """
            .module rec
            .kernel k shared=0
            BB0:
                CALL f()
                EXIT
            .end
            .func f args=0 returns=0
            BB0:
                CALL f()
                RET
            .end
            """
        )
        assert main(["run", str(src), "--block-size", "2"]) == 1
        assert "recursive device call: k -> f -> f" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_series(self, asm_file, capsys):
        code = main(
            ["sweep", str(asm_file), "--arch", "c2075", "--grid", "16",
             "--block-size", "128", "--max-events", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized runtime" in out

    def test_sweep_analytical_backend_with_trace(self, asm_file, tmp_path, capsys):
        import json

        trace = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", str(asm_file), "--arch", "c2075", "--grid", "16",
             "--backend", "analytical", "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytical backend" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r["kind"] == "backend_invoke" for r in records)

    def test_unknown_backend_rejected(self, asm_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", str(asm_file), "--backend", "cuda"])


class TestBench:
    def test_bench_single_kernel_with_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "bench.jsonl"
        code = main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Benchmark suite on Tesla C2075" in out
        assert "gaussian" in out
        assert "Engine telemetry" in out
        assert "measurement cache:" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"engine_start", "session_start", "trial",
                "session_finalized", "engine_finish"} <= kinds
        assert all(
            r["session"] == "gaussian"
            for r in records
            if r["kind"] == "trial"
        )

    def test_bench_unknown_benchmark_errors(self, capsys):
        code = main(["bench", "--only", "nosuchkernel"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCompileVerify:
    def test_verify_flag_gates_and_reports(self, call_asm_file, tmp_path, capsys):
        out = tmp_path / "fat.bin"
        code = main(
            ["compile", str(call_asm_file), "-o", str(out),
             "--verify", "--no-cache"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "allocation-sound" in stdout
        assert out.exists()

    def test_verify_failure_is_a_cli_error(self, call_asm_file, tmp_path,
                                           capsys, monkeypatch):
        from repro.ir.verify import VerificationError, VerifyIssue
        import repro.compiler.pipeline as pipeline

        def reject(binary):
            raise VerificationError(
                [VerifyIssue("v1/k", "BB0", 0, "synthetic clobber")]
            )

        monkeypatch.setattr(pipeline, "verify_binary", reject)
        out = tmp_path / "fat.bin"
        code = main(
            ["compile", str(call_asm_file), "-o", str(out),
             "--verify", "--no-cache"]
        )
        assert code == 1
        assert "synthetic clobber" in capsys.readouterr().err


class TestFuzz:
    def test_small_clean_run(self, capsys):
        code = main(["fuzz", "--seed", "0", "--cases", "2", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzzed 2 case(s)" in out
        assert "0 failure(s)" in out

    def test_failures_set_exit_code_and_print_repro(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.fuzz import FuzzFailure, FuzzReport

        def fake_run_fuzz(**kwargs):
            return FuzzReport(
                cases=1, shape="mixed",
                failures=[FuzzFailure(3, "mixed", "verifier", "bad slot")],
                versions_checked=4,
            )

        monkeypatch.setattr("repro.fuzz.run_fuzz", fake_run_fuzz)
        code = main(["fuzz", "--seed", "3", "--cases", "1", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "repro fuzz --seed 3 --cases 1 --shape mixed" in out

    def test_trace_and_metrics_parity(self, tmp_path, capsys):
        import json

        trace = tmp_path / "fuzz.jsonl"
        code = main(
            ["fuzz", "--seed", "0", "--cases", "1", "--quiet",
             "--trace", str(trace), "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"telemetry trace -> {trace}" in out
        assert "orion_fuzz_cases_total" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert {"span_start", "span_end", "fuzz_case"} <= kinds
        case_spans = [
            r for r in records
            if r["kind"] == "span_start" and r["data"]["name"] == "fuzz_case"
        ]
        assert case_spans and case_spans[0]["data"]["seed"] == 0

    def test_failures_point_at_the_trace(self, tmp_path, capsys, monkeypatch):
        import repro.fuzz.oracle as oracle

        def broken(seed, shape, arch, trace=None, store=None,
                   strategy="local-spill"):
            return [oracle.FuzzFailure(seed, shape, "crash", "kaboom",
                                       trace=trace)], 0

        monkeypatch.setattr(oracle, "check_case", broken)
        trace = tmp_path / "fail.jsonl"
        code = main(
            ["fuzz", "--seed", "7", "--cases", "1", "--quiet",
             "--trace", str(trace)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert f"# trace: {trace}" in out


class TestBenchReport:
    def test_report_is_written_and_valid(self, tmp_path, capsys):
        from repro.obs.report import load_report, validate_bench_report

        report = tmp_path / "bench.json"
        code = main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--report", str(report)]
        )
        assert code == 0
        assert f"bench report -> {report}" in capsys.readouterr().out
        loaded = load_report(report)
        assert validate_bench_report(loaded) == []
        assert loaded["backend"] == "timing"
        assert loaded["kernels"][0]["name"] == "gaussian"
        assert "compile" in loaded["cache"]
        assert loaded["telemetry"]["event_counts"]["session_finalized"] == 1

    def test_outside_a_git_checkout_warns_and_records_null_sha(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.report import load_report, validate_bench_report

        monkeypatch.chdir(tmp_path)  # no .git anywhere up to /tmp
        report = tmp_path / "bench.json"
        code = main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--report", str(report)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "not inside a git checkout" in captured.err
        assert "git_sha=null" in captured.err
        loaded = load_report(report)
        assert loaded["git_sha"] is None
        assert validate_bench_report(loaded) == []

    def test_inside_a_git_checkout_does_not_warn(
        self, tmp_path, capsys, monkeypatch
    ):
        # A checkout of its own, so the test runs the same whether or
        # not the source tree is one.
        git = shutil.which("git")
        if git is None:
            pytest.skip("needs the git executable")
        checkout = tmp_path / "checkout"
        checkout.mkdir()
        for args in (
            ["init", "-q"],
            ["-c", "user.name=orion", "-c", "user.email=orion@localhost",
             "-c", "commit.gpgsign=false",
             "commit", "-q", "--allow-empty", "-m", "empty"],
        ):
            subprocess.run(
                [git, *args], cwd=checkout, check=True, capture_output=True
            )
        head = subprocess.run(
            [git, "rev-parse", "HEAD"], cwd=checkout, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        monkeypatch.chdir(checkout)
        report = tmp_path / "bench.json"
        code = main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--report", str(report)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "not inside a git checkout" not in captured.err
        from repro.obs.report import load_report

        assert load_report(report)["git_sha"] == head


class TestTraceTools:
    @pytest.fixture()
    def bench_trace(self, tmp_path, capsys):
        trace = tmp_path / "bench.jsonl"
        assert main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        return trace

    def test_summary(self, bench_trace, capsys):
        assert main(["trace", "summary", str(bench_trace)]) == 0
        out = capsys.readouterr().out
        assert "Events by kind" in out
        assert "Spans" in out
        assert "hit rate" in out

    def test_filter_writes_jsonl(self, bench_trace, tmp_path, capsys):
        import json

        out_file = tmp_path / "filtered.jsonl"
        code = main(
            ["trace", "filter", str(bench_trace), "--session", "gaussian",
             "--kind", "converged", "-o", str(out_file)]
        )
        assert code == 0
        records = [
            json.loads(line) for line in out_file.read_text().splitlines()
        ]
        assert records
        assert all(r["kind"] == "converged" for r in records)

    def test_diff_identical_and_divergent(self, bench_trace, tmp_path, capsys):
        assert main(
            ["trace", "diff", str(bench_trace), str(bench_trace)]
        ) == 0
        assert "identical" in capsys.readouterr().out
        truncated = tmp_path / "short.jsonl"
        lines = bench_trace.read_text().splitlines()
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        assert main(
            ["trace", "diff", str(bench_trace), str(truncated)]
        ) == 1
        assert "lengths differ" in capsys.readouterr().out

    def test_export_chrome(self, bench_trace, tmp_path, capsys):
        import json

        out_file = tmp_path / "chrome.json"
        code = main(
            ["trace", "export", str(bench_trace), "--format", "chrome",
             "-o", str(out_file)]
        )
        assert code == 0
        document = json.loads(out_file.read_text())
        assert document["traceEvents"]
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in document["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) > 0


class TestTraceMerge:
    @staticmethod
    def _write_node(path, name, seq0, trace=None, parent_span=None):
        import json

        data = {"name": name, "span": 1, "parent": None, "type": "tune"}
        if trace:
            data["trace"] = trace
        if parent_span is not None:
            data["parent_span"] = parent_span
        lines = [
            {"seq": seq0, "kind": "span_start", "session": None,
             "data": dict(data)},
            {"seq": seq0 + 1, "kind": "span_end", "session": None,
             "data": {**data, "status": "ok"}},
        ]
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        return path

    @pytest.fixture()
    def node_traces(self, tmp_path):
        tid = "ab" * 8
        client = self._write_node(
            tmp_path / "client.jsonl", "client_request", 5, trace=tid
        )
        daemon = self._write_node(
            tmp_path / "daemon.jsonl", "daemon_request", 1, trace=tid,
            parent_span=1,
        )
        return client, daemon

    def test_merge_writes_one_chrome_timeline(
        self, node_traces, tmp_path, capsys
    ):
        import json

        client, daemon = node_traces
        out_file = tmp_path / "merged.json"
        code = main(
            ["trace", "merge", str(client), str(daemon),
             "--format", "chrome", "-o", str(out_file)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "2 node(s)" in stdout and "1 cross-node" in stdout
        document = json.loads(out_file.read_text())
        processes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert processes == {"client", "daemon"}

    def test_merge_jsonl_annotates_node_and_ts(
        self, node_traces, capsys
    ):
        import json

        client, daemon = node_traces
        assert main(
            ["trace", "merge", str(client), str(daemon),
             "--format", "jsonl"]
        ) == 0
        stdout = capsys.readouterr().out
        events = [
            json.loads(line)
            for line in stdout.splitlines()
            if line.startswith("{")
        ]
        assert {e["node"] for e in events} == {"client", "daemon"}
        assert all("ts" in e for e in events)

    def test_merge_accepts_label_specs(self, node_traces, capsys):
        client, daemon = node_traces
        assert main(
            ["trace", "merge", f"a={client}", f"b={daemon}",
             "--format", "jsonl"]
        ) == 0
        assert '"node": "a"' in capsys.readouterr().out

    def test_merge_rejects_duplicate_labels(self, node_traces, capsys):
        client, _ = node_traces
        assert main(["trace", "merge", f"x={client}", f"x={client}"]) == 1
        assert "duplicate node label" in capsys.readouterr().err

    def test_merge_needs_at_least_one_trace(self, capsys):
        assert main(["trace", "merge"]) == 1
        assert "no traces to merge" in capsys.readouterr().err

    def test_slow_ranks_merged_requests(self, node_traces, capsys):
        client, daemon = node_traces
        assert main(["trace", "slow", str(client), str(daemon)]) == 0
        out = capsys.readouterr().out
        assert "ab" * 8 in out
        assert "client,daemon" in out
        assert "tune" in out

    def test_slow_with_no_traced_requests(self, tmp_path, capsys):
        plain = self._write_node(
            tmp_path / "plain.jsonl", "session", 1
        )
        assert main(["trace", "slow", str(plain)]) == 0
        assert "no traced requests" in capsys.readouterr().out


class TestMetricsCommand:
    def test_renders_a_report_snapshot(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        assert main(
            ["bench", "--only", "gaussian", "--arch", "c2075",
             "--report", str(report)]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", str(report)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE orion_cache_lookups_total counter" in out
        assert 'orion_cache_lookups_total{cache="measure"' in out

    def test_invalid_report_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main(["metrics", str(bad)]) == 1
        assert "invalid report" in capsys.readouterr().err

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["metrics"]) == 1
        assert "exactly one source" in capsys.readouterr().err
        assert main(["metrics", str(tmp_path / "r.json"),
                     "--url", "127.0.0.1:1"]) == 1
        assert "exactly one source" in capsys.readouterr().err


class TestStrategyFlag:
    @pytest.fixture(autouse=True)
    def _reference_default(self, monkeypatch):
        # These tests pin the *no-environment* default; the CI strategy
        # matrix exports ORION_STRATEGY, which must not leak in here.
        monkeypatch.delenv("ORION_STRATEGY", raising=False)

    def test_compile_strategy_changes_output(self, call_asm_file, tmp_path, capsys):
        default = tmp_path / "default.bin"
        smem = tmp_path / "smem.bin"
        assert main(["compile", str(call_asm_file), "-o", str(default)]) == 0
        assert main(
            ["compile", str(call_asm_file), "-o", str(smem),
             "--strategy", "smem-spill"]
        ) == 0
        assert default.read_bytes() != smem.read_bytes()
        capsys.readouterr()
        assert main(["inspect", str(smem)]) == 0
        assert "smem-spill" in capsys.readouterr().out

    def test_explicit_local_spill_is_the_default(self, call_asm_file, tmp_path):
        default = tmp_path / "default.bin"
        explicit = tmp_path / "explicit.bin"
        main(["compile", str(call_asm_file), "-o", str(default)])
        main(["compile", str(call_asm_file), "-o", str(explicit),
              "--strategy", "local-spill"])
        assert default.read_bytes() == explicit.read_bytes()

    def test_inspect_hides_strategy_column_for_default(
        self, call_asm_file, tmp_path, capsys
    ):
        out = tmp_path / "fat.bin"
        main(["compile", str(call_asm_file), "-o", str(out)])
        capsys.readouterr()
        main(["inspect", str(out)])
        assert "strategy" not in capsys.readouterr().out

    def test_env_default_drives_compile(
        self, call_asm_file, tmp_path, monkeypatch
    ):
        flagged = tmp_path / "flag.bin"
        main(["compile", str(call_asm_file), "-o", str(flagged),
              "--strategy", "smem-spill"])
        via_env = tmp_path / "env.bin"
        monkeypatch.setenv("ORION_STRATEGY", "smem-spill")
        main(["compile", str(call_asm_file), "-o", str(via_env)])
        assert via_env.read_bytes() == flagged.read_bytes()

    def test_sweep_strategy_tagged(self, asm_file, capsys):
        code = main(
            ["sweep", str(asm_file), "--arch", "c2075", "--grid", "16",
             "--block-size", "128", "--max-events", "300",
             "--strategy", "smem-spill"]
        )
        assert code == 0
        assert "smem-spill" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self, call_asm_file, tmp_path, capsys):
        out = tmp_path / "x.bin"
        for strategy in ("zorua", "soft-limit"):
            with pytest.raises(SystemExit) as exc:
                main(["compile", str(call_asm_file), "-o", str(out),
                      "--strategy", strategy])
            # argparse's usage error: exit status 2, the choice named.
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and f"invalid choice: '{strategy}'" in err
        assert not out.exists()
