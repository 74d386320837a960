"""Command-line interface: ``python -m repro <command>``.

The paper's toolchain is driven from the shell (nvcc emits a binary,
Orion rewrites it, the runtime loads the multi-version result); this
CLI exposes the same workflow over ORAS files:

* ``asm``      — assemble ORAS text into a binary module;
* ``dis``      — disassemble a binary module back to text;
* ``compile``  — run the full Orion compiler, writing a multi-version
  binary and printing the candidate table;
* ``inspect``  — describe a multi-version binary;
* ``run``      — execute a kernel on the functional interpreter;
* ``fuzz``     — differential fuzzing: seeded random kernels through
  the whole pipeline, checked by the allocation-soundness verifier and
  the functional interpreter (see :mod:`repro.fuzz`);
* ``sweep``    — time every occupancy level through a backend;
* ``bench``    — drive the whole benchmark suite through the execution
  engine, one tuning session per kernel in turn;
  ``--report`` writes the versioned machine-readable bench report;
* ``trace``    — analyse a JSONL telemetry trace: ``summary``,
  ``filter``, ``diff``, ``export --format chrome`` (Perfetto), plus
  the distributed half — ``merge`` joins per-node trace files (or
  live ``--url`` fetches from daemons' ``/debug/trace``) by trace id
  into one cross-node timeline, and ``slow --top N`` ranks merged
  requests by latency;
* ``metrics``  — print the Prometheus-style text exposition of a bench
  report's embedded metrics snapshot, or scrape a live daemon's
  ``/metrics`` endpoint with ``--url``;
* ``serve``    — run the tuning daemon: a localhost socket service in
  front of a persistent tuning store (see :mod:`repro.service` and
  ``docs/service.md``); ``--ring`` joins a sharded/replicated daemon
  cluster, ``--http-port`` adds ``/metrics`` + ``/healthz`` +
  ``/debug/*`` over HTTP, ``--log-file`` writes the structured JSONL
  log;
* ``submit``   — tune a multi-version binary through the daemon (warm
  store hits skip measurement entirely), degrading to in-process
  tuning when the daemon is unreachable; ``--ring`` routes to the
  kernel's ring owner with failover;
* ``loadtest`` — drive concurrent tune requests across a daemon ring
  and report p50/p99 latency and the warm/cold source mix;
* ``store``    — inspect the persistent tuning store: ``stats``,
  ``gc`` (compact the log), ``export`` (dump live records as JSON).

``sweep``, ``bench`` and ``fuzz`` accept ``--trace`` (JSONL telemetry)
and ``--metrics`` (print the process metrics registry after the run);
``sweep`` and ``bench`` also accept ``--backend`` (timing simulator,
analytical MWP/CWP model, or functional interpreter).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.specs import (
    GTX680,
    GTX980,
    GTX1080,
    TESLA_C2075,
    GpuArchitecture,
)
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.fuzz.generator import SHAPES
from repro.harness.reporting import format_series, format_table
from repro.isa.assembly import format_module, parse_module
from repro.isa.encoding import decode_module, encode_module
from repro.regalloc.strategy import MIXED_ID, STRATEGIES
from repro.sim.backend import BACKENDS
from repro.sim.interp import LaunchConfig, run_kernel

ARCHS: dict[str, GpuArchitecture] = {
    "gtx680": GTX680,
    "gtx980": GTX980,
    "gtx1080": GTX1080,
    "c2075": TESLA_C2075,
}


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="timing",
        help="execution backend (default: timing)",
    )
    _add_observability(parser)


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSONL telemetry trace of the run to FILE "
             "(also honoured via $ORION_TRACE_FILE)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the Prometheus-style metrics exposition after the run",
    )


def _print_live_metrics() -> None:
    from repro.obs.metrics import get_registry, render_prometheus

    print(render_prometheus(get_registry().snapshot()), end="")


def _load_module(path: Path):
    """Load an ORAS module from assembly text or a binary file."""
    data = path.read_bytes()
    if data[:4] == b"ORAS":
        return decode_module(data)
    return parse_module(data.decode("utf-8"))


def _add_arch(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch",
        choices=sorted(ARCHS),
        default="gtx680",
        help="target architecture (default: gtx680)",
    )


def _add_strategy(parser: argparse.ArgumentParser, mixed: bool = True) -> None:
    choices = sorted(STRATEGIES) + ([MIXED_ID] if mixed else [])
    parser.add_argument(
        "--strategy",
        choices=choices,
        default=None,
        help="allocation strategy: where spilled registers live "
             "(default: $ORION_STRATEGY or local-spill)",
    )


# ----------------------------------------------------------------------
def cmd_asm(args: argparse.Namespace) -> int:
    module = parse_module(Path(args.input).read_text())
    module.validate()
    Path(args.output).write_bytes(encode_module(module))
    print(f"assembled {module.name}: {len(module.functions)} function(s) "
          f"-> {args.output}")
    return 0


def cmd_dis(args: argparse.Namespace) -> int:
    module = decode_module(Path(args.input).read_bytes())
    text = format_module(module)
    if args.output:
        Path(args.output).write_text(text)
        print(f"disassembled -> {args.output}")
    else:
        print(text)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.harness.reporting import format_phase_report

    module = _load_module(Path(args.input))
    kernel = args.kernel or module.kernel().name
    arch = ARCHS[args.arch]
    options = dict(
        arch=arch,
        block_size=args.block_size,
        can_tune=not args.no_tune,
        max_versions=args.max_versions,
    )
    if args.strategy:
        options["strategy"] = args.strategy
    binary = compile_binary(
        module,
        kernel,
        CompileOptions(**options),
        jobs=args.jobs,
        use_cache=not args.no_cache,
        verify=args.verify,
    )
    Path(args.output).write_bytes(binary.to_bytes())
    if args.verify:
        print("verify: every realized version is allocation-sound")
    print(f"kernel {kernel!r} on {arch.name}: direction={binary.direction}")
    print(_version_table(binary))
    if args.timings:
        print(format_phase_report())
    print(f"multi-version binary -> {args.output}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    binary = MultiVersionBinary.from_bytes(Path(args.input).read_bytes())
    print(
        f"kernel {binary.kernel_name!r} for {binary.arch_name} "
        f"(block={binary.block_size}, direction={binary.direction}, "
        f"tunable={binary.can_tune})"
    )
    print(_version_table(binary))
    return 0


def _version_table(binary: MultiVersionBinary) -> str:
    # The strategy column appears only for mixed/non-default binaries,
    # keeping the reference output stable.
    show_strategy = binary.strategies() != ("local-spill",)
    rows = []
    for role, versions in (("candidate", binary.versions), ("failsafe", binary.failsafe)):
        for v in versions:
            row = (
                role,
                v.label,
                f"{v.occupancy:.3f}",
                v.regs_per_thread,
                v.smem_per_block,
                v.outcome.spilled_variables,
                v.outcome.stack_moves,
            )
            if show_strategy:
                row += (v.strategy,)
            rows.append(row)
    headers = ["role", "label", "occupancy", "regs", "smem B", "spills", "moves"]
    if show_strategy:
        headers.append("strategy")
    return format_table(headers, rows)


def cmd_run(args: argparse.Namespace) -> int:
    module = _load_module(Path(args.input))
    kernel = args.kernel or module.kernel().name
    params = {}
    for pair in args.param or []:
        offset, _, value = pair.partition("=")
        params[int(offset)] = float(value) if "." in value else int(value)
    launch = LaunchConfig(
        grid_blocks=args.grid, block_size=args.block_size, params=params
    )
    memory = run_kernel(module, launch, kernel_name=kernel)
    shown = sorted(memory.items())[: args.show]
    print(f"ran {kernel!r}: {len(memory)} global words written")
    for address, value in shown:
        print(f"  [{address:#010x}] = {value}")
    if len(memory) > args.show:
        print(f"  ... {len(memory) - args.show} more")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_fuzz
    from repro.obs.telemetry import JsonlSink, TelemetryHub

    store = None
    if args.store:
        from repro.service.store import TuningStore

        store = TuningStore(args.store)
    hub = TelemetryHub(JsonlSink(args.trace)) if args.trace else None
    try:
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            shape=args.shape,
            arch=ARCHS[args.arch],
            progress=print if not args.quiet else None,
            hub=hub,
            trace=args.trace,
            store=store,
            strategy=args.strategy or "local-spill",
        )
    finally:
        if hub is not None:
            hub.close()
    oracle = (
        f", strategy oracle vs {report.strategy}"
        if report.strategy != "local-spill"
        else ""
    )
    print(
        f"fuzzed {report.cases} case(s) (shape={report.shape}, "
        f"seeds {args.seed}..{args.seed + args.cases - 1}{oracle}): "
        f"{report.versions_checked} version(s) checked, "
        f"{len(report.failures)} failure(s)"
    )
    for failure in report.failures:
        print(failure)
    if args.trace:
        print(f"telemetry trace -> {args.trace}")
    if args.metrics:
        _print_live_metrics()
    return 0 if report.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.arch.occupancy import occupancy_levels
    from repro.compiler.realize import RealizeError, realize_occupancy
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.session import Workload

    module = _load_module(Path(args.input))
    kernel = args.kernel or module.kernel().name
    arch = ARCHS[args.arch]
    launch = LaunchConfig(grid_blocks=args.grid, block_size=args.block_size)
    workload = Workload(launch=launch, max_events_per_warp=args.max_events)
    engine = ExecutionEngine(arch, backend=args.backend, trace_file=args.trace)
    strategy = args.strategy or "local-spill"
    occupancies, runtimes = [], []
    for warps in occupancy_levels(arch, args.block_size):
        try:
            version = realize_occupancy(
                module, kernel, arch, args.block_size, warps,
                conservative=True, strategy=strategy,
            )
        except RealizeError as exc:
            print(f"  warps={warps}: infeasible ({exc})")
            continue
        measured = engine.measure(version, launch, workload, session=kernel)
        occupancies.append(warps / arch.max_warps_per_sm)
        runtimes.append(measured.cycles)
    engine.telemetry.close()
    if not runtimes:
        print("no feasible occupancy level")
        return 1
    best = min(runtimes)
    tag = f", {strategy}" if strategy != "local-spill" else ""
    print(
        f"sweep of {kernel!r} on {arch.name} "
        f"({engine.backend.name} backend{tag}):"
    )
    print(
        format_series(
            occupancies,
            [r / best for r in runtimes],
            "occupancy",
            "normalized runtime",
        )
    )
    if args.trace:
        print(f"telemetry trace -> {args.trace}")
    if args.metrics:
        _print_live_metrics()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.experiments import BENCHMARKS, bench_suite
    from repro.harness.reporting import (
        format_suite_report,
        format_telemetry_summary,
    )
    from repro.runtime.engine import ExecutionEngine

    from repro.regalloc.strategy import default_strategy_id

    arch = ARCHS[args.arch]
    strategy = args.strategy or default_strategy_id()
    engine = ExecutionEngine(arch, backend=args.backend, trace_file=args.trace)
    try:
        rows = bench_suite(
            arch, only=args.only, suite_engine=engine, strategy=strategy
        )
    finally:
        engine.telemetry.close()
    tag = f", {strategy}" if strategy != "local-spill" else ""
    print(
        format_suite_report(
            rows,
            title=(
                f"Benchmark suite on {arch.name} "
                f"({engine.backend.name} backend{tag}, "
                f"{len(rows)}/{len(BENCHMARKS)} kernels)"
            ),
        )
    )
    print(format_telemetry_summary(engine.telemetry, engine.cache.stats))
    payload = None
    if args.report or args.baseline:
        from repro.obs.report import build_bench_report, write_report
        from repro.perf.cache import default_cache

        payload = build_bench_report(
            arch.name,
            engine.backend.name,
            rows,
            engine.cache.stats,
            compile_stats=default_cache().stats,
            telemetry=engine.telemetry,
            strategy=strategy,
        )
    if args.report:
        if payload["git_sha"] is None:
            print(
                "warning: not inside a git checkout (or git is "
                "unavailable); bench report records git_sha=null",
                file=sys.stderr,
            )
        written = write_report(payload, args.report)
        print(f"bench report -> {written}")
    if args.trace:
        print(f"telemetry trace -> {args.trace}")
    if args.metrics:
        _print_live_metrics()
    if args.baseline:
        from repro.obs.report import compare_reports, load_report

        problems = compare_reports(load_report(args.baseline), payload)
        if problems:
            for problem in problems:
                print(f"bench regression: {problem}", file=sys.stderr)
            return 1
        print(f"no regression against baseline {args.baseline}")
    return 0


# ----------------------------------------------------------------------
def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import tracefile

    if args.trace_command in ("merge", "slow"):
        return _cmd_trace_merged(args)
    events = tracefile.read_trace(Path(args.trace_file))
    if args.trace_command == "summary":
        print(tracefile.summarize_trace(events))
        return 0
    if args.trace_command == "filter":
        kept = tracefile.filter_trace(
            events, session=args.session, kinds=args.kind or None
        )
        import json as _json

        lines = "".join(
            _json.dumps(event, sort_keys=True) + "\n" for event in kept
        )
        if args.output:
            Path(args.output).write_text(lines, encoding="utf-8")
            print(f"{len(kept)}/{len(events)} event(s) -> {args.output}")
        else:
            print(lines, end="")
        return 0
    if args.trace_command == "diff":
        other = tracefile.read_trace(Path(args.other))
        diffs = tracefile.diff_traces(
            events, other, ignore_wall=not args.wall, limit=args.limit
        )
        if not diffs:
            print("traces are identical"
                  + ("" if args.wall else " (wall-clock ignored)"))
            return 0
        for line in diffs:
            print(line)
        return 1
    if args.trace_command == "export":
        import json as _json

        document = tracefile.to_chrome(events)
        text = _json.dumps(document, sort_keys=True)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
            print(
                f"{len(document['traceEvents'])} trace event(s) -> "
                f"{args.output} (open in Perfetto / chrome://tracing)"
            )
        else:
            print(text)
        return 0
    raise ValueError(f"unknown trace command {args.trace_command!r}")


def _collect_traces(specs: list[str], urls: list[str]) -> dict[str, list[dict]]:
    """Load per-node traces from ``label=path`` specs and daemon URLs.

    A bare path gets its file stem as the node label; a URL gets its
    ``host:port``.  Labels must be unique — they become the node names
    of the merged timeline.
    """
    from repro.obs import tracefile

    traces: dict[str, list[dict]] = {}

    def _add(label: str, events: list[dict], origin: str) -> None:
        if label in traces:
            raise ValueError(
                f"duplicate node label {label!r} (from {origin}); "
                "disambiguate with label=path"
            )
        traces[label] = events

    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or "/" in label:
            label, path = Path(spec).stem, spec
        _add(label, tracefile.read_trace(Path(path)), path)
    for url in urls:
        import urllib.request

        full = url if "://" in url else f"http://{url}"
        if "/debug/" not in full:
            full = full.rstrip("/") + "/debug/trace"
        label = full.split("://", 1)[1].split("/", 1)[0]
        with urllib.request.urlopen(full, timeout=10.0) as response:
            text = response.read().decode("utf-8")
        _add(label, tracefile.parse_trace_text(text, source=full), full)
    if not traces:
        raise ValueError(
            "no traces to merge: name trace files or pass --url"
        )
    return traces


def _cmd_trace_merged(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import tracefile

    traces = _collect_traces(args.traces, args.url or [])
    merged = tracefile.merge_traces(traces)
    if args.trace_command == "slow":
        rows = tracefile.slow_traces(merged, top=args.top)
        if not rows:
            print("no traced requests found")
            return 0
        print(
            format_table(
                ["trace", "wall_s", "nodes", "events", "types"],
                [
                    [
                        row["trace"],
                        "-" if row["wall"] is None else f"{row['wall']:.6f}",
                        ",".join(row["nodes"]),
                        str(row["events"]),
                        ",".join(row["types"]) or "-",
                    ]
                    for row in rows
                ],
            )
        )
        return 0
    traced = {
        event["data"]["trace"]
        for event in merged
        if isinstance(event["data"].get("trace"), str)
    }
    cross = {
        trace
        for trace in traced
        if len(
            {
                event["node"]
                for event in merged
                if event["data"].get("trace") == trace
            }
        )
        > 1
    }
    if args.format == "jsonl":
        text = "".join(
            _json.dumps(event, sort_keys=True) + "\n" for event in merged
        )
    else:
        text = _json.dumps(tracefile.to_chrome(merged), sort_keys=True)
        text += "\n"
    summary = (
        f"{len(merged)} event(s) from {len(traces)} node(s), "
        f"{len(traced)} trace id(s) ({len(cross)} cross-node)"
    )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        viewer = (
            "" if args.format == "jsonl"
            else " (open in Perfetto / chrome://tracing)"
        )
        print(f"{summary} -> {args.output}{viewer}")
    else:
        print(text, end="")
        print(summary, file=sys.stderr)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import render_prometheus
    from repro.obs.report import load_report, validate_bench_report

    if (args.report is None) == (args.url is None):
        raise ValueError(
            "metrics needs exactly one source: a bench-report file or --url"
        )
    if args.url:
        import urllib.request

        full = args.url if "://" in args.url else f"http://{args.url}"
        if not full.rstrip("/").endswith("/metrics"):
            full = full.rstrip("/") + "/metrics"
        with urllib.request.urlopen(full, timeout=10.0) as response:
            print(response.read().decode("utf-8"), end="")
        return 0
    report = load_report(Path(args.report))
    errors = validate_bench_report(report)
    if errors and not args.no_validate:
        for error in errors:
            print(f"invalid report: {error}", file=sys.stderr)
        return 1
    print(render_prometheus(report["metrics"]), end="")
    return 0


# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.engine import ExecutionEngine
    from repro.service.daemon import DaemonConfig, TuningDaemon
    from repro.service.store import TuningStore

    cluster = None
    if args.ring:
        from repro.service.cluster import ClusterConfig

        node_id = args.node_id or f"{args.host}:{args.port}"
        if args.port == 0 and not args.node_id:
            raise ValueError(
                "--ring needs a fixed --port or an explicit --node-id "
                "(peers must be able to name this daemon)"
            )
        cluster = ClusterConfig(
            node_id=node_id,
            ring=args.ring,
            replicas=args.replicas,
        )
    store = TuningStore(args.store, max_entries=args.max_entries)
    # The daemon is the store's only client: its engine gets no store.
    engine = ExecutionEngine(
        ARCHS[args.arch], backend=args.backend, trace_file=args.trace
    )
    daemon = TuningDaemon(
        engine,
        store,
        DaemonConfig(
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            jobs=args.jobs,
            http_port=args.http_port,
            cluster=cluster,
            log_file=args.log_file,
        ),
    )

    async def _serve() -> None:
        await daemon.start()
        extras = ""
        if daemon.http_port is not None:
            extras += f", http :{daemon.http_port}"
        if cluster is not None:
            extras += (
                f", ring node {cluster.node_id} of {len(cluster.ring)}"
            )
        print(
            f"tuning daemon listening on {daemon.config.host}:{daemon.port} "
            f"({engine.arch.name}, {engine.backend.name} backend, "
            f"store {store.path}{extras})",
            flush=True,
        )
        await daemon.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("tuning daemon stopped")
    finally:
        engine.telemetry.close()
    if args.metrics:
        _print_live_metrics()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.compiler.multiversion import MultiVersionBinary
    from repro.runtime.session import Workload
    from repro.service.client import (
        RingClient,
        ServiceRejected,
        TuningClient,
        tune_with_fallback,
    )
    from repro.sim.interp import LaunchConfig

    binary = MultiVersionBinary.from_bytes(Path(args.input).read_bytes())
    if args.strategy and args.strategy not in binary.strategies():
        raise ValueError(
            f"binary {args.input} carries no {args.strategy!r} versions "
            f"(compiled with: {', '.join(binary.strategies())}); "
            f"recompile with repro compile --strategy {args.strategy}"
        )
    workload = Workload(
        launch=LaunchConfig(
            grid_blocks=args.grid,
            block_size=args.block_size or binary.block_size,
        ),
        iterations=args.iterations,
        max_events_per_warp=args.max_events,
    )
    if args.ring:
        client = RingClient(
            args.ring, timeout=args.timeout, retries=args.retries
        )
    else:
        client = TuningClient(
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            timeout=args.timeout,
            retries=args.retries,
        )
    hub = None
    if args.trace:
        # A traced submit writes the *client side* of the distributed
        # timeline: the client mints the trace id, opens the
        # client_request span here, and stamps both onto the wire so
        # the daemons' traces join up under `repro trace merge`.
        from contextlib import ExitStack

        from repro.obs.context import use_hub
        from repro.obs.telemetry import JsonlSink, TelemetryHub

        hub = TelemetryHub(JsonlSink(args.trace))
        stack = ExitStack()
        stack.enter_context(use_hub(hub))
    try:
        if args.no_fallback:
            try:
                response = client.tune(binary, workload)
            except ServiceRejected as exc:
                raise ValueError(str(exc)) from None
        else:
            response = tune_with_fallback(
                client, binary, workload, ARCHS[args.arch],
                backend=args.backend,
            )
    finally:
        if hub is not None:
            stack.close()
            hub.close()
    if args.json:
        print(_json.dumps(response, indent=2, sort_keys=True))
        return 0
    record = response["record"]
    print(
        f"kernel {record['kernel_name']!r} on {record['arch']} "
        f"({record['backend']} backend): winner {record['winner_label']!r} "
        f"(occupancy {record['occupancy']:.3f}, "
        f"{record['total_cycles']} cycles)"
    )
    print(f"source: {response['source']}   key: {response['key'][:16]}…")
    if response.get("degraded_reason"):
        print(f"degraded to local tuning: {response['degraded_reason']}")
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive concurrent clients across a daemon ring; report latency."""
    import json as _json
    import threading
    import time as _time

    from repro.compiler.multiversion import MultiVersionBinary
    from repro.runtime.session import Workload
    from repro.service.client import RingClient, ServiceRejected
    from repro.sim.interp import LaunchConfig

    binary = MultiVersionBinary.from_bytes(Path(args.input).read_bytes())
    workload = Workload(
        launch=LaunchConfig(
            grid_blocks=args.grid,
            block_size=args.block_size or binary.block_size,
        ),
        iterations=args.iterations,
        max_events_per_warp=args.max_events,
    )
    total = args.requests
    clients = max(1, min(args.clients, total))
    shares = [total // clients] * clients
    for index in range(total % clients):
        shares[index] += 1

    latencies: list[float] = []
    sources: dict[str, int] = {}
    errors: list[str] = []
    lock = threading.Lock()

    def _worker(count: int) -> None:
        # One RingClient per worker: nothing shared, nothing to contend.
        ring = RingClient(
            args.ring, timeout=args.timeout, retries=args.retries
        )
        for _ in range(count):
            started = _time.perf_counter()
            try:
                response = ring.tune(binary, workload)
            except (ServiceRejected, OSError) as exc:
                with lock:
                    errors.append(str(exc))
                continue
            elapsed = _time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                source = response.get("source", "unknown")
                sources[source] = sources.get(source, 0) + 1

    threads = [
        threading.Thread(target=_worker, args=(share,), daemon=True)
        for share in shares
        if share
    ]
    wall_start = _time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = _time.perf_counter() - wall_start

    def _percentile(values: list[float], q: float) -> float:
        ordered = sorted(values)
        index = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
        return ordered[index]

    summary = {
        "requests": total,
        "clients": len(threads),
        "ring": RingClient(args.ring).nodes,
        "ok": len(latencies),
        "dropped": len(errors),
        "wall_seconds": wall,
        "sources": dict(sorted(sources.items())),
    }
    if latencies:
        summary["p50_ms"] = _percentile(latencies, 0.50) * 1000.0
        summary["p99_ms"] = _percentile(latencies, 0.99) * 1000.0
        summary["throughput_rps"] = len(latencies) / wall if wall else 0.0
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"loadtest: {total} request(s) via {len(threads)} client(s) "
            f"over a {len(summary['ring'])}-node ring in {wall:.2f}s"
        )
        print(f"  ok {len(latencies)}, dropped {len(errors)}")
        if latencies:
            print(
                f"  p50 {summary['p50_ms']:.2f} ms   "
                f"p99 {summary['p99_ms']:.2f} ms   "
                f"{summary['throughput_rps']:.1f} req/s"
            )
        if sources:
            mix = ", ".join(
                f"{name} {count}" for name, count in sorted(sources.items())
            )
            print(f"  sources: {mix}")
        for message in errors[:3]:
            print(f"  error: {message}", file=sys.stderr)
    return 1 if errors else 0


def cmd_store(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.store import TuningStore

    store = TuningStore(args.store, max_entries=args.max_entries)
    if args.store_command == "stats":
        print(_json.dumps(store.stats().to_payload(), indent=2, sort_keys=True))
        return 0
    if args.store_command == "gc":
        before = store.stats().log_ops
        stats = store.gc()
        print(
            f"compacted {store.path}: {before} -> {stats.log_ops} log op(s), "
            f"{stats.entries} live record(s)"
        )
        return 0
    if args.store_command == "export":
        text = _json.dumps(store.export(), indent=2, sort_keys=True)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
            print(f"{len(store)} record(s) -> {args.output}")
        else:
            print(text)
        return 0
    raise ValueError(f"unknown store command {args.store_command!r}")


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orion GPU occupancy tuning — reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble ORAS text to a binary")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("dis", help="disassemble a binary to ORAS text")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dis)

    p = sub.add_parser("compile", help="Orion-compile a kernel")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--kernel")
    p.add_argument("--block-size", type=int, default=256)
    p.add_argument("--max-versions", type=int, default=5)
    p.add_argument("--no-tune", action="store_true",
                   help="force static selection (no runtime tuning)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for candidate realization "
                        "(default: $ORION_COMPILE_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed compile cache")
    p.add_argument("--verify", action="store_true",
                   help="gate every realized version through the "
                        "allocation-soundness verifier")
    p.add_argument("--timings", action="store_true",
                   help="print the phase-timer / cache-hit report")
    _add_arch(p)
    _add_strategy(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("inspect", help="describe a multi-version binary")
    p.add_argument("input")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("run", help="execute a kernel functionally")
    p.add_argument("input")
    p.add_argument("--kernel")
    p.add_argument("--grid", type=int, default=1)
    p.add_argument("--block-size", type=int, default=32)
    p.add_argument("--param", action="append",
                   help="offset=value kernel parameter (repeatable)")
    p.add_argument("--show", type=int, default=16)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the compiler with seeded random kernels",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; case i uses seed+i (default: 0)")
    p.add_argument("--cases", type=int, default=100,
                   help="number of cases to run (default: 100)")
    p.add_argument("--shape", choices=SHAPES, default="mixed",
                   help="program shape to generate (default: mixed)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress periodic progress lines")
    p.add_argument("--store", metavar="FILE",
                   help="also round-trip each tunable case through a "
                        "persistent tuning store at FILE, checking "
                        "fingerprint stability across recompiles")
    _add_arch(p)
    _add_strategy(p, mixed=False)
    _add_observability(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("sweep", help="time every occupancy level")
    p.add_argument("input")
    p.add_argument("--kernel")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--block-size", type=int, default=256)
    p.add_argument("--max-events", type=int, default=3000)
    _add_arch(p)
    _add_strategy(p, mixed=False)
    _add_engine_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench",
        help="run the benchmark suite through the execution engine",
    )
    p.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this benchmark (repeatable; default: all 14)",
    )
    p.add_argument(
        "--report",
        metavar="FILE",
        help="write the versioned machine-readable bench report to FILE",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="compare this run against a committed bench report "
        "(exit 1 on changed kernel results or >25%% per-phase slowdown)",
    )
    _add_arch(p)
    _add_strategy(p)
    _add_engine_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("trace", help="analyse a JSONL telemetry trace")
    tsub = p.add_subparsers(dest="trace_command", required=True)

    ps = tsub.add_parser(
        "summary",
        help="per-kind counts, span duration stats, cache hit rates",
    )
    ps.add_argument("trace_file")
    ps.set_defaults(func=cmd_trace)

    pf = tsub.add_parser(
        "filter", help="select events by session and/or kind"
    )
    pf.add_argument("trace_file")
    pf.add_argument("--session", help="keep only this session's events")
    pf.add_argument(
        "--kind",
        action="append",
        metavar="KIND",
        help="keep only this event kind (repeatable)",
    )
    pf.add_argument("-o", "--output", help="write JSONL here (default: stdout)")
    pf.set_defaults(func=cmd_trace)

    pd = tsub.add_parser(
        "diff", help="seq-aligned comparison of two traces"
    )
    pd.add_argument("trace_file", help="trace A")
    pd.add_argument("other", help="trace B")
    pd.add_argument(
        "--wall",
        action="store_true",
        help="also compare wall-clock durations (differ between any "
             "two real runs; ignored by default)",
    )
    pd.add_argument(
        "--limit", type=int, default=10,
        help="stop after this many differences (default: 10)",
    )
    pd.set_defaults(func=cmd_trace)

    pe = tsub.add_parser(
        "export", help="convert a trace for an external viewer"
    )
    pe.add_argument("trace_file")
    pe.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="output format: Chrome trace_event JSON for "
             "Perfetto / chrome://tracing (default)",
    )
    pe.add_argument("-o", "--output", help="write here (default: stdout)")
    pe.set_defaults(func=cmd_trace)

    pm = tsub.add_parser(
        "merge",
        help="join per-node traces by trace id into one cross-node "
             "timeline (clock offsets normalized from causality)",
    )
    pm.add_argument(
        "traces",
        nargs="*",
        metavar="[NODE=]FILE",
        help="per-node trace files; bare paths use the file stem as "
             "the node label",
    )
    pm.add_argument(
        "--url",
        action="append",
        metavar="HOST:PORT",
        help="also fetch a live daemon's /debug/trace (repeatable)",
    )
    pm.add_argument(
        "--format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="chrome: one Perfetto timeline, a process per node "
             "(default); jsonl: merged events with node/ts annotations",
    )
    pm.add_argument("-o", "--output", help="write here (default: stdout)")
    pm.set_defaults(func=cmd_trace)

    pw = tsub.add_parser(
        "slow",
        help="merge per-node traces and rank requests by latency",
    )
    pw.add_argument(
        "traces", nargs="*", metavar="[NODE=]FILE",
        help="per-node trace files (as for merge)",
    )
    pw.add_argument(
        "--url",
        action="append",
        metavar="HOST:PORT",
        help="also fetch a live daemon's /debug/trace (repeatable)",
    )
    pw.add_argument(
        "--top", type=int, default=10,
        help="show the N slowest traces (default: 10)",
    )
    pw.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="print the Prometheus-style exposition of a bench report's "
             "metrics snapshot, or scrape a live daemon",
    )
    p.add_argument(
        "report",
        nargs="?",
        help="a bench-report JSON file (bench --report); omit with --url",
    )
    p.add_argument(
        "--url",
        metavar="HOST:PORT",
        help="scrape a live daemon's /metrics endpoint instead",
    )
    p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the report schema check",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="run the tuning daemon over a persistent tuning store",
    )
    p.add_argument("--store", required=True, metavar="FILE",
                   help="path of the persistent tuning store (JSONL)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: 0 = ephemeral)")
    p.add_argument("--port-file", metavar="FILE",
                   help="write the bound port here once listening "
                        "(clients discover ephemeral ports through it)")
    p.add_argument("--max-entries", type=int, default=1024,
                   help="store LRU bound (default: 1024)")
    p.add_argument("--max-pending", type=int, default=8,
                   help="admission-control queue bound; further tune "
                        "requests are rejected queue-full (default: 8)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request tuning deadline in seconds "
                        "(default: 30)")
    p.add_argument("--jobs", type=int, default=2,
                   help="concurrent tuning workers (default: 2)")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="also serve GET /metrics (Prometheus), "
                        "GET /healthz and GET /debug/* on this HTTP "
                        "port (0 = ephemeral)")
    p.add_argument("--log-file", metavar="FILE",
                   help="write the daemon's structured JSONL log here "
                        "(default: $ORION_LOG, else off)")
    p.add_argument("--ring", metavar="H:P,H:P,...",
                   help="cluster mode: the full host:port member list "
                        "of the daemon ring (this node included)")
    p.add_argument("--node-id", metavar="HOST:PORT",
                   help="this node's advertised ring identity "
                        "(default: --host:--port)")
    p.add_argument("--replicas", type=int, default=2,
                   help="copies of each record beyond the ring owner "
                        "(default: 2)")
    _add_arch(p)
    _add_engine_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="tune a multi-version binary through the daemon "
             "(warm store hits skip measurement)",
    )
    p.add_argument("input", help="a multi-version binary (repro compile)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="daemon port (or use --port-file)")
    p.add_argument("--port-file", metavar="FILE",
                   help="read the daemon port from FILE (repro serve "
                        "--port-file)")
    p.add_argument("--ring", metavar="H:P,H:P,...",
                   help="submit through a daemon ring: route to the "
                        "kernel's owner, fail over ring-wise")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--block-size", type=int, default=None,
                   help="default: the binary's compiled block size")
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--max-events", type=int, default=3000)
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client-side socket timeout in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="connection/backpressure retries (default: 2)")
    p.add_argument("--no-fallback", action="store_true",
                   help="fail instead of degrading to in-process tuning "
                        "when the daemon is unreachable")
    p.add_argument("--trace", metavar="FILE",
                   help="write the client-side JSONL trace here; the "
                        "minted trace id propagates to the daemons "
                        "(join with repro trace merge)")
    p.add_argument("--json", action="store_true",
                   help="print the raw response as JSON")
    _add_arch(p)
    _add_strategy(p, mixed=False)
    p.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="timing",
        help="backend for the in-process fallback (default: timing)",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "loadtest",
        help="drive concurrent tune requests across a daemon ring and "
             "report p50/p99 latency",
    )
    p.add_argument("input", help="a multi-version binary (repro compile)")
    p.add_argument("--ring", required=True, metavar="H:P,H:P,...",
                   help="the daemon ring to drive")
    p.add_argument("--requests", type=int, default=64,
                   help="total requests to issue (default: 64)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent client threads (default: 8)")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--block-size", type=int, default=None,
                   help="default: the binary's compiled block size")
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--max-events", type=int, default=3000)
    p.add_argument("--timeout", type=float, default=30.0,
                   help="client-side socket timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="per-node retries before failing over (default: 1)")
    p.add_argument("--json", action="store_true",
                   help="print the summary as JSON")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "store", help="inspect or maintain a persistent tuning store"
    )
    p.add_argument("store", help="path of the tuning store (JSONL)")
    p.add_argument("--max-entries", type=int, default=1024,
                   help="store LRU bound (default: 1024)")
    ssub = p.add_subparsers(dest="store_command", required=True)

    ps = ssub.add_parser("stats", help="print store statistics as JSON")
    ps.set_defaults(func=cmd_store)

    ps = ssub.add_parser("gc", help="compact the op log in place")
    ps.set_defaults(func=cmd_store)

    ps = ssub.add_parser("export", help="dump live records as JSON")
    ps.add_argument("-o", "--output", help="write here (default: stdout)")
    ps.set_defaults(func=cmd_store)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. `repro trace summary | head`); not an error
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
