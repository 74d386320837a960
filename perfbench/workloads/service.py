"""Workload ``service``: two closed-loop clients against a 3-daemon ring.

Set-up compiles the 14 benchmark binaries for GTX680, starts a local
ring of three ``repro serve --ring ... --replicas 1 --backend
analytical`` daemons on ports the OS hands out, and tunes every
binary's base shape once through the ring.

Two client threads then drive the ring, each sending its next request
when the previous one has been answered (a closed loop):

* one uses ``RingClient`` and routes owner-first, as ``repro loadtest``
  does;
* one uses a ``TuningClient`` pinned to one entry node, as ``repro
  submit --port`` does, so requests for keys that node does not hold
  are forwarded.  The entry node changes slice by slice (see below),
  round the ring: the ring places keys by ``host:port``, and the ports
  are the OS's, so one node's share of the keyspace differs from run
  to run; over all three nodes the forwarded share does not.

Every request sends one of the 14 binaries, dealt from a seeded deck so
each is sent about equally often.  One in 5 carries a fresh workload
shape (a grid size not sent before, hence a new tuning key): a *cold*
request, answered by a store miss, a tune, a put and replication.  The
rest repeat a key of the same kernel that the same client has already
had answered: a *warm* request, answered by a store hit that touches
the LRU.  Under the analytical backend a tune costs milliseconds,
which keeps the simulator out of this workload and leaves the service
plane visible.

The benchmark process, its client threads and the three daemons all
run on one CPU, the last the benchmark may use.  The window runs in
slices of about ``SLICE_S``, as many as make whole rounds of the pinned
client's entry nodes; between slices the host-speed gauge
(``perfbench.hostspeed``) is read on that CPU, and each slice's time and
the latencies in it are scaled by the readings around it.  The ring is
kept to the gauge's CPU because, spread over two, its speed hung on the
state of both CPUs: it moved by 30% between batches of runs with no sign
in the gauge, and scaling made it spread more, not less.  On one CPU
the gauge tracks it as it tracks compile and tune.  The set-up's
compiles and phases are scaled too.

Latencies are classified by the response's ``source`` (``store`` warm;
``tuned`` or ``deduped`` cold), not by the plan.  Checks, outside the
timed window: every request is answered; every warm answer equals the
cold answer that created its key; and on a seeded sample of keys the
ring's answer and key equal an in-process ``ExecutionEngine`` answer
(analytical backend) for the same binary and workload.

Teardown sends ``shutdown`` to each daemon, waits a bounded grace
period, then terminates any daemon still running and counts it in
``service.daemon_exit_timeouts``; the temporary stores are deleted.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import layers, stats, tracing
from perfbench.hostspeed import Gauge, Watch
from perfbench.tracing import clock
from perfbench.workloads import (
    Result,
    gauge_lines,
    nproc,
    peak_rss_mb,
    timing_lines,
)

ROOT = Path(__file__).resolve().parent.parent.parent
RING_SIZE = 3
CLIENTS = 2
#: share of requests that carry a fresh workload shape
COLD_SHARE = 0.2
#: keys checked against an in-process engine after each window
SAMPLE_KEYS = 12
READY_TIMEOUT_S = 60.0
SHUTDOWN_GRACE_S = 5.0
TERMINATE_GRACE_S = 3.0
CLIENT_TIMEOUT_S = 30.0
#: the window is driven in slices about this long, a whole number of
#: rounds of the pinned client's entry nodes; short, because the host's
#: speed changes within seconds and the gauge is only read between
#: slices (with 2-second slices op_ms.p50 spread three times as much)
SLICE_S = 0.5


@dataclass(frozen=True)
class Planned:
    """One planned request: which binary, which grid, fresh key or not."""

    kernel: int
    grid: int
    fresh: bool


def requests(seed: int, client: int, base_grids: list[int]):
    """Client ``client``'s endless request plan, a function of the seed.

    Kernels are dealt from a deck of all of them, shuffled anew each
    time it runs out, so every run sends each binary about equally
    often whatever the seed.  In every block of ``1 / COLD_SHARE``
    requests exactly one, at a seeded place, carries a fresh workload
    shape: a grid size no request has used (each client draws from its
    own residue class, so the two never collide).  Every other request
    repeats a grid of its kernel that this client has already had
    answered, starting from the base shape the set-up tuned.
    """
    rng = random.Random(f"perfbench-service/{seed}/{client}")
    known = [[grid] for grid in base_grids]
    block = round(1 / COLD_SHARE)
    deck: list[int] = []
    fresh_at = 0
    for number in itertools.count():
        if not deck:
            deck = list(range(len(base_grids)))
            rng.shuffle(deck)
        if number % block == 0:
            fresh_at = number + rng.randrange(block)
        kernel = deck.pop()
        if number == fresh_at:
            grid = base_grids[kernel] + client + 1 + CLIENTS * (len(known[kernel]) - 1)
            known[kernel].append(grid)
            yield Planned(kernel, grid, True)
        else:
            yield Planned(kernel, rng.choice(known[kernel]), False)


def free_ports(count: int) -> list[int]:
    """Ports the OS hands out, released for the daemons to bind."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class Outcome:
    """One answered (or failed) request."""

    planned: Planned
    seconds: float
    response: dict | None = None
    error: str | None = None
    #: ``seconds`` scaled to the reference host
    scaled: float = 0.0

    @property
    def source(self) -> str | None:
        return None if self.response is None else self.response.get("source")


class Ring:
    """Three daemons in one ring, started and stopped by the benchmark."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        self.traced = traced
        self.ports = free_ports(RING_SIZE)
        self.nodes = [f"127.0.0.1:{port}" for port in self.ports]
        self.procs: list[subprocess.Popen] = []
        self.exit_timeouts = 0
        self.peak_rss_mb = 0.0

    def spans_file(self, index: int) -> Path:
        return self.workdir / f"spans-{index}.json"

    def start(self) -> None:
        from perfbench.run import pinned_environment

        env = pinned_environment(dict(os.environ))
        env["PYTHONPATH"] = str(ROOT / "src")
        self.workdir.mkdir(parents=True, exist_ok=True)
        for index, port in enumerate(self.ports):
            serve = [
                "--store", str(self.workdir / f"store-{index}.jsonl"),
                "--port", str(port),
                "--node-id", self.nodes[index],
                "--ring", ",".join(self.nodes),
                "--replicas", "1",
                "--backend", "analytical",
                "--arch", "gtx680",
            ]
            if self.traced:
                command = [
                    sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                    str(self.spans_file(index)), "--", *serve,
                ]
            else:
                command = [sys.executable, "-m", "repro", "serve", *serve]
            log = open(self.workdir / f"daemon-{index}.log", "wb")
            try:
                self.procs.append(subprocess.Popen(
                    command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=subprocess.STDOUT,
                ))
            finally:
                log.close()
        self._wait_ready()

    def _wait_ready(self) -> None:
        from repro.service.client import TuningClient

        deadline = clock() + READY_TIMEOUT_S
        for index, port in enumerate(self.ports):
            client = TuningClient(port=port, timeout=1.0, retries=0)
            while True:
                if self.procs[index].poll() is not None:
                    raise RuntimeError(
                        f"daemon {index} exited during start-up: "
                        f"{self.log_tail(index)}"
                    )
                try:
                    client.ping()
                    break
                except OSError:
                    if clock() > deadline:
                        raise RuntimeError(f"daemon {index} never became ready")
                    time.sleep(0.05)

    def cpu_s(self) -> float:
        """CPU seconds the daemons have used so far (user + system)."""
        total = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rpartition(")")[2].split()
            total += int(fields[11]) + int(fields[12])
        return total / os.sysconf("SC_CLK_TCK")

    def log_tail(self, index: int) -> str:
        path = self.workdir / f"daemon-{index}.log"
        return path.read_text(errors="replace")[-400:] if path.exists() else ""

    def stop(self) -> None:
        """Shutdown, bounded grace, then terminate and count the stragglers."""
        from repro.service.client import ServiceRejected, TuningClient

        for proc in self.procs:
            try:
                self.peak_rss_mb = max(self.peak_rss_mb, peak_rss_mb(proc.pid))
            except OSError:
                pass  # already gone; its peak is lost with it
        for port in self.ports:
            try:
                TuningClient(port=port, timeout=2.0, retries=0).shutdown()
            except (OSError, ServiceRejected):
                pass  # not listening or refusing: handled by the wait below
        deadline = clock() + SHUTDOWN_GRACE_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - clock()))
            except subprocess.TimeoutExpired:
                self.exit_timeouts += 1
                proc.terminate()
                try:
                    proc.wait(timeout=TERMINATE_GRACE_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def dumps(self) -> list[dict]:
        """The span dumps the traced daemons wrote when they stopped."""
        return [
            json.loads(self.spans_file(index).read_text())
            for index in range(RING_SIZE)
            if self.spans_file(index).exists()
        ]


class _Load:
    """The binaries, their workloads and the two client loops."""

    def __init__(self, seed: int, gauge: Gauge | None) -> None:
        from repro.arch.specs import GTX680
        from perfbench.workloads.tune import compile_all

        self.seed = seed
        self.watch = Watch(gauge)
        #: scaled seconds of the set-up so far (compiles; then each
        #: session adds its ring start and warm-up)
        self.kernels, self.setup_s = compile_all((GTX680,), self.watch)
        self.base_grids = [spec.workload.grid_blocks for _, _, spec, _ in self.kernels]

    def workload(self, planned: Planned):
        from perfbench.workloads.tune import workload_of

        spec = self.kernels[planned.kernel][2]
        return workload_of(dataclasses.replace(
            spec, workload=dataclasses.replace(spec.workload, grid_blocks=planned.grid)
        ))

    def warm_up(self, ring: Ring) -> list[Outcome]:
        """Tune every base shape once (set-up, not timed)."""
        from repro.service.client import RingClient

        client = RingClient(ring.nodes, timeout=CLIENT_TIMEOUT_S)
        outcomes = []
        for kernel, grid in enumerate(self.base_grids):
            planned = Planned(kernel, grid, True)
            response = client.tune(self.kernels[kernel][3], self.workload(planned))
            outcomes.append(Outcome(planned, 0.0, response))
        return outcomes

    def drive(
        self, ring: Ring, seconds: float
    ) -> tuple[list[Outcome], float, float, tuple[float, float]]:
        """Both closed loops for ``seconds``, slice by slice.

        Returns the outcomes, the slices' summed wall and scaled times
        (the gauge readings between slices count in neither) and the
        clock at the window's start and end.  Each client's plan starts
        afresh on every ring and carries on across slices.
        """
        from repro.service.client import RingClient, TuningClient

        owner_first = RingClient(ring.nodes, timeout=CLIENT_TIMEOUT_S)
        plans = [
            requests(self.seed, index, self.base_grids)
            for index in range(CLIENTS)
        ]
        outcomes: list[Outcome] = []
        numbers = [0] * CLIENTS

        def loop(index: int, client, deadline: float) -> None:
            while clock() < deadline:
                planned = next(plans[index])
                tracing.CONTEXT.set(f"client-{index}/request-{numbers[index]}")
                numbers[index] += 1
                binary = self.kernels[planned.kernel][3]
                workload = self.workload(planned)
                began = clock()
                try:
                    response = client.tune(binary, workload)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    outcomes.append(
                        Outcome(planned, clock() - began, error=repr(exc))
                    )
                else:
                    outcomes.append(Outcome(planned, clock() - began, response))

        wall_s = scaled_s = 0.0
        slices = RING_SIZE * math.ceil(seconds / (RING_SIZE * SLICE_S))
        cpu_start = ring.cpu_s() + time.process_time()
        window_start = clock()
        for number in range(slices):
            pinned = TuningClient(
                port=ring.ports[number % RING_SIZE], timeout=CLIENT_TIMEOUT_S
            )
            first = len(outcomes)
            self.watch.start()
            deadline = clock() + seconds / slices
            threads = [
                threading.Thread(
                    target=loop, args=(i, client, deadline),
                    name=f"perfbench-client-{i}",
                )
                for i, client in enumerate((owner_first, pinned))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall, scaled = self.watch.stop()
            for outcome in outcomes[first:]:
                outcome.scaled = outcome.seconds * scaled / wall
            wall_s += wall
            scaled_s += scaled
        self.window_cpu_s = ring.cpu_s() + time.process_time() - cpu_start
        return outcomes, wall_s, scaled_s, (window_start, clock())

    def check(
        self, warm_up: list[Outcome], outcomes: list[Outcome], result: Result
    ) -> None:
        """Count failures and mismatches; see the module docstring."""
        result.attempted += len(outcomes)
        created: dict[str, dict] = {}
        for outcome in warm_up + outcomes:
            if outcome.error is not None or outcome.response is None:
                result.fail(f"request {outcome.planned} failed: {outcome.error}")
                continue
            if outcome.source not in ("store", "tuned", "deduped"):
                result.fail(f"request {outcome.planned}: source {outcome.source!r}")
                continue
            if outcome.source == "store":
                continue
            key, record = outcome.response["key"], outcome.response["record"]
            if created.setdefault(key, record) != record:
                result.fail(f"two cold answers disagree for key {key[:12]}")
        for outcome in outcomes:
            if outcome.source != "store":
                continue
            key, record = outcome.response["key"], outcome.response["record"]
            if created.get(key) != record:
                result.fail(
                    f"warm answer for {outcome.planned} differs from the cold "
                    f"answer that created key {key[:12]}"
                )
        self._check_sample(warm_up + outcomes, result)

    def _check_sample(self, outcomes: list[Outcome], result: Result) -> None:
        from repro.arch.specs import GTX680
        from repro.compiler.multiversion import MultiVersionBinary
        from repro.runtime.engine import ExecutionEngine
        from repro.runtime.session import TuningSession
        from repro.service.fingerprint import tuning_key

        answered = {}
        for outcome in outcomes:
            if outcome.response is not None:
                answered.setdefault(
                    (outcome.planned.kernel, outcome.planned.grid), outcome.response
                )
        rng = random.Random(f"perfbench-service-sample/{self.seed}")
        picks = sorted(answered)
        for pick in rng.sample(picks, min(SAMPLE_KEYS, len(picks))):
            response = answered[pick]
            planned = Planned(pick[0], pick[1], False)
            binary = MultiVersionBinary.from_bytes(self.kernels[pick[0]][3].to_bytes())
            workload = self.workload(planned)
            engine = ExecutionEngine(GTX680, backend="analytical")
            report = engine.run(TuningSession(binary, workload))
            key = tuning_key(
                binary, workload, GTX680.name, engine.backend.name,
                engine.cache_config.value, arch_fingerprint=GTX680.fingerprint(),
            )
            record = response["record"]
            expected = (
                key, report.final_label, report.final_version.achieved_warps,
                report.total_cycles, report.iterations_to_converge,
            )
            answered_as = (
                response["key"], record["winner_label"], record["winner_warps"],
                record["total_cycles"], record["iterations_to_converge"],
            )
            if expected != answered_as:
                result.fail(
                    f"ring answer {answered_as} for {pick} differs from the "
                    f"in-process engine's {expected}"
                )


def _latency_lines(outcomes: list[Outcome]) -> list[str]:
    warm = [o.scaled * 1000.0 for o in outcomes if o.source == "store"]
    cold = [o.scaled * 1000.0 for o in outcomes if o.source in ("tuned", "deduped")]
    return [
        f"warm requests = {len(warm)}, cold requests = {len(cold)}",
        *timing_lines("warm_ms", warm, 0.99),
        *timing_lines("cold_ms", cold, 0.9),
    ]


def _session(
    load: _Load, ring: Ring, seconds: float, result: Result, traced: bool
):
    """Start the ring, warm it up, drive it, stop it, check the answers.

    Returns the outcomes, the window's wall time, the installation when
    ``traced`` (wrappers are in place in this process only during the
    window) and the window's start and end clock.  The ring's start and
    warm-up, scaled, are added to ``load.setup_s``.
    """
    inst = None
    try:
        load.watch.start()
        ring.start()
        load.setup_s += load.watch.stop()[1]
        load.watch.start()
        warm_up = load.warm_up(ring)
        load.setup_s += load.watch.stop()[1]
        if traced:
            inst = layers.install()
        outcomes, wall, scaled, window = load.drive(ring, seconds)
    finally:
        if inst is not None:
            inst.uninstall()
        ring.stop()
    load.check(warm_up, outcomes, result)
    return outcomes, wall, scaled, inst, window


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    workdir = ROOT / ".perfbench-tmp" / f"service-{os.getpid()}"
    allowed = os.sched_getaffinity(0)
    # One CPU for this thread, so for the client threads and daemons
    # started from it, and for the gauge read between slices.
    os.sched_setaffinity(0, {max(allowed)})
    try:
        load = _Load(seed, None if trace else Gauge())
        if trace:
            _traced(load, seconds, workdir, result)
        else:
            _untraced(load, seconds, workdir, result)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    return result


def _untraced(load: _Load, seconds: float, workdir: Path, result: Result) -> None:
    ring = Ring(workdir, traced=False)
    outcomes, wall, scaled, _, _ = _session(load, ring, seconds, result, False)
    answered = [o for o in outcomes if o.response is not None]
    latencies = [o.scaled * 1000.0 for o in answered]
    result.metrics = {
        "setup_s": load.setup_s,
        "peak_rss_mb": ring.peak_rss_mb,
        "ops_per_s": len(latencies) / scaled,
        "op_ms.p50": stats.percentile(latencies, 0.5),
        "op_ms.p90": stats.percentile(latencies, 0.9),
    }
    result.lines += [
        f"window = {scaled:.3f} s scaled, {wall:.3f} s wall",
        f"service_rps = {len(latencies) / scaled:.3f} 1/s "
        f"({len(latencies) / wall:.3f} unscaled)",
        f"window CPU (daemons and load generator) = {load.window_cpu_s:.3f} s, "
        f"{load.window_cpu_s / max(1, len(latencies)) * 1000.0:.3f} ms per "
        f"request, {load.window_cpu_s / wall / nproc():.1%} of {nproc()} CPUs",
        *_latency_lines(outcomes),
        *gauge_lines(
            load.watch.gauge, [o.seconds * 1000.0 for o in answered], "op_ms"
        ),
        f"service.daemon_exit_timeouts = {ring.exit_timeouts}",
    ]
    for wrapper in tracing.installed_wrappers():
        result.problems.append(f"untraced run carries a wrapper: {wrapper}")


def _traced(load: _Load, seconds: float, workdir: Path, result: Result) -> None:
    """Half the time on an untraced ring, half on a traced one.

    Both halves send the same requests; ``bench.traced_s`` and
    ``bench.untraced_s`` are the window time per answered request.
    """
    plain = Ring(workdir / "plain", traced=False)
    outcomes, wall, _, _, _ = _session(load, plain, seconds / 2, result, False)
    untraced_s = wall / max(1, len(outcomes))
    ring = Ring(workdir / "traced", traced=True)
    outcomes, wall, _, inst, (start, end) = _session(
        load, ring, seconds / 2, result, True
    )
    dumps = ring.dumps()
    daemons = [
        s
        for dump in dumps
        for s in tracing.load_spans(dump)
        if start <= s.start and s.end <= end
    ]
    bench = inst.recorder.finished()
    result.spans = [inst.recorder.dump("bench"), *dumps]
    for problem in tracing.nesting_problems(bench + daemons):
        result.problems.append(f"span accounting: {problem}")
    result.metrics = layers.layer_metrics(
        "service", bench, daemons, dict(inst.recorder.counts),
        wall / max(1, len(outcomes)), untraced_s,
        exit_timeouts=plain.exit_timeouts + ring.exit_timeouts,
    )
    result.lines += _latency_lines(outcomes)
