"""Scheduler-invariance of telemetry.

Each session's event subsequence — kinds, payloads, span ids — must be
identical whether the sessions run in turn or from N threads sharing
one engine (as the tuning daemon's tune workers do), because span ids
are allocated per session scope and all other event data is a pure
function of the session's own work.  Concurrency may only change how
the subsequences interleave into the global stream.

The sessions here run *disjoint* workloads (different grids), so no
cross-session measurement-cache races can blur hit/miss attribution.
"""

import pytest

from repro.arch import GTX680
from repro.compiler import CompileOptions, compile_binary
from repro.obs.telemetry import InMemorySink, TelemetryHub
from repro.runtime import Workload
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession
from repro.sim import LaunchConfig
from tests.helpers import run_on_threads
from tests.runtime.test_launcher import pressure_module


@pytest.fixture(scope="module")
def binary():
    return compile_binary(pressure_module(), "k", CompileOptions(arch=GTX680))


def sessions_for(binary):
    return [
        TuningSession(
            binary,
            Workload(
                launch=LaunchConfig(grid_blocks=16 * (i + 1), block_size=256),
                iterations=6,
                max_events_per_warp=1000,
            ),
            name=f"s{i}",
        )
        for i in range(3)
    ]


def run_engine(binary, threads):
    sink = InMemorySink()
    engine = ExecutionEngine(
        GTX680, telemetry=TelemetryHub(sink, record_wall=False)
    )
    reports = run_on_threads(engine, sessions_for(binary), threads)
    return reports, sink.events


def per_session_subsequences(events):
    scopes = {}
    for event in events:
        scopes.setdefault(event.session, []).append(
            (
                event.kind.value,
                tuple(sorted((k, repr(v)) for k, v in event.data.items())),
            )
        )
    return scopes


@pytest.mark.parametrize("threads", [2, 4])
def test_subsequences_invariant_under_scheduling(binary, threads):
    sequential_reports, sequential_events = run_engine(binary, threads=1)
    concurrent_reports, concurrent_events = run_engine(binary, threads)
    for a, b in zip(sequential_reports, concurrent_reports):
        assert a.total_cycles == b.total_cycles
        assert a.final_label == b.final_label
    assert per_session_subsequences(
        sequential_events
    ) == per_session_subsequences(concurrent_events)


def test_wall_suppression_holds_under_concurrency(binary):
    _, events = run_engine(binary, threads=4)
    assert all(event.wall is None for event in events)


def test_global_stream_is_seq_ordered(binary):
    _, events = run_engine(binary, threads=4)
    seqs = [event.seq for event in events]
    assert seqs == sorted(seqs)
