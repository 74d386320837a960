"""The simulator's per-module warp-trace cache.

Versions that share a module (the padded variants of one allocation)
share its cached traces, so a tuning session traces each warp once;
and sessions measuring such versions concurrently must see exactly
the traces a sequential run sees.
"""

import os
import sys
from collections import OrderedDict

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession, Workload
import pytest

from repro.sim import backend, gpu
from repro.sim.interp import InterpError, LaunchConfig
from repro.sim.trace import MemoryTraits, generate_warp_traces
from tests.helpers import module_from_asm, run_on_threads
from tests.sim.reference_sm import flat_trace, generate_event_traces
from tests.sim.test_reference_sm import _SPACES_LAUNCH, _every_space


def _srad():
    """srad on GTX680: five versions, one allocation (padded variants)."""
    spec = BENCHMARKS["srad"]
    module = spec.build()
    return compile_binary(
        module,
        module.kernel().name,
        CompileOptions(
            arch=GTX680,
            block_size=spec.workload.block_size,
            can_tune=spec.workload.can_tune,
            strategy="local-spill",
        ),
        use_cache=False,
    )


def _workload(ilp: float = 1.0) -> Workload:
    wl = BENCHMARKS["srad"].workload
    return Workload(
        launch=wl.launch(),
        iterations=wl.iterations,
        traits=wl.traits,
        ilp=ilp,
        max_events_per_warp=wl.max_events_per_warp,
    )


def _rows(reports) -> list:
    return [
        None
        if r is None
        else (
            r.final_label,
            r.total_cycles,
            r.iterations_to_converge,
            [(rec.label, rec.cycles) for rec in r.records],
        )
        for r in reports
    ]


def test_session_traces_each_warp_once(monkeypatch):
    """A round-tripped binary's padded versions share one module, so
    the session traces exactly its highest resident-warp count (each
    call traces a range of warps as one group)."""
    binary = MultiVersionBinary.from_bytes(_srad().to_bytes())
    assert len({v.binary for v in binary.versions}) == 1
    traced = []
    resident = []
    trace_warp = gpu._trace_warp
    simulate = backend.simulate_kernel

    def counting_trace(*args, **kwargs):
        traced.extend(args[3])
        return trace_warp(*args, **kwargs)

    def recording_simulate(*args, **kwargs):
        timing = simulate(*args, **kwargs)
        resident.append(timing.resident_warps)
        return timing

    monkeypatch.setattr(gpu, "_trace_warp", counting_trace)
    monkeypatch.setattr(backend, "simulate_kernel", recording_simulate)
    engine = ExecutionEngine(GTX680, backend="timing")
    report = engine.run(TuningSession(binary, _workload(), name="srad"))
    assert len(set(resident)) > 1  # several occupancies measured
    assert len(traced) == max(resident)
    assert sorted(traced) == list(range(max(resident)))
    assert report.total_cycles > 0


def test_an_entry_filled_in_two_steps_equals_one_pass(monkeypatch):
    """Three warps, then eleven: the second group starts at warp 3, so
    each warp's block, thread id, irregularity draw and local lines
    must come from its absolute number.  The entry equals one uncached
    pass and the per-thread tracer, warp for warp."""
    monkeypatch.setattr(gpu, "_TRACE_CACHE", OrderedDict())
    calls = []
    trace_warp = gpu._trace_warp

    def recording_trace(*args, **kwargs):
        calls.append(args[3])
        return trace_warp(*args, **kwargs)

    monkeypatch.setattr(gpu, "_trace_warp", recording_trace)
    module = _every_space()
    traits = MemoryTraits(irregularity=0.4, active_lanes=8)
    first = gpu._cached_traces(module, "k", _SPACES_LAUNCH, 3, traits, 200, 128)
    both = gpu._cached_traces(module, "k", _SPACES_LAUNCH, 11, traits, 200, 128)
    assert calls == [range(0, 3), range(3, 11)]
    assert both[:3] == first
    assert both == generate_warp_traces(
        module, "k", _SPACES_LAUNCH, 11, traits, 200, 128
    )
    events = generate_event_traces(
        module, "k", _SPACES_LAUNCH, 11, traits=traits,
        max_events_per_warp=200, line_bytes=128,
    )
    assert both == [flat_trace(e) for e in events]
    # Warps 3, 9 and 10 draw the irregular stream (eight lines per
    # access), and some warps reach the trace limit.
    first_counts = [next(c for c in t.flat[1] if c) for t in both]
    assert first_counts[3:] == [8, 1, 1, 1, 1, 1, 8, 8]
    assert {t.truncated for t in both} == {True, False}


def test_an_error_while_tracing_leaves_the_entry_as_it_was(monkeypatch):
    """Block 2 stores to param space: a fill from warp 2 to warp 6
    raises at warp 4, and the entry keeps only the two warps it had,
    not warps 2 and 3 of the failed fill."""
    monkeypatch.setattr(gpu, "_TRACE_CACHE", OrderedDict())
    module = module_from_asm(
        """
        .module bad
        .kernel k shared=0
        BB0:
            S2R %v0, %ctaid
            ISET.eq %v1, %v0, 2
            CBR %v1, BAD, OK
        BAD:
            MOV %v2, 1
            ST.param [0], %v2
            EXIT
        OK:
            EXIT
        .end
        """
    )
    launch = LaunchConfig(grid_blocks=4, block_size=64)
    first = gpu._cached_traces(module, "k", launch, 2, None, 100, 128)
    with pytest.raises(InterpError, match="param space is read-only"):
        gpu._cached_traces(module, "k", launch, 6, None, 100, 128)
    ((_, traces, _),) = gpu._TRACE_CACHE.values()
    assert traces == first and len(traces) == 2


def test_concurrent_sessions_match_sequential(monkeypatch):
    """More threads than cores on one engine, each running a session on
    versions sharing one module, with the switch interval at its
    minimum: the reports must equal a sequential run's, the trace cache
    cold before each run."""
    binary = _srad()
    # capped so a many-core host does not tune for minutes
    sessions = min(16, max(4, 2 * (os.cpu_count() or 1) + 2))

    def run(threads: int) -> list:
        monkeypatch.setattr(gpu, "_TRACE_CACHE", OrderedDict())
        engine = ExecutionEngine(GTX680, backend="timing")
        return _rows(
            run_on_threads(
                engine,
                [
                    TuningSession(binary, _workload(1.0 + 0.25 * i), name=f"s{i}")
                    for i in range(sessions)
                ],
                threads,
            )
        )

    expected = run(1)
    assert None not in expected
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            assert run(sessions) == expected
    finally:
        sys.setswitchinterval(interval)
