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
from repro.sim import backend, gpu
from tests.helpers import run_on_threads


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
    the session traces exactly its highest resident-warp count."""
    binary = MultiVersionBinary.from_bytes(_srad().to_bytes())
    assert len({v.binary for v in binary.versions}) == 1
    traced = []
    resident = []
    trace_warp = gpu._trace_warp
    simulate = backend.simulate_kernel

    def counting_trace(*args, **kwargs):
        traced.append(args[3])
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
