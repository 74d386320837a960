"""The tracer and the SM loop against the reference ones they replaced.

``SMSimulator.run`` runs the flat-array loop on the flat traces the
simulator records; ``tests/sim/reference_sm.py`` keeps the event tracer,
its flat encoding, and the event-driven loop and memory subsystem as
the oracle.  Every warp's flat arrays must equal the encoding of its
reference events, and every ``SMResult`` field must agree: cycles,
instructions, each memory counter, issue stalls and barriers.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX680, TESLA_C2075, CacheConfig
from repro.bench.kernels import BENCHMARKS
from repro.harness.experiments import compiled
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.gpu import _cached_traces, simulate_kernel
from repro.sim.interp import Interpreter, LaunchConfig
from repro.sim.sm import SMSimulator
from repro.sim.trace import MemoryTraits, _trace_warp
from tests.helpers import module_from_asm
from tests.sim.reference_sm import (
    EventTrace,
    TraceEvent,
    _run_pure,
    flat_trace,
    generate_event_traces,
    trace_warp_events,
)

#: a small line pool, so warps hit each other's lines in L1 and L2;
#: the large entries take the hash past 32-bit tags
_LINES = st.sampled_from(
    [0, 128, 256, 4096, 8192, 1 << 20, (1 << 20) + 128, 1 << 40, 3 << 45]
)

_EVENT = st.one_of(
    st.sampled_from(
        [
            TraceEvent(unit=FuncUnit.ALU),
            TraceEvent(unit=FuncUnit.SFU),
            TraceEvent(unit=FuncUnit.CTRL),
            TraceEvent(unit=FuncUnit.SMEM, space=MemSpace.SHARED),
            TraceEvent(unit=FuncUnit.SYNC, barrier=True),
        ]
    ),
    st.builds(
        lambda space, lines: TraceEvent(
            unit=FuncUnit.MEM, space=space, lines=tuple(lines)
        ),
        st.sampled_from(list(MemSpace)),
        st.lists(_LINES, max_size=40),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    warps=st.lists(st.lists(_EVENT, max_size=30), min_size=1, max_size=10),
    warps_per_block=st.integers(1, 4),
    arch=st.sampled_from([GTX680, TESLA_C2075]),
    cache_config=st.sampled_from(list(CacheConfig)),
    ilp=st.sampled_from([1.0, 2.5]),
    divergence=st.sampled_from([1.0, 1.5]),
    swap=st.sampled_from([(0, 0), (1, 7), (3, 40), (5, 200)]),
)
def test_event_traces_match_the_reference(
    warps, warps_per_block, arch, cache_config, ilp, divergence, swap
):
    """Warps of unequal length with uneven barrier counts stand in for
    truncated traces: a finishing warp can release its block's barrier."""
    sim = SMSimulator(
        arch,
        cache_config,
        traits=MemoryTraits(divergence=divergence),
        ilp=ilp,
        swap_interval=swap[0],
        swap_latency=swap[1],
    )
    traces = [EventTrace(list(e)) for e in warps]
    result = sim.run([flat_trace(t) for t in traces], warps_per_block)
    reference = _run_pure(sim, traces, warps_per_block)
    assert asdict(result) == asdict(reference)


def _original(name, arch):
    """The benchmark's original version on ``arch``, its workload and
    launch, and its timing through ``simulate_kernel``."""
    spec = BENCHMARKS[name]
    wl = spec.workload
    version = compiled(spec, arch, strategy="local-spill").original
    launch = wl.launch()
    timing = simulate_kernel(
        arch,
        version.module,
        version.kernel_name,
        launch,
        regs_per_thread=version.regs_per_thread,
        smem_per_block=version.smem_per_block,
        traits=wl.traits,
        ilp=wl.ilp,
        max_events_per_warp=wl.max_events_per_warp,
        strategy=version.strategy,
    )
    return version, wl, launch, timing


def _reference_events(version, wl, launch, arch, resident):
    return generate_event_traces(
        version.module,
        version.kernel_name,
        launch,
        resident,
        traits=wl.traits,
        max_events_per_warp=wl.max_events_per_warp,
        line_bytes=arch.cache_line_bytes,
    )


def _assert_warps_match(
    events, module, kernel_name, launch, traits, max_events_per_warp, arch
):
    """Every warp ``simulate_kernel`` traced (its trace-cache entry) has
    the flat arrays and ``truncated`` flag of the reference tracer's
    events for the same warp, encoded."""
    traces = _cached_traces(
        module,
        kernel_name,
        launch,
        len(events),
        traits,
        max_events_per_warp,
        arch.cache_line_bytes,
    )
    assert len(traces) == len(events)
    for w, (trace, twin) in enumerate(zip(traces, events)):
        assert trace == flat_trace(twin), f"warp {w}"


_ARCHS = pytest.mark.parametrize(
    "arch", [GTX680, TESLA_C2075], ids=lambda a: a.name
)
_NAMES = pytest.mark.parametrize("name", sorted(BENCHMARKS))


@_ARCHS
@_NAMES
def test_benchmark_originals_match_the_reference(name, arch):
    """``simulate_kernel`` on its cached flat traces equals the
    reference loop on the reference tracer's event streams."""
    version, wl, launch, timing = _original(name, arch)
    events = _reference_events(
        version, wl, launch, arch, timing.resident_warps
    )
    sim = SMSimulator(arch, traits=wl.traits, ilp=wl.ilp)
    warps_per_block = (launch.block_size + arch.warp_size - 1) // arch.warp_size
    reference = _run_pure(sim, events, warps_per_block)
    assert asdict(timing.sm) == asdict(reference)
    assert reference.instructions > 0


@_ARCHS
@_NAMES
def test_benchmark_original_warps_match_the_reference_tracer(name, arch):
    version, wl, launch, timing = _original(name, arch)
    events = _reference_events(
        version, wl, launch, arch, timing.resident_warps
    )
    _assert_warps_match(
        events,
        version.module,
        version.kernel_name,
        launch,
        wl.traits,
        wl.max_events_per_warp,
        arch,
    )


def _every_space():
    """A loop touching every memory space, with a barrier and SFU work.
    Global addresses start at 1 GiB, so tags use the whole set hash, and
    the trip count grows with the block index, so a trace limit cuts
    some warps short and not others."""
    return module_from_asm(
        """
        .module spaces
        .kernel k shared=1024
        BB0:
            S2R %v0, %tid
            S2R %v1, %ctaid
            S2R %v2, %ntid
            IMAD %v3, %v1, %v2, %v0
            SHL %v4, %v3, 9
            IADD %v4, %v4, 1073741824
            LD.param %v5, [0]
            AND %v16, %v1, 3
            IMAD %v5, %v16, 8, %v5
            MOV %v6, 0
            MOV %v7, 0.0
            BRA HEAD
        HEAD:
            ISET.lt %v8, %v6, %v5
            CBR %v8, BODY, DONE
        BODY:
            IMAD %v9, %v6, 65536, %v4
            LD.global %v10, [%v9]
            FSQRT %v11, %v10
            ST.local [8], %v11
            SHL %v12, %v0, 2
            ST.shared [%v12], %v11
            BAR
            LD.shared %v13, [%v12]
            LD.local %v14, [8]
            FFMA %v7, %v13, %v14, %v7
            LD.param %v15, [4]
            IADD %v6, %v6, 1
            BRA HEAD
        DONE:
            ST.global [%v4], %v7
            EXIT
        .end
        """
    )


_SPACES_LAUNCH = LaunchConfig(grid_blocks=16, block_size=64, params={0: 6, 4: 1})
_SPACES_TRAITS = [
    MemoryTraits(),
    MemoryTraits(global_lane_stride=128, irregularity=0.4, active_lanes=8),
]


@pytest.mark.parametrize("traits", _SPACES_TRAITS, ids=["coalesced", "irregular"])
@pytest.mark.parametrize("arch", [GTX680, TESLA_C2075], ids=lambda a: a.name)
def test_every_memory_space_matches_the_reference(arch, traits):
    module = _every_space()
    timing = simulate_kernel(
        arch, module, "k", _SPACES_LAUNCH, regs_per_thread=16,
        smem_per_block=1024, traits=traits, max_events_per_warp=200,
    )
    events = generate_event_traces(
        module, "k", _SPACES_LAUNCH, timing.resident_warps, traits=traits,
        max_events_per_warp=200, line_bytes=arch.cache_line_bytes,
    )
    assert any(t.truncated for t in events) and not all(
        t.truncated for t in events
    )
    # No benchmark kernel reads param space: this kernel is the one
    # whose traced warps carry param loads.
    _assert_warps_match(
        events, module, "k", _SPACES_LAUNCH, traits, 200, arch
    )
    reference = _run_pure(SMSimulator(arch, traits=traits), events, 2)
    assert asdict(timing.sm) == asdict(reference)
    assert reference.memory.l1_hits and reference.memory.shared_accesses == 0


@pytest.mark.parametrize("traits", _SPACES_TRAITS, ids=["coalesced", "irregular"])
@pytest.mark.parametrize("limit", [40, 6000])
def test_flat_only_trace_matches_its_event_twin(limit, traits):
    """Same ``len()`` and ``truncated``, and the flat arrays the
    reference tracer's event stream encodes to."""
    module = _every_space()
    kernel = module.functions["k"]
    for w in range(8):
        flat = _trace_warp(
            Interpreter(module), kernel, _SPACES_LAUNCH, w, 2, traits,
            limit, 128,
        )
        twin = trace_warp_events(
            Interpreter(module), kernel, _SPACES_LAUNCH, w, 2, traits,
            limit, 128,
        )
        assert len(flat) == len(twin) > 0
        assert flat.truncated == twin.truncated == (limit == 40)
        assert flat == flat_trace(twin)
