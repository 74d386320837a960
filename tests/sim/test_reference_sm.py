"""The SM loop against the reference event loop it replaced.

``SMSimulator.run`` runs the flat-array loop; ``tests/sim/reference_sm.py``
keeps the event-driven loop and memory subsystem as the oracle.  Every
``SMResult`` field must agree: cycles, instructions, each memory
counter, issue stalls and barriers.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX680, TESLA_C2075, CacheConfig
from repro.bench.kernels import BENCHMARKS
from repro.harness.experiments import compiled
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.flat import _flatten_trace
from repro.sim.gpu import simulate_kernel
from repro.sim.interp import Interpreter, LaunchConfig
from repro.sim.sm import SMSimulator
from repro.sim.trace import (
    MemoryTraits,
    TraceEvent,
    WarpTrace,
    _trace_warp,
    generate_warp_traces,
)
from tests.helpers import module_from_asm
from tests.sim.reference_sm import _run_pure

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
    result = sim.run([WarpTrace(events=list(e)) for e in warps], warps_per_block)
    reference = _run_pure(
        sim, [WarpTrace(events=list(e)) for e in warps], warps_per_block
    )
    assert asdict(result) == asdict(reference)


@pytest.mark.parametrize("arch", [GTX680, TESLA_C2075], ids=lambda a: a.name)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_originals_match_the_reference(name, arch):
    """``simulate_kernel`` on its flat-only cached traces equals the
    reference loop on ``generate_warp_traces``' event streams."""
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
    events = generate_warp_traces(
        version.module,
        version.kernel_name,
        launch,
        timing.resident_warps,
        traits=wl.traits,
        max_events_per_warp=wl.max_events_per_warp,
        line_bytes=arch.cache_line_bytes,
    )
    sim = SMSimulator(arch, traits=wl.traits, ilp=wl.ilp)
    warps_per_block = (launch.block_size + arch.warp_size - 1) // arch.warp_size
    reference = _run_pure(sim, events, warps_per_block)
    assert asdict(timing.sm) == asdict(reference)
    assert reference.instructions > 0


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
    events = generate_warp_traces(
        module, "k", _SPACES_LAUNCH, timing.resident_warps, traits=traits,
        max_events_per_warp=200, line_bytes=arch.cache_line_bytes,
    )
    assert any(t.truncated for t in events) and not all(
        t.truncated for t in events
    )
    reference = _run_pure(SMSimulator(arch, traits=traits), events, 2)
    assert asdict(timing.sm) == asdict(reference)
    assert reference.memory.l1_hits and reference.memory.shared_accesses == 0


@pytest.mark.parametrize("traits", _SPACES_TRAITS, ids=["coalesced", "irregular"])
@pytest.mark.parametrize("limit", [40, 6000])
def test_flat_only_trace_matches_its_event_twin(limit, traits):
    """Same ``len()`` and ``truncated``, and the flat arrays the event
    stream encodes to; the flat-only trace records no events."""
    module = _every_space()
    kernel = module.functions["k"]
    for w in range(8):
        flat, twin = [
            _trace_warp(
                Interpreter(module), kernel, _SPACES_LAUNCH, w, 2, traits,
                limit, None, 128, collect_flat=collect_flat,
            )
            for collect_flat in (True, False)
        ]
        assert flat.events == [] and twin.flat is None
        assert len(flat) == len(twin) > 0
        assert flat.truncated == twin.truncated == (limit == 40)
        assert flat.flat == _flatten_trace(twin)
