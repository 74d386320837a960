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

from repro.arch import GTX680, GTX980, GTX1080, TESLA_C2075, CacheConfig
from repro.bench.kernels import BENCHMARKS
from repro.fuzz.generator import (
    PARAM_BASE_OFFSET,
    PARAM_BASE_VALUE,
    SHAPES,
    generate_module,
)
from repro.harness.experiments import compiled
from repro.isa.instructions import FuncUnit, MemSpace
from repro.regalloc.allocator import BudgetError, allocate_module
from repro.sim.gpu import _cached_traces, residency, simulate_kernel
from repro.sim.interp import Interpreter, LaunchConfig, run_kernel
from repro.sim.sm import SMSimulator
from repro.sim.trace import MemoryTraits, _trace_warp, generate_warp_traces
from tests.helpers import module_from_asm
from tests.regalloc.test_fuzz_allocation import random_kernel
from tests.sim import reference_interp
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
    # Shared space appears only as the SMEM-unit event above: neither
    # tracer records a MEM-unit shared access.
    st.builds(
        lambda space, lines: TraceEvent(
            unit=FuncUnit.MEM, space=space, lines=tuple(lines)
        ),
        st.sampled_from([s for s in MemSpace if s is not MemSpace.SHARED]),
        st.lists(_LINES, max_size=40),
    ),
)


def _assert_loop_matches_reference(sim, warps, warps_per_block):
    """``sim.run`` on the flat encoding of each warp's events returns
    the reference loop's ``SMResult``."""
    traces = [EventTrace(list(events)) for events in warps]
    result = sim.run([flat_trace(t) for t in traces], warps_per_block)
    assert asdict(result) == asdict(_run_pure(sim, traces, warps_per_block))


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
    _assert_loop_matches_reference(sim, warps, warps_per_block)


# Scheduling edge cases of the SM loop's two queues (a FIFO of ALU
# wake-ups beside a heap of every other one), each against the reference.
_ALU_EVENT = TraceEvent(unit=FuncUnit.ALU)
_CTRL_EVENT = TraceEvent(unit=FuncUnit.CTRL)
_BARRIER_EVENT = TraceEvent(unit=FuncUnit.SYNC, barrier=True)


def _load(line):
    return TraceEvent(unit=FuncUnit.MEM, space=MemSpace.GLOBAL, lines=(line,))


@pytest.mark.parametrize(
    "warps",
    [
        # The block's last running warp finishes on a DRAM load while
        # warp 0 waits at the barrier that ends its trace: the release
        # leaves ``finish`` at the load's completion.
        [[_ALU_EVENT, _BARRIER_EVENT], [_ALU_EVENT] * 3 + [_load(1 << 20)]],
        # Warp 1's barrier releases warp 0 and itself, both done: here
        # the release time is the finish.
        [[_BARRIER_EVENT], [_load(1 << 20), _BARRIER_EVENT]],
    ],
    ids=["released-by-a-finishing-warp", "released-at-the-barrier"],
)
def test_warp_ending_on_a_barrier(warps):
    _assert_loop_matches_reference(SMSimulator(GTX680), warps, 2)


@pytest.mark.parametrize(
    "warps",
    [
        [[], [_ALU_EVENT, _load(0), _ALU_EVENT], [], [_BARRIER_EVENT, _ALU_EVENT]],
        [[], []],
    ],
    ids=["beside-non-empty", "all-empty"],
)
def test_empty_trace(warps):
    _assert_loop_matches_reference(SMSimulator(GTX680), warps, 2)


@pytest.mark.parametrize("mem_warp", [0, 1])
def test_alu_wake_up_tied_with_a_memory_completion(mem_warp):
    """On the Tesla C2075 (one issue per cycle) with ``ilp=10`` an ALU
    wake-up comes one cycle after its issue, so the ALU warp, issuing
    alone, is ready at every whole cycle.  The other warp's first load
    misses to DRAM and completes at a whole cycle too, so both warps
    are ready at once.  The lower index must issue first, whichever
    queue holds it; the memory warp's second load (from a DRAM slot one
    cycle later or not) is its last instruction, so the order shows in
    the cycle count."""
    alu_warp = [_ALU_EVENT] * 600
    memory_warp = [_CTRL_EVENT, _load(1 << 20), _load(2 << 20)]
    warps = [memory_warp, alu_warp] if mem_warp == 0 else [alu_warp, memory_warp]
    _assert_loop_matches_reference(SMSimulator(TESLA_C2075, ilp=10.0), warps, 1)


def test_alu_wake_ups_tied_with_each_other():
    """A divergence so small that an ALU issue does not move the issue
    clock lets two ALU issues start at once: warp 1 issues at cycle 1,
    then warp 0, back from its CTRL, at cycle 1 too, and both are ready
    at cycle 11.  Warp 0 must go first although it woke second; who
    goes first takes the earlier DRAM slot, and only warp 1 has work
    after its load."""
    warps = [
        [_CTRL_EVENT, _ALU_EVENT, _load(1 << 20)],
        [_ALU_EVENT, _load(2 << 20)] + [_ALU_EVENT] * 100,
    ]
    sim = SMSimulator(TESLA_C2075, traits=MemoryTraits(divergence=1e-300))
    _assert_loop_matches_reference(sim, warps, 1)


def _swap_warps(count):
    """Mostly-ALU warps of uneven length, a load and a barrier each."""
    warps = []
    for w in range(count):
        head = [_ALU_EVENT] * (3 + w % 7) + [_load((w % 5) << 20)]
        tail = [_ALU_EVENT] * (2 + w % 3) + [_CTRL_EVENT] + [_ALU_EVENT] * (w % 4)
        warps.append(head + [_BARRIER_EVENT] + tail)
    return warps


@pytest.mark.parametrize("swap", [(1, 7), (3, 40)], ids=["every-1", "every-3"])
@pytest.mark.parametrize("arch", [GTX680, TESLA_C2075], ids=lambda a: a.name)
def test_swap_model_on_many_warps(arch, swap):
    """Swap-delayed ALU wake-ups break the issue order of ALU ready
    times: with an interval of 3 they interleave with undelayed ones."""
    sim = SMSimulator(arch, swap_interval=swap[0], swap_latency=swap[1])
    _assert_loop_matches_reference(sim, _swap_warps(40), 4)


#: mostly ALU work (seven in ten events), as in the benchmark traces
_MOSTLY_ALU = st.integers(0, 9).flatmap(
    lambda roll: st.just(_ALU_EVENT) if roll < 7 else _EVENT
)


@settings(max_examples=60, deadline=None)
@given(
    warps=st.lists(
        st.lists(_MOSTLY_ALU, min_size=8, max_size=60), min_size=16, max_size=48
    ),
    warps_per_block=st.integers(1, 4),
    arch=st.sampled_from([GTX680, TESLA_C2075]),
    ilp=st.sampled_from([1.0, 2.5, 10.0]),
    divergence=st.sampled_from([1.0, 1.5]),
    swap=st.sampled_from([(0, 0), (1, 7), (3, 40)]),
)
def test_deep_queues_match_the_reference(
    warps, warps_per_block, arch, ilp, divergence, swap
):
    """16 to 48 warps keep both queues deep (left to itself, hypothesis
    draws a few short warps), and whole-cycle latencies make ALU
    wake-ups tie with other wake-ups."""
    sim = SMSimulator(
        arch,
        traits=MemoryTraits(divergence=divergence),
        ilp=ilp,
        swap_interval=swap[0],
        swap_latency=swap[1],
    )
    _assert_loop_matches_reference(sim, warps, warps_per_block)


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


@pytest.mark.parametrize(
    "arch", [GTX680, TESLA_C2075, GTX980, GTX1080], ids=lambda a: a.name
)
@_NAMES
def test_benchmark_original_warps_match_the_reference_tracer(name, arch):
    """Every warp the trace cache records for every version of the fat
    binary, the original first, at the resident count
    ``simulate_kernel`` uses: versions sharing a module share one
    entry, traced to the largest count."""
    spec = BENCHMARKS[name]
    wl = spec.workload
    launch = wl.launch()
    resident_by_module: dict[int, tuple] = {}
    for version in compiled(spec, arch, strategy="local-spill").versions:
        _, _, _, resident = residency(
            arch,
            version.kernel_name,
            launch,
            version.regs_per_thread,
            version.smem_per_block,
            CacheConfig.SMALL_CACHE,
            None,
            version.strategy,
        )
        _, _, most = resident_by_module.get(id(version.module), (0, 0, 0))
        resident_by_module[id(version.module)] = (
            version.module, version.kernel_name, max(most, resident)
        )
    for module, kernel_name, resident in resident_by_module.values():
        events = generate_event_traces(
            module,
            kernel_name,
            launch,
            resident,
            traits=wl.traits,
            max_events_per_warp=wl.max_events_per_warp,
            line_bytes=arch.cache_line_bytes,
        )
        _assert_warps_match(
            events, module, kernel_name, launch, wl.traits,
            wl.max_events_per_warp, arch,
        )


_GROUP_LAUNCH = LaunchConfig(
    grid_blocks=3, block_size=96, params={PARAM_BASE_OFFSET: PARAM_BASE_VALUE}
)
_GROUP_TRAITS = MemoryTraits(irregularity=0.4, active_lanes=8)


def _assert_group_traces_match(module, limit):
    """Nine warps of three blocks, uncached, equal the per-thread
    tracer's, warp for warp."""
    kernel = module.kernel().name
    traces = generate_warp_traces(
        module, kernel, _GROUP_LAUNCH, 9, _GROUP_TRAITS, limit, 128
    )
    events = generate_event_traces(
        module, kernel, _GROUP_LAUNCH, 9, traits=_GROUP_TRAITS,
        max_events_per_warp=limit, line_bytes=128,
    )
    assert traces == [flat_trace(e) for e in events]


@pytest.mark.parametrize("shape", SHAPES)
def test_fuzz_module_warps_match_the_reference_tracer(shape):
    for seed in range(4):
        module = generate_module(seed, shape)
        _assert_group_traces_match(module, 6000)
        _assert_group_traces_match(module, 50)


@given(random_kernel())
@settings(max_examples=25, deadline=None)
def test_random_program_warps_match_the_reference_tracer(case):
    """The allocation fuzzer's programs, before and after allocation
    (frame-ABI calls, spills): their diamonds branch on the thread id,
    so traced groups and functional blocks split."""
    module, budget = case
    modules = [module]
    try:
        modules.append(allocate_module(module, "k", budget, block_size=96).module)
    except BudgetError:
        pass
    launch = LaunchConfig(grid_blocks=2, block_size=4)
    memory = {i * 4: float(i % 5 + 1) for i in range(64)}
    for program in modules:
        _assert_group_traces_match(program, 6000)
        assert reference_interp.reference_run_kernel(
            program, launch, global_memory=memory
        ) == run_kernel(program, launch, global_memory=memory)


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
    traces = _trace_warp(
        Interpreter(module), kernel, _SPACES_LAUNCH, range(8), 2, traits,
        limit, 128,
    )
    assert len(traces) == 8
    for w, flat in enumerate(traces):
        twin = trace_warp_events(
            reference_interp.Interpreter(module), kernel, _SPACES_LAUNCH, w,
            2, traits, limit, 128,
        )
        assert len(flat) == len(twin) > 0
        assert flat.truncated == twin.truncated == (limit == 40)
        assert flat == flat_trace(twin)
