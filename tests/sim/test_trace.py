"""Warp-trace generation tests."""

from repro.isa.instructions import MemSpace
from repro.sim.interp import LaunchConfig
from repro.sim.trace import (
    FLAT_ALU,
    FLAT_BARRIER,
    FLAT_CTRL,
    FLAT_MEM,
    FLAT_SMEM,
    FLAT_SP_LOCAL,
    MemoryTraits,
    generate_warp_traces,
    warp_lines,
)
from tests.helpers import call_kernel, loop_kernel, module_from_asm


def _accesses(trace):
    """(space code, lines) of each memory occurrence, in order."""
    codes, counts, spaces, lines = trace.flat
    cursor = 0
    for code, count, space in zip(codes, counts, spaces):
        if code == FLAT_MEM:
            yield space, tuple(lines[cursor:cursor + count])
            cursor += count


class TestWarpLines:
    def test_coalesced_is_one_line(self):
        traits = MemoryTraits(global_lane_stride=4)
        lines = warp_lines([0], MemSpace.GLOBAL, traits)[0]
        assert lines == (0,)

    def test_coalesced_straddling_two_lines(self):
        traits = MemoryTraits(global_lane_stride=4)
        lines = warp_lines([100], MemSpace.GLOBAL, traits)[0]
        assert lines == (0, 128)

    def test_fully_scattered_is_32_lines(self):
        traits = MemoryTraits(global_lane_stride=128)
        lines = warp_lines([0], MemSpace.GLOBAL, traits)[0]
        assert len(lines) == 32

    def test_active_lanes_limits_footprint(self):
        traits = MemoryTraits(global_lane_stride=128, active_lanes=4)
        lines = warp_lines([0], MemSpace.GLOBAL, traits)[0]
        assert len(lines) == 4

    def test_local_always_coalesced(self):
        traits = MemoryTraits(global_lane_stride=128)
        assert len(warp_lines([0], MemSpace.LOCAL, traits)[0]) == 1


class TestGeneration:
    def test_event_mix(self):
        module = loop_kernel()
        launch = LaunchConfig(grid_blocks=4, block_size=64, params={0: 5})
        traces = generate_warp_traces(module, "k", launch, resident_warps=4)
        assert len(traces) == 4
        codes = [code for t in traces for code in t.flat[0]]
        assert FLAT_MEM in codes
        assert FLAT_ALU in codes
        assert FLAT_CTRL in codes

    def test_loop_trip_count_drives_length(self):
        module = loop_kernel()
        short = generate_warp_traces(
            module, "k", LaunchConfig(block_size=32, params={0: 2}), 1
        )
        long = generate_warp_traces(
            module, "k", LaunchConfig(block_size=32, params={0: 20}), 1
        )
        assert len(long[0]) > len(short[0])

    def test_truncation(self):
        module = loop_kernel()
        launch = LaunchConfig(block_size=32, params={0: 10_000})
        traces = generate_warp_traces(
            module, "k", launch, 1, max_events_per_warp=100
        )
        assert traces[0].truncated
        assert len(traces[0]) == 100

    def test_warps_have_distinct_addresses(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                S2R %v1, %ctaid
                S2R %v2, %ntid
                IMAD %v3, %v1, %v2, %v0
                SHL %v4, %v3, 7
                LD.global %v5, [%v4]
                ST.global [%v4], %v5
                EXIT
            .end
            """
        )
        launch = LaunchConfig(grid_blocks=2, block_size=64)
        traces = generate_warp_traces(module, "k", launch, 4)
        first_lines = [next(_accesses(t))[1] for t in traces]
        assert len(set(first_lines)) == 4

    def test_calls_traced_through(self):
        module = call_kernel()
        launch = LaunchConfig(block_size=32)
        traces = generate_warp_traces(module, "k", launch, 1)
        ctrl = traces[0].flat[0].count(FLAT_CTRL)
        assert ctrl >= 3  # three dynamic calls

    def test_barriers_recorded(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=64
            BB0:
                S2R %v0, %tid
                SHL %v1, %v0, 2
                ST.shared [%v1], %v0
                BAR
                LD.shared %v2, [%v1]
                ST.global [%v1], %v2
                EXIT
            .end
            """
        )
        traces = generate_warp_traces(module, "k", LaunchConfig(block_size=64), 2)
        for t in traces:
            assert t.flat[0].count(FLAT_BARRIER) == 1
            assert FLAT_SMEM in t.flat[0]

    def test_local_addresses_interleaved_per_warp(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                ST.local [8], %v0
                LD.local %v1, [8]
                SHL %v2, %v0, 2
                ST.global [%v2], %v1
                EXIT
            .end
            """
        )
        traces = generate_warp_traces(module, "k", LaunchConfig(block_size=128), 4)
        local_lines = [
            next(
                lines for space, lines in _accesses(t)
                if space == FLAT_SP_LOCAL
            )
            for t in traces
        ]
        # Same local offset, different warps -> different cache lines.
        assert len(set(local_lines)) == 4
