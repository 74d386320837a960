"""SM scheduler tests: latency hiding, barriers, determinism."""

from repro.arch import GTX680, TESLA_C2075
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.sm import SMSimulator
from tests.sim.reference_sm import EventTrace, TraceEvent, flat_trace


def alu(n=1):
    return [TraceEvent(unit=FuncUnit.ALU)] * n


def mem(address, space=MemSpace.GLOBAL):
    return TraceEvent(unit=FuncUnit.MEM, space=space, lines=(address,))


def barrier():
    return TraceEvent(unit=FuncUnit.SYNC, barrier=True)


def trace(events):
    return flat_trace(EventTrace(list(events)))


class TestBasics:
    def test_empty(self):
        result = SMSimulator(TESLA_C2075).run([], warps_per_block=8)
        assert result.cycles == 0

    def test_single_warp_alu_chain(self):
        result = SMSimulator(TESLA_C2075).run([trace(alu(10))], 1)
        # Ten dependent ALU ops at ~10 cycles each.
        assert 90 <= result.cycles <= 120
        assert result.instructions == 10

    def test_deterministic(self):
        traces = [
            trace(alu(3) + [mem(i << 20)] + alu(3)) for i in range(8)
        ]
        a = SMSimulator(TESLA_C2075).run(traces, 8)
        traces = [
            trace(alu(3) + [mem(i << 20)] + alu(3)) for i in range(8)
        ]
        b = SMSimulator(TESLA_C2075).run(traces, 8)
        assert a.cycles == b.cycles


class TestLatencyHiding:
    def test_more_warps_hide_memory_latency(self):
        """Same per-warp work: two warps nearly overlap, not serialise."""

        def make(i):
            return trace([mem((i + 1) << 20)] + alu(5))

        one = SMSimulator(TESLA_C2075).run([make(0)], 1)
        two = SMSimulator(TESLA_C2075).run([make(0), make(1)], 2)
        assert two.cycles < one.cycles * 1.5

    def test_ilp_shortens_dependent_chains(self):
        chain = [trace(alu(50))]
        slow = SMSimulator(TESLA_C2075, ilp=1.0).run(chain, 1)
        chain = [trace(alu(50))]
        fast = SMSimulator(TESLA_C2075, ilp=2.0).run(chain, 1)
        assert fast.cycles < slow.cycles

    def test_issue_width_matters_under_load(self):
        """Many ready warps: the wider-issue SM drains them faster."""
        def traces():
            return [trace(alu(40)) for _ in range(32)]

        narrow = SMSimulator(TESLA_C2075).run(traces(), 8)
        wide = SMSimulator(GTX680).run(traces(), 8)
        assert wide.cycles < narrow.cycles


class TestBarriers:
    def test_barrier_synchronises_block(self):
        # Warp 0 is slow before the barrier; warp 1 must wait for it.
        slow = trace(alu(30) + [barrier()] + alu(1))
        fast = trace(alu(1) + [barrier()] + alu(1))
        result = SMSimulator(TESLA_C2075).run([slow, fast], warps_per_block=2)
        assert result.barrier_count == 2
        # Total must reflect the slow warp's pre-barrier chain.
        assert result.cycles >= 300

    def test_blocks_do_not_wait_for_each_other(self):
        slow = trace(alu(30) + [barrier()] + alu(1))
        fast = trace(alu(1) + [barrier()] + alu(1))
        # warps_per_block=1: each warp is its own block; the fast block
        # finishes immediately.
        result = SMSimulator(TESLA_C2075).run([slow, fast], warps_per_block=1)
        two_blocks_cycles = result.cycles
        synced = SMSimulator(TESLA_C2075).run(
            [trace(alu(30) + [barrier()] + alu(1)),
             trace(alu(1) + [barrier()] + alu(1))],
            warps_per_block=2,
        )
        assert two_blocks_cycles <= synced.cycles

    def test_truncated_trace_does_not_deadlock_barrier(self):
        full = trace(alu(2) + [barrier()] + alu(2))
        truncated = trace(alu(1))  # never reaches the barrier
        result = SMSimulator(TESLA_C2075).run([full, truncated], 2)
        assert result.instructions == 6


class TestContention:
    def test_cache_contention_with_many_warps(self):
        """Per-warp working sets that fit alone, thrash together."""

        def make(i):
            events = []
            lines = [i * 4096 + j * 128 for j in range(8)]
            for _ in range(6):
                events.extend(mem(line, MemSpace.LOCAL) for line in lines)
            return trace(events)

        few = SMSimulator(GTX680).run([make(i) for i in range(4)], 8)
        many = SMSimulator(GTX680).run([make(i) for i in range(48)], 8)
        assert few.memory.l1_hit_rate > many.memory.l1_hit_rate
