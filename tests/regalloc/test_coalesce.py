"""Copy-coalescing tests."""

import pytest

from repro.ir.interference import build_interference
from repro.ir.ssa import construct_ssa, destruct_ssa
from repro.isa.instructions import Opcode
from repro.isa.registers import VirtualReg
from repro.regalloc.coalesce import coalesce_moves
from repro.regalloc import allocate_module, minimal_budget
from repro.sim.interp import LaunchConfig, run_kernel
from tests.helpers import diamond_kernel, loop_kernel, module_from_asm


def _count_moves(fn):
    return sum(1 for i in fn.instructions() if i.opcode is Opcode.MOV)


class TestCoalesceMoves:
    def _prepared(self, make):
        fn = make().kernel()
        construct_ssa(fn)
        destruct_ssa(fn)
        return fn

    def test_phi_copies_coalesced(self):
        fn = self._prepared(loop_kernel)
        before = _count_moves(fn)
        graph = build_interference(fn)
        report = coalesce_moves(fn, graph, 16)
        assert report.merged_pairs > 0
        assert report.removed_moves > 0
        assert _count_moves(fn) < before

    def test_semantics_preserved(self):
        module = loop_kernel()
        launch = LaunchConfig(block_size=4, params={0: 6})
        expected = run_kernel(module, launch)
        fn = module.kernel()
        construct_ssa(fn)
        destruct_ssa(fn)
        coalesce_moves(fn, build_interference(fn), 16)
        module.validate()
        assert run_kernel(module, launch) == pytest.approx(expected)

    def test_interfering_pairs_not_merged(self):
        # %v0 is redefined while its copy %v1 is live, so the pair
        # interferes; %v2 copies %v0 after its last use, so that pair
        # does not.
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                MOV %v1, %v0
                IADD %v0, %v0, 1
                MOV %v2, %v0
                ST.global [%v2], %v1
                EXIT
            .end
            """
        )
        fn = module.kernel()
        v0, v1 = VirtualReg(0, 1), VirtualReg(1, 1)
        graph = build_interference(fn)
        assert graph.interferes(v0, v1)
        report = coalesce_moves(fn, graph, 8)
        assert report.replacements  # the %v2 copy merges
        for merged, kept in report.replacements.items():
            assert not graph.interferes(merged, kept)

        def final(v):
            return report.replacements.get(v, v)

        assert final(v0) != final(v1)
        rebuilt = build_interference(fn)
        for a in rebuilt.regs:
            assert a not in report.replacements

    def test_graph_left_intact(self):
        """The coalescer merges on copies of the graph's masks and
        degrees: the allocator colours the same graph when no pair
        merged, so it must read as built."""
        fn = self._prepared(loop_kernel)
        graph = build_interference(fn)
        before = (list(graph.fwd), list(graph.rev), list(graph.degree))
        report = coalesce_moves(fn, graph, 16)
        assert report.replacements
        assert (graph.fwd, graph.rev, graph.degree) == before

    def test_self_moves_removed(self):
        fn = self._prepared(diamond_kernel)
        coalesce_moves(fn, build_interference(fn), 16)
        for inst in fn.instructions():
            if inst.opcode is Opcode.MOV and inst.srcs:
                assert inst.dst != inst.srcs[0]


class TestAllocatorIntegration:
    def test_allocation_with_coalescing_still_correct(self):
        module = loop_kernel()
        launch = LaunchConfig(block_size=8, params={0: 5})
        expected = run_kernel(module, launch)
        smallest, _ = minimal_budget(module, "k")
        for budget in range(smallest, smallest + 4):
            outcome = allocate_module(module, "k", budget)
            assert run_kernel(outcome.module, launch) == pytest.approx(expected)

    def test_coalescing_reduces_emitted_moves(self):
        """End to end: the allocated loop kernel carries few copies."""
        module = loop_kernel()
        outcome = allocate_module(module, "k", 16)
        moves = _count_moves(outcome.module.functions["k"])
        # Loop kernel has 2 φ webs; naive lowering would emit 2 copies
        # per iteration edge plus initialisers.
        assert moves <= 4
