"""Interference-graph construction tests."""

from repro.ir.interference import build_interference, move_pairs
from repro.isa.registers import VirtualReg
from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
)


def v(i, w=1):
    return VirtualReg(i, w)


class TestConstruction:
    def test_straight_line_chain(self):
        fn = straight_line_kernel().kernel()
        graph = build_interference(fn)
        # %v0 (tid) is live until %v2 is defined: they interfere.
        assert graph.interferes(v(0), v(1))
        # %v4 defined after %v0's last use at... %v0 dies at IADD; the
        # loaded value and the address register coexist.
        assert graph.interferes(v(3), v(4))

    def test_non_overlapping_do_not_interfere(self):
        fn = straight_line_kernel().kernel()
        graph = build_interference(fn)
        # %v1 dies at IADD (its only use); %v5 is defined much later.
        assert not graph.interferes(v(1), v(5))

    def test_loop_carried_interference(self):
        fn = loop_kernel().kernel()
        graph = build_interference(fn)
        # accumulator and induction variable are both live in the loop.
        assert graph.interferes(v(2), v(3))

    def test_branch_arms_interfere_with_shared_values(self):
        fn = diamond_kernel().kernel()
        graph = build_interference(fn)
        # %v0 (tid) is used at the join: live through both arms, so it
        # interferes with the per-arm definition of %v2.
        assert graph.interferes(v(0), v(2))

    def test_move_does_not_create_interference(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                MOV %v1, %v0
                SHL %v2, %v1, 2
                ST.global [%v2], %v1
                EXIT
            .end
            """
        )
        graph = build_interference(module.kernel())
        # Chaitin's move refinement: MOV dst and src may share a slot.
        assert not graph.interferes(v(0), v(1))

    def test_device_args_interfere_with_each_other(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                CALL %v0, f(1, 2)
                ST.global [0], %v0
                EXIT
            .end
            .func f args=2 returns=1
            BB0:
                IADD %v2, %v0, %v1
                RET %v2
            .end
            """
        )
        graph = build_interference(module.functions["f"])
        assert graph.interferes(v(0), v(1))

    def test_blocking_degree_counts_widths(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                LD.global %v1.w2, [%v0]
                FADD %v2, %v1.w2, 1.0
                ST.global [%v0], %v2
                ST.global [%v0+4], %v1.w2
                EXIT
            .end
            """
        )
        graph = build_interference(module.kernel())
        degree = graph.degree[graph.regs.index(v(0))]
        assert degree >= 2  # w2 counts 2


class TestMovePairs:
    def test_collects_reg_to_reg_moves(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                MOV %v1, %v0
                MOV %v2, 5
                ST.global [%v1], %v2
                EXIT
            .end
            """
        )
        pairs = move_pairs(module.kernel())
        assert (v(1), v(0)) in pairs
        assert all(isinstance(src, VirtualReg) for _, src in pairs)


class TestGraphOps:
    def test_len_counts_nodes(self):
        fn = straight_line_kernel().kernel()
        graph = build_interference(fn)
        assert len(graph) == len(fn.all_regs())
