"""End-to-end allocation tests: every budget must preserve semantics.

The functional interpreter is the oracle: the allocated (physical,
frame-ABI) module must produce byte-identical global memory to the
original (virtual, value-ABI) module for every register budget tried —
including budgets small enough to force spilling, shared-memory
promotion, and compressible-stack save/restore moves.
"""

import pytest

from repro.isa.instructions import MemSpace, Opcode
from repro.isa.registers import PhysReg, VirtualReg
from repro.regalloc.allocator import (
    BudgetError,
    allocate_module,
    minimal_budget,
)
from repro.sim.interp import LaunchConfig, run_kernel
from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
    wide_kernel,
)


def assert_equivalent(module, outcome, launch, memory=None):
    expected = run_kernel(module, launch, global_memory=memory)
    actual = run_kernel(outcome.module, launch, global_memory=memory)
    assert actual == pytest.approx(expected)


def assert_fully_physical(outcome):
    for name in outcome.colorings:
        fn = outcome.module.functions[name]
        for reg in fn.all_regs():
            assert isinstance(reg, PhysReg), f"{name} still uses {reg}"
        top = fn.max_phys_slot()
        assert top <= outcome.registers_per_thread


LAUNCH = LaunchConfig(grid_blocks=1, block_size=8, params={0: 6})


class TestSimpleKernels:
    @pytest.mark.parametrize(
        "make", [straight_line_kernel, diamond_kernel, loop_kernel, wide_kernel]
    )
    def test_generous_budget_equivalent(self, make):
        module = make()
        memory = {i * 4: float(i % 7 + 1) for i in range(64)}
        outcome = allocate_module(module, "k", 32)
        assert outcome.spilled_variables == 0
        assert_fully_physical(outcome)
        assert_equivalent(module, outcome, LAUNCH, memory)

    @pytest.mark.parametrize(
        "make", [straight_line_kernel, diamond_kernel, loop_kernel]
    )
    def test_every_feasible_budget_equivalent(self, make):
        module = make()
        memory = {i * 4: float(i % 5 + 1) for i in range(64)}
        smallest, _ = minimal_budget(module, "k")
        for budget in range(smallest, smallest + 6):
            outcome = allocate_module(module, "k", budget)
            assert_fully_physical(outcome)
            assert_equivalent(module, outcome, LAUNCH, memory)

    def test_tiny_budget_forces_spills_but_stays_correct(self):
        module = loop_kernel()
        memory = {i * 4: 0.0 for i in range(16)}
        smallest, _ = minimal_budget(module, "k")
        # Squeeze below the spill-free minimum.
        for budget in range(2, smallest):
            try:
                outcome = allocate_module(module, "k", budget)
            except BudgetError:
                continue
            assert outcome.spilled_variables > 0
            assert outcome.local_bytes_per_thread > 0
            assert_equivalent(module, outcome, LAUNCH, memory)

    def test_registers_reported_not_exceeding_budget(self):
        module = diamond_kernel()
        outcome = allocate_module(module, "k", 16)
        assert outcome.registers_per_thread <= 16


class TestCalls:
    def test_call_tree_equivalent_generous(self):
        module = call_kernel()
        memory = {4 * t: float(t) for t in range(8)}
        outcome = allocate_module(module, "k", 24)
        assert_fully_physical(outcome)
        assert_equivalent(module, outcome, LaunchConfig(block_size=8), memory)

    def test_call_tree_all_budgets(self):
        module = call_kernel()
        memory = {4 * t: float(t) for t in range(8)}
        smallest, _ = minimal_budget(module, "k")
        for budget in range(smallest, smallest + 8):
            outcome = allocate_module(module, "k", budget)
            assert_equivalent(
                module, outcome, LaunchConfig(block_size=8), memory
            )

    def test_calls_are_frame_abi_after_allocation(self):
        outcome = allocate_module(call_kernel(), "k", 24)
        for inst in outcome.module.functions["k"].instructions():
            if inst.is_call:
                assert inst.srcs == [] and inst.dst is None

    def test_space_minimization_lowers_register_count(self):
        """The Fig. 5 'no space minimization' ablation uses more slots."""
        module = _deep_call_module()
        memory = {4 * t: float(t + 1) for t in range(8)}
        opt = allocate_module(module, "k", 64, space_minimization=True)
        unopt = allocate_module(module, "k", 64, space_minimization=False)
        assert opt.registers_per_thread <= unopt.registers_per_thread
        launch = LaunchConfig(block_size=8)
        assert_equivalent(module, opt, launch, memory)
        assert_equivalent(module, unopt, launch, memory)

    def test_movement_minimization_reduces_moves(self):
        """The Fig. 5 'no data movement minimization' ablation moves more."""
        module = _movement_heavy_module()
        memory = {4 * t: float(t + 1) for t in range(8)}
        opt = allocate_module(module, "k", 12, movement_minimization=True)
        unopt = allocate_module(module, "k", 12, movement_minimization=False)
        assert opt.stack_moves <= unopt.stack_moves
        launch = LaunchConfig(block_size=4)
        assert_equivalent(module, opt, launch, memory)
        assert_equivalent(module, unopt, launch, memory)

    def test_live_values_survive_across_call(self):
        """Values live across calls must be compressed and restored."""
        module = _movement_heavy_module()
        memory = {4 * t: float(t + 1) for t in range(8)}
        smallest, _ = minimal_budget(module, "k")
        for budget in range(smallest, smallest + 4):
            outcome = allocate_module(module, "k", budget)
            assert_equivalent(
                module, outcome, LaunchConfig(block_size=4), memory
            )


class TestSharedPromotion:
    def test_promotion_moves_spills_to_shared(self):
        module = _high_pressure_module()
        memory = {4 * t: float(t) for t in range(64)}
        base = allocate_module(module, "k", 4)
        assert base.spilled_variables > 0
        promoted = allocate_module(
            module, "k", 4, smem_spill_budget_per_thread=64, block_size=8
        )
        assert promoted.shared_bytes_per_block > 0
        shared_ops = [
            i
            for i in promoted.module.functions["k"].instructions()
            if i.is_memory and i.space is MemSpace.SHARED
        ]
        assert shared_ops
        launch = LaunchConfig(block_size=8)
        assert_equivalent(module, base, launch, memory)
        assert_equivalent(module, promoted, launch, memory)

    def test_promotion_reduces_local_traffic(self):
        module = _high_pressure_module()
        base = allocate_module(module, "k", 4)
        promoted = allocate_module(
            module, "k", 4, smem_spill_budget_per_thread=64, block_size=8
        )
        def local_ops(outcome):
            return sum(
                1
                for i in outcome.module.functions["k"].instructions()
                if i.is_memory and i.space is MemSpace.LOCAL
            )
        assert local_ops(promoted) < local_ops(base)


class TestFailureModes:
    def test_zero_budget_rejected(self):
        with pytest.raises(BudgetError):
            allocate_module(straight_line_kernel(), "k", 0)

    def test_hopeless_budget_rejected(self):
        module = wide_kernel()  # holds a w4 value: needs >= 4 slots
        with pytest.raises(BudgetError):
            allocate_module(module, "k", 2)

    def test_input_module_unmodified(self):
        module = loop_kernel()
        before = str(module)
        allocate_module(module, "k", 16)
        assert str(module) == before


# ----------------------------------------------------------------------
# Purpose-built fixtures
# ----------------------------------------------------------------------
def _deep_call_module():
    """Nested calls with values held across them (space-min matters)."""
    return module_from_asm(
        """
        .module deep
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            FMUL %v3, %v2, 2.0
            FADD %v4, %v2, 1.0
            FMUL %v5, %v2, 3.0
            CALL %v6, f(%v2)
            FADD %v7, %v6, %v3
            FADD %v8, %v7, %v4
            FADD %v9, %v8, %v5
            ST.global [%v1], %v9
            EXIT
        .end
        .func f args=1 returns=1
        BB0:
            FMUL %v1, %v0, 1.5
            FADD %v2, %v0, 0.5
            CALL %v3, g(%v1)
            FADD %v4, %v3, %v2
            RET %v4
        .end
        .func g args=1 returns=1
        BB0:
            FADD %v1, %v0, 10.0
            RET %v1
        .end
        """
    )


def _movement_heavy_module():
    """Several values live across several calls: layout choice matters."""
    return module_from_asm(
        """
        .module movers
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            FADD %v3, %v2, 1.0
            FADD %v4, %v2, 2.0
            FADD %v5, %v2, 3.0
            CALL %v6, tiny(%v2)
            FADD %v7, %v6, %v3
            CALL %v8, tiny(%v7)
            FADD %v9, %v8, %v4
            CALL %v10, tiny(%v9)
            FADD %v11, %v10, %v5
            ST.global [%v1], %v11
            EXIT
        .end
        .func tiny args=1 returns=1
        BB0:
            FMUL %v1, %v0, 2.0
            RET %v1
        .end
        """
    )


def _high_pressure_module():
    """Many simultaneously live values: spills at small budgets."""
    lines = ["S2R %v0, %tid", "SHL %v1, %v0, 2"]
    n = 8
    for i in range(n):
        lines.append(f"LD.global %v{2 + i}, [%v1+{32 * i}]")
    accum = "%v2"
    for i in range(1, n):
        lines.append(f"FADD %v{10 + i}, {accum}, %v{2 + i}")
        accum = f"%v{10 + i}"
    lines.append(f"ST.global [%v1], {accum}")
    lines.append("EXIT")
    body = "\n".join(f"    {line}" for line in lines)
    return module_from_asm(
        f".module hp\n.kernel k shared=0\nBB0:\n{body}\n.end"
    )
