"""Machine verifier tests."""

import pytest

from repro.ir.function import Function, Module
from repro.ir.verify import (
    VerificationError,
    assert_verified,
    verify_module,
)
from repro.isa.instructions import (
    CmpOp,
    Imm,
    Instruction,
    MemSpace,
    Opcode,
)
from repro.isa.registers import PhysReg, VirtualReg
from repro.regalloc import allocate_module
from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
)
from tests.ir.reference_verify import reference_verify_module


@pytest.mark.parametrize(
    "make", [straight_line_kernel, diamond_kernel, loop_kernel, call_kernel]
)
def test_clean_fixtures_verify(make):
    assert verify_module(make()) == []


def _kernel_with(instructions):
    module = Module("m")
    fn = Function("k", is_kernel=True)
    block = fn.add_block("BB0")
    for inst in instructions:
        block.append(inst)
    block.append(Instruction(Opcode.EXIT))
    module.add(fn)
    return module


class TestStructuralChecks:
    def test_comparison_without_predicate(self):
        module = _kernel_with(
            [Instruction(Opcode.ISET, dst=VirtualReg(0), srcs=[Imm(1), Imm(2)])]
        )
        issues = verify_module(module)
        assert any("predicate" in str(i) for i in issues)

    def test_memory_without_space(self):
        module = _kernel_with(
            [Instruction(Opcode.LD, dst=VirtualReg(0), srcs=[], offset=0)]
        )
        issues = verify_module(module)
        assert any("memory space" in str(i) for i in issues)

    def test_param_store_flagged(self):
        module = _kernel_with(
            [Instruction(Opcode.ST, srcs=[Imm(1)], space=MemSpace.PARAM)]
        )
        issues = verify_module(module)
        assert any("read-only" in str(i) for i in issues)

    def test_surviving_phi_flagged(self):
        fn = diamond_kernel().kernel()
        from repro.ir.ssa import construct_ssa

        construct_ssa(fn)
        module = Module("m")
        module.add(fn)
        issues = verify_module(module)
        assert any("φ" in str(i) for i in issues)

    def test_s2r_without_special(self):
        module = _kernel_with([Instruction(Opcode.S2R, dst=VirtualReg(0))])
        issues = verify_module(module)
        assert any("special" in str(i) for i in issues)


class TestDefinedness:
    def test_read_before_write_flagged(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                IADD %v1, %v0, 1
                ST.global [0], %v1
                EXIT
            .end
            """
        )
        issues = verify_module(module)
        assert any("before definition" in str(i) for i in issues)

    def test_one_armed_definition_flagged(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                ISET.lt %v1, %v0, 4
                CBR %v1, T, J
            T:
                MOV %v2, 1
                BRA J
            J:
                ST.global [0], %v2
                EXIT
            .end
            """
        )
        issues = verify_module(module)
        assert any("%v2" in str(i) for i in issues)

    def test_both_arms_defined_is_clean(self):
        assert verify_module(diamond_kernel()) == []

    def test_device_args_are_defined(self):
        assert verify_module(call_kernel()) == []


class TestPhysicalChecks:
    def test_allocated_modules_verify(self):
        # allocate_module runs the verifier internally; reaching here
        # without VerificationError is itself the test.
        outcome = allocate_module(call_kernel(), "k", 24)
        assert verify_module(outcome.module, physical=True, reg_budget=24) == []

    def test_misaligned_wide_flagged(self):
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(0), srcs=[Imm(0)]),
                Instruction(
                    Opcode.MOV, dst=PhysReg(1, 2), srcs=[Imm(0.0)]
                ),
            ]
        )
        issues = verify_module(module, physical=True)
        assert any("misaligned" in str(i) for i in issues)

    def test_budget_overflow_flagged(self):
        module = _kernel_with(
            [Instruction(Opcode.MOV, dst=PhysReg(30), srcs=[Imm(1)])]
        )
        issues = verify_module(module, physical=True, reg_budget=16)
        assert any("budget" in str(i) for i in issues)

    def test_leftover_virtual_flagged(self):
        module = _kernel_with(
            [Instruction(Opcode.MOV, dst=VirtualReg(5), srcs=[Imm(1)])]
        )
        issues = verify_module(module, physical=True)
        assert any("virtual register" in str(i) for i in issues)

    def test_value_abi_call_flagged(self):
        module = call_kernel()
        issues = verify_module(module, physical=True)
        assert any("value-ABI" in str(i) for i in issues)


class TestAssertVerified:
    def test_raises_with_issue_list(self):
        module = _kernel_with(
            [Instruction(Opcode.S2R, dst=VirtualReg(0))]
        )
        with pytest.raises(VerificationError) as excinfo:
            assert_verified(module)
        assert excinfo.value.issues

    def test_clean_module_passes(self):
        assert_verified(straight_line_kernel())


class TestWideArgDefinedness:
    def test_wide_argument_is_defined_at_entry(self):
        # Regression: entry definedness used to seed only the 32-bit
        # form of each argument, flagging every 64/96/128-bit argument
        # as read before definition.
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                LD.global %v0.w2, [0]
                CALL %v1, f(%v0.w2)
                ST.global [0], %v1
                EXIT
            .end
            .func f args=1 returns=1
            BB0:
                FADD %v1, %v0.w2, 0.0
                RET %v1
            .end
            """
        )
        assert verify_module(module) == []

    def test_undefined_wide_non_argument_still_flagged(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                FADD %v1, %v4.w2, 0.0
                ST.global [0], %v1
                EXIT
            .end
            """
        )
        issues = verify_module(module)
        assert any("before definition" in str(i) for i in issues)


class TestSlotLiveness:
    def test_wide_write_clobbering_live_narrow_flagged(self):
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(5)]),
                Instruction(Opcode.MOV, dst=PhysReg(0, 2), srcs=[Imm(0.0)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(1)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
            ]
        )
        issues = verify_module(module, physical=True)
        assert any("clobbers" in str(i) for i in issues)

    def test_one_write_clobbering_two_values_reports_in_numbering_order(self):
        # Values are numbered by first appearance: R1 before R0, so R1's
        # clobber is reported first although R0 is the lower slot.
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(5)]),
                Instruction(Opcode.MOV, dst=PhysReg(0), srcs=[Imm(1)]),
                Instruction(Opcode.MOV, dst=PhysReg(0, 2), srcs=[Imm(0.0)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(0)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(1)],
                    space=MemSpace.GLOBAL, offset=4,
                ),
            ]
        )
        issues = verify_module(module, physical=True)
        assert [str(i) for i in issues] == [
            f"k:BB0[2]: write to R0.w2 clobbers {reg}, which is still live "
            "in the overlapping slot(s)"
            for reg in ("R1", "R0")
        ]
        oracle = reference_verify_module(module, physical=True)
        assert sorted(map(str, oracle)) == sorted(map(str, issues))

    def test_overwrite_of_dead_value_is_clean(self):
        # Same wide write, but nothing reads R1 afterwards: reusing the
        # slots of a dead value is exactly what allocation is for.
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(5)]),
                Instruction(Opcode.MOV, dst=PhysReg(0, 2), srcs=[Imm(0.0)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(0, 2)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
            ]
        )
        assert verify_module(module, physical=True) == []

    def test_exact_redefinition_is_clean(self):
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(1)]),
                Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(2)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(1)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
            ]
        )
        assert verify_module(module, physical=True) == []

    def test_clobber_across_branch_flagged(self):
        # The overwrite sits on one path; the value is read at the join.
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                ISET.lt %v1, %v0, 4
                CBR %v1, T, J
            T:
                MOV %v2, 1
                BRA J
            J:
                ST.global [0], %v3
                EXIT
            .end
            """
        )
        k = module.kernel()
        # Rewrite to physical by hand: %v3 -> R1, the branch-arm MOV
        # overwrites R0.w2 (slots 0-1) while R1 holds the stored value.
        for block in k.ordered_blocks():
            for inst in block.instructions:
                if inst.dst == VirtualReg(2):
                    inst.dst = PhysReg(0, 2)
                elif inst.dst is not None:
                    inst.dst = PhysReg(4 + inst.dst.index)
                inst.srcs = [
                    PhysReg(4 + s.index) if isinstance(s, VirtualReg) else s
                    for s in inst.srcs
                ]
        # R5 (= old %v1) feeds the CBR, R7 (= old %v3) is stored at J but
        # never written: seed it so only the clobber is interesting.
        k.blocks["BB0"].instructions.insert(
            0, Instruction(Opcode.MOV, dst=PhysReg(1), srcs=[Imm(0)])
        )
        k.blocks["J"].instructions[0].srcs = [PhysReg(1)]
        issues = verify_module(module, physical=True)
        assert any("clobbers" in str(i) and "R0.w2" in str(i) for i in issues)

    def test_spill_slot_clobber_flagged(self):
        # A narrow local slot is overwritten by an overlapping wide
        # store while a later reload still needs it.
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(0), srcs=[Imm(1)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(0)],
                    space=MemSpace.LOCAL, offset=0,
                ),
                Instruction(Opcode.MOV, dst=PhysReg(2, 2), srcs=[Imm(0.0)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(2, 2)],
                    space=MemSpace.LOCAL, offset=0,
                ),
                Instruction(
                    Opcode.LD, dst=PhysReg(1), srcs=[],
                    space=MemSpace.LOCAL, offset=0,
                ),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(1)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
            ]
        )
        issues = verify_module(module, physical=True)
        assert any(
            "store to local[0..7] clobbers live value local[0..3]" in str(i)
            for i in issues
        )

    def test_disjoint_spill_slots_are_clean(self):
        module = _kernel_with(
            [
                Instruction(Opcode.MOV, dst=PhysReg(0), srcs=[Imm(1)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(0)],
                    space=MemSpace.LOCAL, offset=0,
                ),
                Instruction(Opcode.MOV, dst=PhysReg(2, 2), srcs=[Imm(0.0)]),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(2, 2)],
                    space=MemSpace.LOCAL, offset=8,
                ),
                Instruction(
                    Opcode.LD, dst=PhysReg(1), srcs=[],
                    space=MemSpace.LOCAL, offset=0,
                ),
                Instruction(
                    Opcode.ST, srcs=[PhysReg(1)],
                    space=MemSpace.GLOBAL, offset=0,
                ),
            ]
        )
        assert verify_module(module, physical=True) == []


def _frame_call_module(live_reg):
    """A kernel holding ``live_reg`` across a frame-ABI call to ``g``,
    where ``g``'s register window is slot 2 (its derived base)."""
    module = Module("m")
    k = Function("k", is_kernel=True)
    block = k.add_block("BB0")
    block.append(Instruction(Opcode.MOV, dst=live_reg, srcs=[Imm(7)]))
    block.append(Instruction(Opcode.CALL, callee="g"))
    block.append(
        Instruction(
            Opcode.ST, srcs=[live_reg], space=MemSpace.GLOBAL, offset=0
        )
    )
    block.append(Instruction(Opcode.EXIT))
    module.add(k)
    g = Function("g", is_kernel=False)
    gb = g.add_block("BB0")
    gb.append(Instruction(Opcode.MOV, dst=PhysReg(2), srcs=[Imm(1)]))
    gb.append(Instruction(Opcode.RET))
    module.add(g)
    return module


class TestFrameCallWindow:
    def test_live_value_inside_callee_window_flagged(self):
        issues = verify_module(_frame_call_module(PhysReg(2)), physical=True)
        assert any("register window" in str(i) for i in issues)

    def test_live_value_below_callee_window_is_clean(self):
        assert (
            verify_module(_frame_call_module(PhysReg(0)), physical=True) == []
        )


SAVES_ASM = """
.module m
.kernel k shared=0
BB0:
    S2R %v0, %tid
    SHL %v1, %v0, 2
    LD.global %v2, [%v1]
    LD.global %v3, [%v1+4]
    LD.global %v4, [%v1+8]
    LD.global %v5, [%v1+12]
    FADD %v6, %v3, %v4
    FADD %v7, %v6, %v5
    CALL %v8, f(%v2)
    FADD %v9, %v8, %v7
    CALL %v10, g(%v9)
    ST.global [%v1], %v10
    EXIT
.end
.func f args=1 returns=1
BB0:
    FADD %v1, %v0, 1.0
    RET %v1
.end
.func g args=1 returns=1
BB0:
    FMUL %v1, %v0, 2.0
    RET %v1
.end
"""


def _allocation_with_saves():
    """An allocation whose plan contains real compressible-stack saves.

    The identity-layout ablation (``movement_minimization=False``)
    leaves the address register above both callees' compressed heights,
    forcing a save/restore pair around each call site.
    """
    from repro.isa.assembly import parse_module

    outcome = allocate_module(
        parse_module(SAVES_ASM), "k", 12, movement_minimization=False
    )
    assert outcome.stack_moves > 0, "fixture must produce saves"
    return outcome


class TestStackProtocol:
    def test_allocation_with_saves_verifies(self):
        outcome = _allocation_with_saves()
        assert (
            verify_module(
                outcome.module, physical=True, reg_budget=12,
                interproc=outcome.interproc,
            )
            == []
        )

    def _mov_index(self, block, dst, src):
        for i, inst in enumerate(block.instructions):
            if (
                inst.opcode is Opcode.MOV
                and inst.dst == dst
                and inst.srcs == [src]
            ):
                return i
        raise AssertionError(f"no MOV {dst} <- {src} in block")

    def test_missing_restore_flagged(self):
        outcome = _allocation_with_saves()
        plan = outcome.interproc.plans["k"][0]
        _, from_rel, to_rel = plan.saves[0]
        block = outcome.module.functions["k"].blocks[plan.block]
        calls = [i for i, x in enumerate(block.instructions) if x.is_call]
        # The restore mirrors the save after the first call.
        idx = self._mov_index(
            block, PhysReg(from_rel), PhysReg(to_rel)
        )
        assert idx > calls[0]
        del block.instructions[idx]
        issues = verify_module(
            outcome.module, physical=True, interproc=outcome.interproc
        )
        assert any("unbalanced save/restore" in str(i) for i in issues)

    def test_missing_save_flagged(self):
        outcome = _allocation_with_saves()
        plan = outcome.interproc.plans["k"][0]
        _, from_rel, to_rel = plan.saves[0]
        block = outcome.module.functions["k"].blocks[plan.block]
        idx = self._mov_index(block, PhysReg(to_rel), PhysReg(from_rel))
        del block.instructions[idx]
        issues = verify_module(
            outcome.module, physical=True, interproc=outcome.interproc
        )
        assert any("missing save" in str(i) for i in issues)


class TestDeadFunctionElimination:
    def test_unreachable_function_dropped_not_flagged(self):
        # Regression (fuzz seed 129): an unreachable device function
        # kept its virtual registers and crashed the output verifier.
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                SHL %v1, %v0, 2
                LD.global %v2, [%v1]
                FADD %v3, %v2, 1.0
                ST.global [%v1], %v3
                EXIT
            .end
            .func orphan args=1 returns=1
            BB0:
                FMUL %v1, %v0, 2.0
                RET %v1
            .end
            """
        )
        outcome = allocate_module(module, "k", 8)
        assert "orphan" not in outcome.module.functions
        assert verify_module(outcome.module, physical=True) == []
        # The input module is untouched.
        assert "orphan" in module.functions
