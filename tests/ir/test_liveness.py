"""Liveness, max-live, and call-site liveness tests."""

from repro.ir.cfg import CFG
from repro.ir.liveness import analyze_liveness, instruction_liveness, max_live
from repro.isa.registers import VirtualReg
from tests.helpers import (
    call_kernel,
    copy_call_kernel,
    copy_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
)


def v(i, w=1):
    return VirtualReg(i, w)


class TestBlockLiveness:
    def test_straight_line_no_live_in(self):
        fn = straight_line_kernel().kernel()
        info = analyze_liveness(fn)
        assert info.live_in["BB0"] == set()
        assert info.live_out["BB0"] == set()

    def test_diamond_value_flows_to_join(self):
        fn = diamond_kernel().kernel()
        info = analyze_liveness(fn)
        # %v2 is defined in both arms and used at the join.
        assert v(2) in info.live_out["BBT"]
        assert v(2) in info.live_out["BBF"]
        assert v(2) in info.live_in["BBJ"]
        # %v0 is defined in BB0 and used in BBJ: live through both arms.
        assert v(0) in info.live_in["BBT"]
        assert v(0) in info.live_in["BBF"]

    def test_loop_carried_values(self):
        fn = loop_kernel().kernel()
        info = analyze_liveness(fn)
        # Accumulator and induction variable are live around the loop.
        assert v(2) in info.live_in["HEAD"]
        assert v(3) in info.live_in["HEAD"]
        assert v(2) in info.live_out["BODY"]

    def test_device_args_live_in_at_entry(self):
        module = call_kernel()
        scale = module.functions["scale"]
        info = analyze_liveness(scale)
        assert v(0) in info.live_in["BB0"]


class TestMaxLive:
    def test_straight_line_max_live(self):
        # Peak: %v0,%v1 live together, then %v3+%v4 etc.; hand count = 2.
        fn = straight_line_kernel().kernel()
        assert max_live(fn) == 2

    def test_wide_values_count_slots(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                LD.global %v1.w4, [%v0]
                LD.global %v2.w2, [%v0+16]
                FADD %v3, %v1.w4, %v2.w2
                ST.global [%v0], %v3
                EXIT
            .end
            """
        )
        # At the FADD: %v0 (1) + %v1 (4) + %v2 (2) = 7 slots.
        assert max_live(module.kernel()) == 7

    def test_parallel_chain_raises_max_live(self):
        lines = ["S2R %v0, %tid"]
        n = 10
        for i in range(1, n + 1):
            lines.append(f"LD.global %v{i}, [%v0+{4 * i}]")
        accum = "%v1"
        for i in range(2, n + 1):
            lines.append(f"IADD %v{n + i}, {accum}, %v{i}")
            accum = f"%v{n + i}"
        lines.append(f"ST.global [%v0], {accum}")
        lines.append("EXIT")
        body = "\n".join(f"    {line}" for line in lines)
        module = module_from_asm(
            f".module m\n.kernel k shared=0\nBB0:\n{body}\n.end"
        )
        assert max_live(module.kernel()) == n + 1  # all loads + %v0


class TestCallSiteLiveness:
    def test_values_live_across_call(self):
        module = call_kernel()
        fn = module.kernel()
        info = analyze_liveness(fn)
        sites = sorted(info.live_across_calls)
        assert len(sites) == 2
        first_call = info.live_across_calls[sites[0]]
        # %v1 (the address) survives the first call; %v2 does not.
        assert v(1) in first_call
        assert v(2) not in first_call

    def test_call_result_not_live_across_its_own_call(self):
        module = call_kernel()
        fn = module.kernel()
        info = analyze_liveness(fn)
        for live in info.live_across_calls.values():
            pass  # structural check above suffices; ensure no crash
        assert info.max_live >= 2


class TestCopyLiveness:
    def test_copy_beside_its_source_shares_a_slot(self):
        info = analyze_liveness(copy_kernel().kernel())
        assert info.max_live == 3  # %v1, %v2 and its copy %v3
        assert info.copy_max_live == 2

    def test_copy_after_its_source_dies_changes_nothing(self):
        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                SHL %v1, %v0, 2
                LD.global %v2, [%v1]
                MOV %v3, %v2
                FMUL %v4, %v3, 2.0
                ST.global [%v1], %v4
                EXIT
            .end
            """
        )
        info = analyze_liveness(module.kernel())
        assert info.max_live == info.copy_max_live == 2

    def test_copy_across_a_call_shares_a_slot(self):
        info = analyze_liveness(copy_call_kernel().kernel())
        (site,) = info.live_across_calls
        assert info.live_across_calls[site] == {v(1), v(2), v(3)}
        assert info.copy_live_across_calls[site] == {v(1), v(2)}


class TestInstructionLiveness:
    def test_live_after_final_store_is_empty(self):
        fn = straight_line_kernel().kernel()
        liveness = instruction_liveness(fn)
        last_idx = len(fn.blocks["BB0"].instructions) - 1
        assert liveness[("BB0", last_idx)] == set()

    def test_every_instruction_has_entry(self):
        fn = loop_kernel().kernel()
        liveness = instruction_liveness(fn)
        cfg = CFG(fn)
        total = sum(len(fn.blocks[b].instructions) for b in cfg.rpo)
        assert len(liveness) == total
