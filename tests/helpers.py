"""Shared test utilities: small hand-written ORAS programs."""

from __future__ import annotations

from repro.ir.function import Function, Module
from repro.isa.assembly import parse_module


def module_from_asm(text: str) -> Module:
    module = parse_module(text)
    module.validate()
    return module


def straight_line_kernel() -> Module:
    """A branch-free kernel touching params, global memory, and ALU ops."""
    return module_from_asm(
        """
        .module straight
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            LD.param %v1, [0]
            IADD %v2, %v0, %v1
            SHL %v3, %v2, 2
            LD.global %v4, [%v3]
            FMUL %v5, %v4, 2.0
            ST.global [%v3], %v5
            EXIT
        .end
        """
    )


def diamond_kernel() -> Module:
    """If/else reconverging at an exit block."""
    return module_from_asm(
        """
        .module diamond
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            ISET.lt %v1, %v0, 16
            CBR %v1, BBT, BBF
        BBT:
            MOV %v2, 1
            BRA BBJ
        BBF:
            MOV %v2, 2
            BRA BBJ
        BBJ:
            SHL %v3, %v0, 2
            ST.global [%v3], %v2
            EXIT
        .end
        """
    )


def loop_kernel() -> Module:
    """A counted loop accumulating into a register, then storing."""
    return module_from_asm(
        """
        .module loopy
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            LD.param %v1, [0]
            MOV %v2, 0
            MOV %v3, 0
            BRA HEAD
        HEAD:
            ISET.lt %v4, %v3, %v1
            CBR %v4, BODY, DONE
        BODY:
            IADD %v2, %v2, %v3
            IADD %v3, %v3, 1
            BRA HEAD
        DONE:
            SHL %v5, %v0, 2
            ST.global [%v5], %v2
            EXIT
        .end
        """
    )


def call_kernel() -> Module:
    """A kernel calling a device function twice plus a nested call."""
    return module_from_asm(
        """
        .module callee
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            CALL %v3, scale(%v2)
            CALL %v4, scale(%v3)
            ST.global [%v1], %v4
            EXIT
        .end
        .func scale args=1 returns=1
        BB0:
            CALL %v1, offset(%v0)
            FMUL %v2, %v1, 3.0
            RET %v2
        .end
        .func offset args=1 returns=1
        BB0:
            FADD %v1, %v0, 1.0
            RET %v1
        .end
        """
    )


def copy_kernel() -> Module:
    """A register copy used beside its source: interference leaves the
    pair unconnected, so both fit one register."""
    return module_from_asm(
        """
        .module copy
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1+0]
            MOV %v3, %v2
            FADD %v4, %v2, %v3
            ST.global [%v1], %v4
            EXIT
        .end
        """
    )


def copy_call_kernel() -> Module:
    """A register copy and its source both live across a call."""
    return module_from_asm(
        """
        .module copycall
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 2
            LD.global %v2, [%v1]
            MOV %v3, %v2
            CALL %v4, scale(%v2)
            FADD %v5, %v2, %v3
            FADD %v6, %v5, %v4
            ST.global [%v1], %v6
            EXIT
        .end
        .func scale args=1 returns=1
        BB0:
            FMUL %v1, %v0, 3.0
            FADD %v2, %v1, %v0
            RET %v2
        .end
        """
    )


def wide_kernel() -> Module:
    """Uses 64-bit and 128-bit values to exercise wide allocation."""
    return module_from_asm(
        """
        .module wide
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            SHL %v1, %v0, 3
            LD.global %v2.w2, [%v1]
            LD.global %v3.w4, [%v1+16]
            FADD %v4.w2, %v2.w2, %v3.w4
            FMUL %v5, %v4.w2, 0.5
            ST.global [%v1], %v5
            EXIT
        .end
        """
    )


def pressure_kernel(n: int) -> Module:
    """A kernel holding ``n`` loaded values live at once."""
    lines = ["S2R %v0, %tid", "SHL %v1, %v0, 2"]
    lines += [f"LD.global %v{2 + i}, [%v1+{4 * i}]" for i in range(n)]
    accum = "%v2"
    for i in range(1, n):
        lines.append(f"FADD %v{100 + i}, {accum}, %v{2 + i}")
        accum = f"%v{100 + i}"
    lines += [f"ST.global [%v1], {accum}", "EXIT"]
    body = "\n".join(f"    {line}" for line in lines)
    return module_from_asm(f".module m\n.kernel k shared=0\nBB0:\n{body}\n.end")
