"""Instruction model for the ORAS virtual GPU ISA.

The ISA is deliberately SASS-flavoured: three-address arithmetic over
32-bit register slots, wide (multi-slot) values, explicit memory spaces
(global / shared / local / param), barriers, and function calls (device
functions are *not* always inlined — the paper leans on this: even after
aggressive inlining, cfd retains 36 static calls, and intrinsics such as
floating-point division compile to calls).

Instructions are mutable on purpose — the middle end rewrites operands in
place during SSA renaming and register allocation — but every container
copy is deep (:meth:`Instruction.copy`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.registers import PhysReg, Reg, SpecialReg, VirtualReg


class MemSpace(enum.Enum):
    """Address spaces a load/store can touch."""

    GLOBAL = "global"
    SHARED = "shared"
    LOCAL = "local"  # thread-private; spill target; L1-cached
    PARAM = "param"  # kernel arguments (read-only)


class FuncUnit(enum.Enum):
    """Which pipeline an opcode occupies (drives simulator latency)."""

    ALU = "alu"
    SFU = "sfu"
    MEM = "mem"
    SMEM = "smem"
    CTRL = "ctrl"
    SYNC = "sync"


class CmpOp(enum.Enum):
    LT = "lt"
    LE = "le"
    EQ = "eq"
    NE = "ne"
    GT = "gt"
    GE = "ge"


class Opcode(enum.Enum):
    # Data movement
    MOV = "mov"
    SELP = "selp"  # dst = src0 ? src1 : src2
    S2R = "s2r"  # read special register
    I2F = "i2f"
    F2I = "f2i"
    # Integer ALU
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IMAD = "imad"  # dst = src0 * src1 + src2
    IMIN = "imin"
    IMAX = "imax"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    # Float ALU
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FFMA = "ffma"  # dst = src0 * src1 + src2
    FMIN = "fmin"
    FMAX = "fmax"
    # Special-function unit
    FDIV = "fdiv"
    FRCP = "frcp"
    FSQRT = "fsqrt"
    FEXP = "fexp"
    FLOG = "flog"
    FSIN = "fsin"
    # Comparisons (dst gets integer 0/1)
    ISET = "iset"
    FSET = "fset"
    # Memory
    LD = "ld"
    ST = "st"
    # Control
    BRA = "bra"
    CBR = "cbr"  # srcs[0] != 0 -> targets[0], else targets[1]
    CALL = "call"
    RET = "ret"
    EXIT = "exit"
    BAR = "bar"  # block-wide barrier
    NOP = "nop"
    PHI = "phi"  # SSA-only pseudo-instruction


#: Opcodes that end a basic block.
TERMINATORS = frozenset({Opcode.BRA, Opcode.CBR, Opcode.RET, Opcode.EXIT})

_TWO_SRC = frozenset(
    {
        Opcode.IADD,
        Opcode.ISUB,
        Opcode.IMUL,
        Opcode.IMIN,
        Opcode.IMAX,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FMIN,
        Opcode.FMAX,
        Opcode.FDIV,
        Opcode.ISET,
        Opcode.FSET,
    }
)

_SFU_OPS = frozenset(
    {Opcode.FDIV, Opcode.FRCP, Opcode.FSQRT, Opcode.FEXP, Opcode.FLOG, Opcode.FSIN}
)


@dataclass(frozen=True)
class Imm:
    """An immediate operand (int or float)."""

    value: int | float

    def __str__(self) -> str:
        return repr(self.value)


Operand = Reg | SpecialReg | Imm


@dataclass
class Instruction:
    """One ORAS instruction.

    ``targets`` holds basic-block labels for branches; ``callee`` names a
    device function for :data:`Opcode.CALL`; ``space``/``offset`` qualify
    memory operations (effective address = value(srcs' base) + offset).
    ``phi_args`` pairs predecessor-block labels with incoming operands
    and is only populated for :data:`Opcode.PHI`.
    """

    opcode: Opcode
    dst: Reg | None = None
    srcs: list[Operand] = field(default_factory=list)
    space: MemSpace | None = None
    offset: int = 0
    cmp: CmpOp | None = None
    targets: list[str] = field(default_factory=list)
    callee: str | None = None
    special: SpecialReg | None = None
    phi_args: list[tuple[str, Operand]] = field(default_factory=list)

    # Simulator-side cache (a class attribute, NOT a dataclass field: it
    # must stay out of __init__/__eq__/__repr__).  The interpreter's
    # plan — kind, handler and the unit the tracer records — depends
    # purely on ``opcode``, never on operands or the memory space, so it
    # cannot go stale under mutation by the allocator.
    _exec_plan = None  # repro.sim.interp execution plan

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LD, Opcode.ST)

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def func_unit(self) -> FuncUnit:
        if self.opcode in _SFU_OPS:
            return FuncUnit.SFU
        if self.is_memory:
            if self.space in (MemSpace.SHARED,):
                return FuncUnit.SMEM
            return FuncUnit.MEM
        if self.opcode is Opcode.BAR:
            return FuncUnit.SYNC
        if self.opcode in TERMINATORS or self.is_call:
            return FuncUnit.CTRL
        return FuncUnit.ALU

    def regs_read(self) -> list[Reg]:
        """Registers this instruction reads, in operand order."""
        read: list[Reg] = [
            s for s in self.srcs if isinstance(s, (VirtualReg, PhysReg))
        ]
        if self.opcode is Opcode.PHI:
            read.extend(
                op
                for _, op in self.phi_args
                if isinstance(op, (VirtualReg, PhysReg))
            )
        return read

    def regs_written(self) -> list[Reg]:
        return [self.dst] if self.dst is not None else []

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def replace_reg_uses(self, mapping: dict[Reg, Operand]) -> None:
        """Rewrite every read of a register per ``mapping`` (in place)."""
        self.srcs = [
            mapping.get(s, s) if isinstance(s, (VirtualReg, PhysReg)) else s
            for s in self.srcs
        ]
        if self.opcode is Opcode.PHI:
            self.phi_args = [
                (
                    block,
                    mapping.get(op, op)
                    if isinstance(op, (VirtualReg, PhysReg))
                    else op,
                )
                for block, op in self.phi_args
            ]

    def copy(self) -> "Instruction":
        return Instruction(
            opcode=self.opcode,
            dst=self.dst,
            srcs=list(self.srcs),
            space=self.space,
            offset=self.offset,
            cmp=self.cmp,
            targets=list(self.targets),
            callee=self.callee,
            special=self.special,
            phi_args=list(self.phi_args),
        )

    def __str__(self) -> str:
        from repro.isa.assembly import format_instruction

        return format_instruction(self)


# ----------------------------------------------------------------------
# Convenience constructors (keep benchmark/kernel builders readable)
# ----------------------------------------------------------------------
def mov(dst: Reg, src: Operand) -> Instruction:
    return Instruction(Opcode.MOV, dst=dst, srcs=[src])


def s2r(dst: Reg, special: SpecialReg) -> Instruction:
    return Instruction(Opcode.S2R, dst=dst, special=special)


def binary(opcode: Opcode, dst: Reg, a: Operand, b: Operand) -> Instruction:
    if opcode not in _TWO_SRC:
        raise ValueError(f"{opcode} is not a two-source opcode")
    return Instruction(opcode, dst=dst, srcs=[a, b])


def iset(dst: Reg, cmp: CmpOp, a: Operand, b: Operand) -> Instruction:
    return Instruction(Opcode.ISET, dst=dst, srcs=[a, b], cmp=cmp)


def fset(dst: Reg, cmp: CmpOp, a: Operand, b: Operand) -> Instruction:
    return Instruction(Opcode.FSET, dst=dst, srcs=[a, b], cmp=cmp)


def load(
    dst: Reg, space: MemSpace, base: Reg | None = None, offset: int = 0
) -> Instruction:
    srcs: list[Operand] = [base] if base is not None else []
    return Instruction(Opcode.LD, dst=dst, srcs=srcs, space=space, offset=offset)


def store(
    space: MemSpace, value: Operand, base: Reg | None = None, offset: int = 0
) -> Instruction:
    srcs: list[Operand] = [value]
    if base is not None:
        srcs.append(base)
    return Instruction(Opcode.ST, srcs=srcs, space=space, offset=offset)


def bra(target: str) -> Instruction:
    return Instruction(Opcode.BRA, targets=[target])


def cbr(cond: Operand, taken: str, not_taken: str) -> Instruction:
    return Instruction(Opcode.CBR, srcs=[cond], targets=[taken, not_taken])


def call(
    callee: str, args: list[Operand] | None = None, dst: Reg | None = None
) -> Instruction:
    return Instruction(Opcode.CALL, dst=dst, srcs=list(args or []), callee=callee)


def ret(value: Operand | None = None) -> Instruction:
    return Instruction(Opcode.RET, srcs=[value] if value is not None else [])


def bar() -> Instruction:
    return Instruction(Opcode.BAR)


def phi(dst: Reg, args: list[tuple[str, Operand]]) -> Instruction:
    return Instruction(Opcode.PHI, dst=dst, phi_args=list(args))
