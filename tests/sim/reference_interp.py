"""The per-thread interpreter, kept as the reference.

:mod:`repro.sim.interp` runs a group of threads in lockstep: one
dispatch per instruction, one value per thread in each register.  This
module keeps the interpreter it replaced, which runs one thread at a
time (lock-stepped at barriers) and offers the tracer a per-instruction
observer, as the oracle:

* :meth:`Interpreter.run` must leave the same global memory as
  :func:`repro.sim.interp.run_kernel` on race-free kernels;
* the event tracer in ``tests/sim/reference_sm.py`` drives
  :meth:`Interpreter._run_function` with an observer, one warp's lane 0
  at a time, and every warp the simulator traces must equal its
  encoded events.

It is the code :mod:`repro.sim` ran before, changed only where what it
used left :mod:`repro.sim`: it shares ``LaunchConfig``, ``InterpError``
and ``Value`` with the group interpreter, and computes each
instruction's plan instead of caching it on the instruction (the group
interpreter caches its own plan there).

Two calling conventions are understood, detected per call site:

* **value ABI** (pre-allocation): ``CALL dst, f(a, b)`` runs the callee
  with a fresh register environment seeded with the arguments;
* **frame ABI** (post-allocation): a bare ``CALL f`` transfers control
  within the *same* flat physical register file; argument and result
  slots were materialised by the allocator's MOVs.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.ir.function import Function, Module
from repro.isa.instructions import (
    CmpOp,
    Imm,
    Instruction,
    MemSpace,
    Opcode,
    Operand,
)
from repro.isa.registers import PhysReg, SpecialReg, VirtualReg
from repro.sim.interp import InterpError, LaunchConfig, Value


class _ThreadState:
    """Registers and local memory of one thread."""

    # Virtual and physical registers live in separate int-keyed dicts
    # (the namespaces cannot collide), which avoids building and hashing
    # a key tuple on every operand access in the hot loop.
    __slots__ = ("vregs", "pregs", "ret", "local", "tid", "ctaid")

    def __init__(self, tid: int, ctaid: int) -> None:
        self.vregs: dict[int, Value] = {}
        self.pregs: dict[int, Value] = {}
        self.ret: Value = 0
        self.local: dict[int, Value] = {}
        self.tid = tid
        self.ctaid = ctaid


_BARRIER = object()

_CMP = {
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LE: lambda a, b: a <= b,
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NE: lambda a, b: a != b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GE: lambda a, b: a >= b,
}


class Interpreter:
    """Executes kernels of one module over explicit memory state."""

    def __init__(self, module: Module, max_steps: int = 2_000_000) -> None:
        module.validate()
        self.module = module
        self.max_steps = max_steps
        #: Optional callable ``(inst, state, address)`` invoked for every
        #: executed instruction (address is None for non-memory ops).
        #: Used by the trace generator; may raise to stop execution.
        self.observer = None
        #: Address already computed for the observer of the instruction
        #: currently executing; consumed by ``_memory_op`` so memory ops
        #: do not resolve their effective address twice while tracing.
        self._pending_addr: int | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        kernel_name: str,
        launch: LaunchConfig,
        global_memory: dict[int, Value] | None = None,
    ) -> dict[int, Value]:
        """Execute a kernel launch; returns the final global memory."""
        kernel = self.module.functions[kernel_name]
        if not kernel.is_kernel:
            raise InterpError(f"{kernel_name} is not a kernel")
        memory = dict(global_memory or {})
        for block in range(launch.grid_blocks):
            self._run_block(kernel, launch, block, memory)
        return memory

    def _run_block(
        self,
        kernel: Function,
        launch: LaunchConfig,
        ctaid: int,
        memory: dict[int, Value],
    ) -> None:
        shared: dict[int, Value] = {}
        threads = []
        for tid in range(launch.block_size):
            state = _ThreadState(tid, ctaid)
            gen = self._run_function(
                kernel, state, launch, memory, shared, [0] * 0
            )
            threads.append(gen)

        # Lock-step at barriers: run every live thread to its next
        # barrier (or completion); repeat until all are done.
        live = list(threads)
        while live:
            still_running = []
            for gen in live:
                try:
                    token = next(gen)
                except StopIteration:
                    continue
                if token is not _BARRIER:
                    raise InterpError("unexpected yield from thread")
                still_running.append(gen)
            live = still_running

    # ------------------------------------------------------------------
    def _run_function(
        self,
        fn: Function,
        state: _ThreadState,
        launch: LaunchConfig,
        memory: dict[int, Value],
        shared: dict[int, Value],
        args: list[Value],
    ) -> Iterator[object]:
        """Generator executing ``fn``; yields at barriers, returns value."""
        for i, value in enumerate(args):
            state.vregs[i] = value

        label = fn.entry.label
        steps = 0
        index = 0
        block = fn.blocks[label]
        instructions = block.instructions
        return_value: Value = 0
        max_steps = self.max_steps
        # The observer is fixed for the lifetime of one run (set before
        # the generator starts, cleared only after it finishes), so it
        # can be read once instead of per executed instruction.
        observer = self.observer
        while True:
            if index >= len(instructions):
                raise InterpError(f"fell off block {label} in {fn.name}")
            inst = instructions[index]
            steps += 1
            if steps > max_steps:
                raise InterpError(
                    f"{fn.name} exceeded {self.max_steps} steps (infinite loop?)"
                )
            plan = _build_plan(inst)
            kind = plan[0]
            if observer is not None:
                if plan[2]:  # memory op: observer sees the address
                    address = self._effective_address(inst, state, launch)
                    observer(inst, state, address)
                    self._pending_addr = address
                else:
                    observer(inst, state, None)

            if kind == _K_SIMPLE:
                plan[1](self, inst, state, launch, memory, shared)
                index += 1
                continue
            if kind == _K_BRA:
                label = inst.targets[0]
                block = fn.blocks[label]
                instructions = block.instructions
                index = 0
                continue
            if kind == _K_CBR:
                cond = self._read(inst.srcs[0], state, launch)
                label = inst.targets[0] if cond else inst.targets[1]
                block = fn.blocks[label]
                instructions = block.instructions
                index = 0
                continue
            if kind == _K_EXIT:
                return
            if kind == _K_RET:
                if inst.srcs:
                    return_value = self._read(inst.srcs[0], state, launch)
                    state.ret = return_value
                return
            if kind == _K_BAR:
                yield _BARRIER
                index += 1
                continue
            if kind == _K_CALL:
                callee = self.module.functions[inst.callee]
                if inst.srcs or inst.dst is not None:
                    # value ABI: fresh environment for the callee.
                    arg_values = [
                        self._read(s, state, launch) for s in inst.srcs
                    ]
                    sub = _ThreadState(state.tid, state.ctaid)
                    sub.local = state.local  # local memory is per-thread
                    yield from self._run_function(
                        callee, sub, launch, memory, shared, arg_values
                    )
                    if inst.dst is not None:
                        self._write(inst.dst, sub.ret, state)
                else:
                    # frame ABI: same flat register file.
                    yield from self._run_function(
                        callee, state, launch, memory, shared, []
                    )
                index += 1
                continue
            raise InterpError("cannot interpret SSA form; destruct first")

    # ------------------------------------------------------------------
    def _memory_op(
        self,
        inst: Instruction,
        state: _ThreadState,
        launch: LaunchConfig,
        memory: dict[int, Value],
        shared: dict[int, Value],
    ) -> None:
        address = self._pending_addr
        if address is None:
            address = self._effective_address(inst, state, launch)
        else:
            self._pending_addr = None
        space = inst.space
        if space is MemSpace.PARAM:
            if inst.opcode is Opcode.ST:
                raise InterpError("param space is read-only")
            self._write(inst.dst, launch.params.get(address, 0), state)
            return
        if space is MemSpace.GLOBAL:
            target = memory
        elif space is MemSpace.SHARED:
            target = shared
        elif space is MemSpace.LOCAL:
            target = state.local
        else:
            raise InterpError(f"bad memory space {space}")

        if inst.opcode is Opcode.LD:
            self._write(inst.dst, target.get(address, 0), state)
        else:
            target[address] = self._read(inst.srcs[0], state, launch)

    def _effective_address(
        self, inst: Instruction, state: _ThreadState, launch: LaunchConfig
    ) -> int:
        if inst.opcode is Opcode.LD:
            base = inst.srcs[0] if inst.srcs else None
        else:
            base = inst.srcs[1] if len(inst.srcs) > 1 else None
        address = inst.offset
        if base is not None:
            address += int(self._read(base, state, launch))
        return address

    # ------------------------------------------------------------------
    def _read(
        self, op: Operand, state: _ThreadState, launch: LaunchConfig
    ) -> Value:
        # PhysReg first: the timing pipeline traces post-allocation
        # binaries, where almost every operand is physical.
        if isinstance(op, PhysReg):
            return state.pregs.get(op.index, 0)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, VirtualReg):
            return state.vregs.get(op.index, 0)
        if isinstance(op, SpecialReg):
            return self._special(op, state, launch)
        raise InterpError(f"cannot read operand {op!r}")

    def _write(self, dst: object, value: Value, state: _ThreadState) -> None:
        if isinstance(dst, VirtualReg):
            state.vregs[dst.index] = value
        elif isinstance(dst, PhysReg):
            state.pregs[dst.index] = value
        else:
            raise InterpError(f"cannot write operand {dst!r}")

    def _special(
        self, reg: SpecialReg, state: _ThreadState, launch: LaunchConfig
    ) -> int:
        if reg is SpecialReg.TID:
            return state.tid
        if reg is SpecialReg.CTAID:
            return state.ctaid
        if reg is SpecialReg.NTID:
            return launch.block_size
        if reg is SpecialReg.NCTAID:
            return launch.grid_blocks
        if reg is SpecialReg.LANEID:
            return state.tid % 32
        if reg is SpecialReg.WARPID:
            return state.tid // 32
        raise InterpError(f"unknown special register {reg}")


# ----------------------------------------------------------------------
# Dispatch table for straight-line opcodes (control flow stays in
# ``_run_function``).  One dict probe per instruction replaces the long
# if/elif chain the hot loop used to walk for every late-listed opcode.


# The ALU handler factories inline the common operand paths (physical
# register, immediate, virtual register — exact final classes, so the
# ``type() is`` probes equal the isinstance ladder) and fall back to the
# full ``_read``/``_write`` for special registers and error reporting.


def _unary(fn):
    def handler(interp, inst, state, launch, memory, shared):
        op = inst.srcs[0]
        t = type(op)
        if t is PhysReg:
            a = state.pregs.get(op.index, 0)
        elif t is Imm:
            a = op.value
        elif t is VirtualReg:
            a = state.vregs.get(op.index, 0)
        else:
            a = interp._read(op, state, launch)
        value = fn(a)
        dst = inst.dst
        if type(dst) is PhysReg:
            state.pregs[dst.index] = value
        elif type(dst) is VirtualReg:
            state.vregs[dst.index] = value
        else:
            interp._write(dst, value, state)

    return handler


def _binary(fn):
    def handler(interp, inst, state, launch, memory, shared):
        srcs = inst.srcs
        op = srcs[0]
        t = type(op)
        if t is PhysReg:
            a = state.pregs.get(op.index, 0)
        elif t is Imm:
            a = op.value
        elif t is VirtualReg:
            a = state.vregs.get(op.index, 0)
        else:
            a = interp._read(op, state, launch)
        op = srcs[1]
        t = type(op)
        if t is PhysReg:
            b = state.pregs.get(op.index, 0)
        elif t is Imm:
            b = op.value
        elif t is VirtualReg:
            b = state.vregs.get(op.index, 0)
        else:
            b = interp._read(op, state, launch)
        value = fn(a, b)
        dst = inst.dst
        if type(dst) is PhysReg:
            state.pregs[dst.index] = value
        elif type(dst) is VirtualReg:
            state.vregs[dst.index] = value
        else:
            interp._write(dst, value, state)

    return handler


def _ternary(fn):
    def handler(interp, inst, state, launch, memory, shared):
        srcs = inst.srcs
        op = srcs[0]
        t = type(op)
        if t is PhysReg:
            a = state.pregs.get(op.index, 0)
        elif t is Imm:
            a = op.value
        elif t is VirtualReg:
            a = state.vregs.get(op.index, 0)
        else:
            a = interp._read(op, state, launch)
        op = srcs[1]
        t = type(op)
        if t is PhysReg:
            b = state.pregs.get(op.index, 0)
        elif t is Imm:
            b = op.value
        elif t is VirtualReg:
            b = state.vregs.get(op.index, 0)
        else:
            b = interp._read(op, state, launch)
        op = srcs[2]
        t = type(op)
        if t is PhysReg:
            c = state.pregs.get(op.index, 0)
        elif t is Imm:
            c = op.value
        elif t is VirtualReg:
            c = state.vregs.get(op.index, 0)
        else:
            c = interp._read(op, state, launch)
        value = fn(a, b, c)
        dst = inst.dst
        if type(dst) is PhysReg:
            state.pregs[dst.index] = value
        elif type(dst) is VirtualReg:
            state.vregs[dst.index] = value
        else:
            interp._write(dst, value, state)

    return handler


def _op_s2r(interp, inst, state, launch, memory, shared):
    interp._write(inst.dst, interp._special(inst.special, state, launch), state)


def _op_selp(interp, inst, state, launch, memory, shared):
    pick = 1 if interp._read(inst.srcs[0], state, launch) else 2
    interp._write(inst.dst, interp._read(inst.srcs[pick], state, launch), state)


def _op_set(interp, inst, state, launch, memory, shared):
    a = interp._read(inst.srcs[0], state, launch)
    b = interp._read(inst.srcs[1], state, launch)
    interp._write(inst.dst, 1 if _CMP[inst.cmp](a, b) else 0, state)


def _op_nop(interp, inst, state, launch, memory, shared):
    return


_DISPATCH = {
    Opcode.S2R: _op_s2r,
    Opcode.MOV: _unary(lambda a: a),
    Opcode.SELP: _op_selp,
    Opcode.I2F: _unary(float),
    Opcode.F2I: _unary(int),
    # _memory_op's signature matches the handler convention, so LD/ST
    # dispatch straight to it with no wrapper frame.
    Opcode.LD: Interpreter._memory_op,
    Opcode.ST: Interpreter._memory_op,
    Opcode.ISET: _op_set,
    Opcode.FSET: _op_set,
    Opcode.NOP: _op_nop,
    Opcode.FRCP: _unary(lambda a: 1.0 / a if a else math.inf),
    Opcode.FSQRT: _unary(lambda a: math.sqrt(a) if a >= 0 else math.nan),
    Opcode.FEXP: _unary(lambda a: math.exp(min(a, 700.0))),
    Opcode.FLOG: _unary(lambda a: math.log(a) if a > 0 else -math.inf),
    Opcode.FSIN: _unary(math.sin),
    Opcode.IADD: _binary(lambda a, b: a + b),
    Opcode.ISUB: _binary(lambda a, b: a - b),
    Opcode.IMUL: _binary(lambda a, b: a * b),
    Opcode.IMIN: _binary(min),
    Opcode.IMAX: _binary(max),
    Opcode.AND: _binary(lambda a, b: int(a) & int(b)),
    Opcode.OR: _binary(lambda a, b: int(a) | int(b)),
    Opcode.XOR: _binary(lambda a, b: int(a) ^ int(b)),
    Opcode.SHL: _binary(lambda a, b: int(a) << int(b)),
    Opcode.SHR: _binary(lambda a, b: int(a) >> int(b)),
    Opcode.FADD: _binary(lambda a, b: a + b),
    Opcode.FSUB: _binary(lambda a, b: a - b),
    Opcode.FMUL: _binary(lambda a, b: a * b),
    Opcode.FMIN: _binary(min),
    Opcode.FMAX: _binary(max),
    Opcode.FDIV: _binary(lambda a, b: a / b if b else math.inf),
    Opcode.IMAD: _ternary(lambda a, b, c: a * b + c),
    Opcode.FFMA: _ternary(lambda a, b, c: a * b + c),
}


# Kind codes for the per-instruction execution plan.  Control-flow
# opcodes keep their inline handling in ``_run_function`` (they touch
# the loop's locals); straight-line opcodes carry their `_DISPATCH`
# handler in the plan.
_K_SIMPLE, _K_BRA, _K_CBR, _K_EXIT, _K_RET, _K_BAR, _K_CALL, _K_PHI = range(8)

_KIND_BY_OPCODE = {
    Opcode.BRA: _K_BRA,
    Opcode.CBR: _K_CBR,
    Opcode.EXIT: _K_EXIT,
    Opcode.RET: _K_RET,
    Opcode.BAR: _K_BAR,
    Opcode.CALL: _K_CALL,
    Opcode.PHI: _K_PHI,
}


def _op_unimplemented(interp, inst, state, launch, memory, shared):
    raise InterpError(f"unimplemented opcode {inst.opcode}")


def _build_plan(inst: Instruction) -> tuple:
    """``(kind, handler, is_memory)`` for one instruction."""
    kind = _KIND_BY_OPCODE.get(inst.opcode, _K_SIMPLE)
    handler = None
    if kind == _K_SIMPLE:
        handler = _DISPATCH.get(inst.opcode, _op_unimplemented)
    return (kind, handler, inst.is_memory)


def reference_run_kernel(
    module: Module,
    launch: LaunchConfig,
    kernel_name: str | None = None,
    global_memory: dict[int, Value] | None = None,
) -> dict[int, Value]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    name = kernel_name or module.kernel().name
    return Interpreter(module).run(name, launch, global_memory)
