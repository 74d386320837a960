"""Functional interpreter for ORAS modules: threads run as lockstep groups.

This is the correctness oracle of the reproduction, and the tracer's
engine.  A *group* of threads executes one instruction at a time: the
instruction is dispatched once for the whole group, and each register
holds one value per thread.  Running the same kernel before and after
Orion's allocation — and asserting identical global memory — proves
that colouring, spilling, shared-memory promotion, and the compressible
stack's save/restore protocol preserve semantics.  The tracer
(:mod:`repro.sim.trace`) runs the representative lanes of many warps
as one group.

A conditional branch on which a group disagrees splits it in two; the
halves never merge again.  :meth:`Interpreter.run` makes each block's
threads one group and runs the block's subgroups in a fixed order,
lowest thread first, each to its next barrier or exit; a barrier
releases when every live subgroup of the block has reached one.

Two calling conventions are understood, detected per call site:

* **value ABI** (pre-allocation): ``CALL dst, f(a, b)`` runs the callee
  with a fresh register environment seeded with the arguments;
* **frame ABI** (post-allocation): a bare ``CALL f`` transfers control
  within the *same* flat physical register file; argument and result
  slots were materialised by the allocator's MOVs.

Values are Python ints/floats (a logical simulation, not a bit-accurate
one); memory is word-addressed and sparse.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

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

Value = int | float


class InterpError(RuntimeError):
    """Raised on runaway execution or malformed programs."""


@dataclass
class LaunchConfig:
    """Launch geometry plus kernel parameters (the ``param`` space)."""

    grid_blocks: int = 1
    block_size: int = 32
    params: dict[int, Value] = field(default_factory=dict)

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.block_size


class _Env:
    """One register environment: per register, one value per thread.

    Virtual and physical registers live in separate int-keyed dicts
    (the namespaces cannot collide).  Value lists are never mutated in
    place, so a register may alias another's list (``MOV``), a thread-id
    list or the group's zeros.  ``ret`` is the value a ``RET`` left for
    a value-ABI caller (``None``: zeros).
    """

    __slots__ = ("vregs", "pregs", "ret")

    def __init__(self, vregs=None, pregs=None, ret=None) -> None:
        self.vregs: dict[int, list[Value]] = {} if vregs is None else vregs
        self.pregs: dict[int, list[Value]] = {} if pregs is None else pregs
        self.ret: list[Value] | None = ret


class _Frame:
    """One active function of a group: where it is, its step count and
    its registers (a frame-ABI callee shares its caller's ``env``).
    ``call`` is the value-ABI ``CALL`` that entered it, else ``None``."""

    __slots__ = ("fn", "label", "index", "steps", "env", "call")

    def __init__(self, fn: Function, env: _Env, call: Instruction | None) -> None:
        self.fn = fn
        self.label = fn.entry.label
        self.index = 0
        self.steps = 0
        self.env = env
        self.call = call


class _Group:
    """Threads that execute in lockstep.

    Each per-thread list has one entry per thread, in thread order:
    ``tids`` and ``ctaids``, and the ``memory`` (global), ``shared`` and
    ``local`` maps.  Maps may be aliased: a functional run gives every
    thread the launch's global map and its block's shared map.
    ``trace``, when set, records each instruction before it executes
    (:class:`repro.sim.trace._GroupTrace`).
    """

    __slots__ = (
        "tids", "ctaids", "memory", "shared", "local", "frames", "trace",
        "zeros",
    )

    def __init__(
        self,
        kernel: Function,
        tids: list[int],
        ctaids: list[int],
        memory: list[dict[int, Value]],
        shared: list[dict[int, Value]],
        local: list[dict[int, Value]],
        trace=None,
    ) -> None:
        self.tids = tids
        self.ctaids = ctaids
        self.memory = memory
        self.shared = shared
        self.local = local
        self.frames = [_Frame(kernel, _Env(), None)]
        self.trace = trace
        self.zeros: list[Value] = [0] * len(tids)

    def select(self, positions: list[int]) -> "_Group":
        """The group of the threads at ``positions``, with its own copy
        of the call stack (frames sharing an environment still share
        one)."""

        def pick(values):
            return [values[i] for i in positions]

        group = _Group.__new__(_Group)
        group.tids = pick(self.tids)
        group.ctaids = pick(self.ctaids)
        group.memory = pick(self.memory)
        group.shared = pick(self.shared)
        group.local = pick(self.local)
        group.zeros = [0] * len(positions)
        group.trace = None if self.trace is None else self.trace.select(positions)
        envs: dict[int, _Env] = {}
        group.frames = []
        for frame in self.frames:
            env = envs.get(id(frame.env))
            if env is None:
                old = frame.env
                env = envs[id(old)] = _Env(
                    {k: pick(v) for k, v in old.vregs.items()},
                    {k: pick(v) for k, v in old.pregs.items()},
                    None if old.ret is None else pick(old.ret),
                )
            copy = _Frame.__new__(_Frame)
            copy.fn, copy.label, copy.index = frame.fn, frame.label, frame.index
            copy.steps, copy.env, copy.call = frame.steps, env, frame.call
            group.frames.append(copy)
        return group


#: What :meth:`Interpreter._run_group` returns for a group stopped at a
#: barrier (``None``: the group exited; a pair of groups: it split).
_AT_BARRIER = object()

#: Bound on nested calls.  ``Module.validate`` rejects a recursive call
#: graph, so a validated module nests at most one frame per function;
#: the bound stops a module changed after validation from growing the
#: frame stack until memory runs out.
_MAX_CALL_DEPTH = 1000


class Interpreter:
    """Executes kernels of one module over explicit memory state."""

    def __init__(self, module: Module, max_steps: int = 2_000_000) -> None:
        module.validate()
        self.module = module
        self.max_steps = max_steps

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
        n = launch.block_size
        for ctaid in range(launch.grid_blocks):
            shared: dict[int, Value] = {}
            self._run_block(
                _Group(
                    kernel,
                    list(range(n)),
                    [ctaid] * n,
                    [memory] * n,
                    [shared] * n,
                    [{} for _ in range(n)],
                ),
                launch,
            )
        return memory

    def _run_block(self, group: _Group, launch: LaunchConfig) -> None:
        """Run a block's threads: each round runs every live subgroup,
        lowest thread first, to its next barrier or exit; the subgroups
        at a barrier start the next round together."""
        if not group.tids:
            return
        runnable = [(group.tids[0], group)]
        while runnable:
            waiting = []
            while runnable:
                _, group = heappop(runnable)
                outcome = self._run_group(group, launch)
                if outcome is _AT_BARRIER:
                    waiting.append((group.tids[0], group))
                elif outcome is not None:
                    for half in outcome:
                        heappush(runnable, (half.tids[0], half))
            heapify(waiting)
            runnable = waiting

    # ------------------------------------------------------------------
    def _run_group(self, group: _Group, launch: LaunchConfig):
        """Run ``group`` until it exits (returns ``None``), reaches a
        barrier (returns ``_AT_BARRIER``; the next call resumes after
        it) or splits at a branch (returns the taken and the not-taken
        half, each positioned at its target)."""
        frames = group.frames
        frame = frames[-1]
        fn = frame.fn
        label = frame.label
        instructions = fn.blocks[label].instructions
        index = frame.index
        steps = frame.steps
        env = frame.env
        trace = group.trace
        max_steps = self.max_steps
        while True:
            if index >= len(instructions):
                raise InterpError(f"fell off block {label} in {fn.name}")
            inst = instructions[index]
            steps += 1
            if steps > max_steps:
                raise InterpError(
                    f"{fn.name} exceeded {max_steps} steps (infinite loop?)"
                )
            # ``(kind, handler, unit)``, cached on the instruction: it
            # depends only on the opcode, so it never goes stale.
            plan = inst._exec_plan
            if plan is None:
                plan = inst._exec_plan = _build_plan(inst)
            kind = plan[0]
            if kind == _K_SIMPLE:
                if trace is not None:
                    trace.add(inst, plan[2], None)
                plan[1](inst, env, group, launch)
                index += 1
                continue
            if kind == _K_MEMORY:
                addresses = _addresses(inst, env, group, launch)
                if trace is not None:
                    trace.add(inst, None, addresses)
                _memory_op(inst, env, group, launch, addresses)
                index += 1
                continue
            if trace is not None:
                trace.add(inst, plan[2], None)
            if kind == _K_BRA:
                label = inst.targets[0]
                instructions = fn.blocks[label].instructions
                index = 0
                continue
            if kind == _K_CBR:
                cond = _read(inst.srcs[0], env, group, launch)
                if all(cond):
                    label = inst.targets[0]
                elif not any(cond):
                    label = inst.targets[1]
                else:
                    frame.steps = steps
                    halves = (
                        group.select([i for i, c in enumerate(cond) if c]),
                        group.select([i for i, c in enumerate(cond) if not c]),
                    )
                    for half, target in zip(halves, inst.targets):
                        top = half.frames[-1]
                        top.label, top.index = target, 0
                    return halves
                instructions = fn.blocks[label].instructions
                index = 0
                continue
            if kind == _K_EXIT or kind == _K_RET:
                if kind == _K_RET and inst.srcs:
                    env.ret = _read(inst.srcs[0], env, group, launch)
                frames.pop()
                if not frames:
                    return None
                call, callee_env = frame.call, env
                frame = frames[-1]
                fn = frame.fn
                label = frame.label
                instructions = fn.blocks[label].instructions
                index = frame.index
                steps = frame.steps
                env = frame.env
                if call is not None and call.dst is not None:
                    ret = callee_env.ret
                    _write(call.dst, group.zeros if ret is None else ret, env)
                continue
            if kind == _K_BAR:
                frame.label, frame.index, frame.steps = label, index + 1, steps
                return _AT_BARRIER
            if kind == _K_CALL:
                callee = self.module.functions[inst.callee]
                if len(frames) >= _MAX_CALL_DEPTH:
                    raise InterpError(
                        f"{callee.name} nested deeper than {_MAX_CALL_DEPTH} "
                        "calls (recursion?)"
                    )
                frame.label, frame.index, frame.steps = label, index + 1, steps
                if inst.srcs or inst.dst is not None:
                    # value ABI: fresh environment for the callee.
                    callee_env = _Env()
                    for i, src in enumerate(inst.srcs):
                        callee_env.vregs[i] = _read(src, env, group, launch)
                    frame = _Frame(callee, callee_env, inst)
                else:
                    # frame ABI: same flat register file.
                    frame = _Frame(callee, env, None)
                frames.append(frame)
                fn, env = callee, frame.env
                label = fn.entry.label
                instructions = fn.blocks[label].instructions
                index = steps = 0
                continue
            raise InterpError("cannot interpret SSA form; destruct first")


# ----------------------------------------------------------------------
# Operands and memory.  Every helper takes or returns one value per
# thread of the group.


def _read(op: Operand, env: _Env, group: _Group, launch: LaunchConfig) -> list:
    # PhysReg first: the timing pipeline traces post-allocation
    # binaries, where almost every operand is physical.
    t = type(op)
    if t is PhysReg:
        return env.pregs.get(op.index, group.zeros)
    if t is Imm:
        return [op.value] * len(group.tids)
    if t is VirtualReg:
        return env.vregs.get(op.index, group.zeros)
    if t is SpecialReg:
        return _special(op, group, launch)
    raise InterpError(f"cannot read operand {op!r}")


def _write(dst: object, values: list, env: _Env) -> None:
    t = type(dst)
    if t is PhysReg:
        env.pregs[dst.index] = values
    elif t is VirtualReg:
        env.vregs[dst.index] = values
    else:
        raise InterpError(f"cannot write operand {dst!r}")


def _special(reg: SpecialReg, group: _Group, launch: LaunchConfig) -> list:
    tids = group.tids
    if reg is SpecialReg.TID:
        return tids
    if reg is SpecialReg.CTAID:
        return group.ctaids
    if reg is SpecialReg.NTID:
        return [launch.block_size] * len(tids)
    if reg is SpecialReg.NCTAID:
        return [launch.grid_blocks] * len(tids)
    if reg is SpecialReg.LANEID:
        return [t % 32 for t in tids]
    if reg is SpecialReg.WARPID:
        return [t // 32 for t in tids]
    raise InterpError(f"unknown special register {reg}")


def _addresses(
    inst: Instruction, env: _Env, group: _Group, launch: LaunchConfig
) -> list[int]:
    srcs = inst.srcs
    if inst.opcode is Opcode.LD:
        base = srcs[0] if srcs else None
    else:
        base = srcs[1] if len(srcs) > 1 else None
    offset = inst.offset
    if base is None:
        return [offset] * len(group.tids)
    return [offset + int(v) for v in _read(base, env, group, launch)]


def _memory_op(
    inst: Instruction,
    env: _Env,
    group: _Group,
    launch: LaunchConfig,
    addresses: list[int],
) -> None:
    space = inst.space
    if space is MemSpace.PARAM:
        if inst.opcode is Opcode.ST:
            raise InterpError("param space is read-only")
        params = launch.params
        _write(inst.dst, [params.get(a, 0) for a in addresses], env)
        return
    if space is MemSpace.GLOBAL:
        maps = group.memory
    elif space is MemSpace.SHARED:
        maps = group.shared
    elif space is MemSpace.LOCAL:
        maps = group.local
    else:
        raise InterpError(f"bad memory space {space}")

    if inst.opcode is Opcode.LD:
        _write(inst.dst, [m.get(a, 0) for m, a in zip(maps, addresses)], env)
    else:
        values = _read(inst.srcs[0], env, group, launch)
        for m, a, v in zip(maps, addresses, values):
            m[a] = v


# ----------------------------------------------------------------------
# Dispatch table for straight-line opcodes (control flow and memory stay
# in ``_run_group``): handler ``(inst, env, group, launch)``.


def _unary(fn):
    def handler(inst, env, group, launch):
        values = _read(inst.srcs[0], env, group, launch)
        _write(inst.dst, list(map(fn, values)), env)

    return handler


def _binary(fn):
    def handler(inst, env, group, launch):
        srcs = inst.srcs
        a = _read(srcs[0], env, group, launch)
        b = _read(srcs[1], env, group, launch)
        _write(inst.dst, list(map(fn, a, b)), env)

    return handler


def _op_mov(inst, env, group, launch):
    _write(inst.dst, _read(inst.srcs[0], env, group, launch), env)


def _op_s2r(inst, env, group, launch):
    _write(inst.dst, _special(inst.special, group, launch), env)


def _op_mad(inst, env, group, launch):
    srcs = inst.srcs
    a = _read(srcs[0], env, group, launch)
    b = _read(srcs[1], env, group, launch)
    c = _read(srcs[2], env, group, launch)
    _write(inst.dst, [x * y + z for x, y, z in zip(a, b, c)], env)


def _op_selp(inst, env, group, launch):
    srcs = inst.srcs
    picks = _read(srcs[0], env, group, launch)
    a = _read(srcs[1], env, group, launch)
    b = _read(srcs[2], env, group, launch)
    _write(inst.dst, [x if p else y for p, x, y in zip(picks, a, b)], env)


_CMP = {
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
    CmpOp.GT: operator.gt,
    CmpOp.GE: operator.ge,
}


def _op_set(inst, env, group, launch):
    a = _read(inst.srcs[0], env, group, launch)
    b = _read(inst.srcs[1], env, group, launch)
    _write(inst.dst, [1 if c else 0 for c in map(_CMP[inst.cmp], a, b)], env)


def _op_nop(inst, env, group, launch):
    return


def _op_unimplemented(inst, env, group, launch):
    raise InterpError(f"unimplemented opcode {inst.opcode}")


_DISPATCH = {
    Opcode.S2R: _op_s2r,
    Opcode.MOV: _op_mov,
    Opcode.SELP: _op_selp,
    Opcode.I2F: _unary(float),
    Opcode.F2I: _unary(int),
    Opcode.ISET: _op_set,
    Opcode.FSET: _op_set,
    Opcode.NOP: _op_nop,
    Opcode.FRCP: _unary(lambda a: 1.0 / a if a else math.inf),
    Opcode.FSQRT: _unary(lambda a: math.sqrt(a) if a >= 0 else math.nan),
    Opcode.FEXP: _unary(lambda a: math.exp(min(a, 700.0))),
    Opcode.FLOG: _unary(lambda a: math.log(a) if a > 0 else -math.inf),
    Opcode.FSIN: _unary(math.sin),
    Opcode.IADD: _binary(operator.add),
    Opcode.ISUB: _binary(operator.sub),
    Opcode.IMUL: _binary(operator.mul),
    Opcode.IMIN: _binary(min),
    Opcode.IMAX: _binary(max),
    Opcode.AND: _binary(lambda a, b: int(a) & int(b)),
    Opcode.OR: _binary(lambda a, b: int(a) | int(b)),
    Opcode.XOR: _binary(lambda a, b: int(a) ^ int(b)),
    Opcode.SHL: _binary(lambda a, b: int(a) << int(b)),
    Opcode.SHR: _binary(lambda a, b: int(a) >> int(b)),
    Opcode.FADD: _binary(operator.add),
    Opcode.FSUB: _binary(operator.sub),
    Opcode.FMUL: _binary(operator.mul),
    Opcode.FMIN: _binary(min),
    Opcode.FMAX: _binary(max),
    Opcode.FDIV: _binary(lambda a, b: a / b if b else math.inf),
    Opcode.IMAD: _op_mad,
    Opcode.FFMA: _op_mad,
}


# Kind codes of the execution plan: straight-line opcodes carry their
# ``_DISPATCH`` handler; memory and control flow run inline in
# ``_run_group``.
_K_SIMPLE, _K_MEMORY, _K_BRA, _K_CBR, _K_EXIT, _K_RET, _K_BAR, _K_CALL, _K_PHI = (
    range(9)
)

_KIND_BY_OPCODE = {
    Opcode.LD: _K_MEMORY,
    Opcode.ST: _K_MEMORY,
    Opcode.BRA: _K_BRA,
    Opcode.CBR: _K_CBR,
    Opcode.EXIT: _K_EXIT,
    Opcode.RET: _K_RET,
    Opcode.BAR: _K_BAR,
    Opcode.CALL: _K_CALL,
    Opcode.PHI: _K_PHI,
}


def _build_plan(inst: Instruction) -> tuple:
    """``(kind, handler, unit)`` for one instruction.  The unit is the
    tracer's; a memory instruction's depends on its space, which the
    tracer reads when it records the access, so it carries none."""
    kind = _KIND_BY_OPCODE.get(inst.opcode, _K_SIMPLE)
    if kind == _K_MEMORY:
        return (kind, None, None)
    handler = None
    if kind == _K_SIMPLE:
        handler = _DISPATCH.get(inst.opcode, _op_unimplemented)
    return (kind, handler, inst.func_unit)


def run_kernel(
    module: Module,
    launch: LaunchConfig,
    kernel_name: str | None = None,
    global_memory: dict[int, Value] | None = None,
) -> dict[int, Value]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    name = kernel_name or module.kernel().name
    return Interpreter(module).run(name, launch, global_memory)
