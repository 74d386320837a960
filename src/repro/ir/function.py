"""IR containers: basic blocks, functions, and modules.

The IR is the assembly-level program representation Orion's middle end
manipulates: a :class:`Module` holds kernels and device functions; each
:class:`Function` is an ordered collection of labelled
:class:`BasicBlock` objects whose final instruction is a terminator.

Register operands are :class:`~repro.isa.registers.VirtualReg` before
allocation and :class:`~repro.isa.registers.PhysReg` after; all passes
work on either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, Opcode, TERMINATORS
from repro.isa.registers import PhysReg, Reg, VirtualReg


@dataclass
class BasicBlock:
    """A labelled straight-line instruction sequence.

    The last instruction must be a terminator for the block (and hence
    the containing function) to validate.  ``successors`` is derived from
    the terminator's targets; fall-through is always explicit.
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> list[str]:
        term = self.terminator
        if term is None:
            return []
        return list(term.targets)

    def phis(self) -> list[Instruction]:
        return [i for i in self.instructions if i.opcode is Opcode.PHI]

    def append(self, inst: Instruction) -> None:
        self.instructions.append(inst)

    def copy(self) -> "BasicBlock":
        return BasicBlock(self.label, [i.copy() for i in self.instructions])

    def __str__(self) -> str:
        body = "\n".join(f"    {inst}" for inst in self.instructions)
        return f"{self.label}:\n{body}"


class Function:
    """A kernel or device function.

    Device functions receive their arguments in virtual registers
    ``%v0..%v(n-1)`` (before allocation) and return at most one value via
    ``RET``.  Kernels read their launch parameters from the ``param``
    memory space and terminate with ``EXIT``.
    """

    def __init__(
        self,
        name: str,
        is_kernel: bool,
        num_args: int = 0,
        shared_bytes: int = 0,
        returns_value: bool = False,
    ) -> None:
        if num_args and is_kernel:
            raise ValueError("kernels take parameters via param space, not args")
        self.name = name
        self.is_kernel = is_kernel
        self.num_args = num_args
        #: User-declared shared memory per block (the "Smem" column of the
        #: paper's Table 2), in bytes.  The allocator may add more for
        #: spilled variables.
        self.shared_bytes = shared_bytes
        self.returns_value = returns_value
        self.blocks: dict[str, BasicBlock] = {}
        self._block_order: list[str] = []
        self._next_vreg = 0
        self._next_label = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_block(self, label: str | None = None) -> BasicBlock:
        if label is None:
            label = self.fresh_label()
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        self._block_order.append(label)
        return block

    def fresh_label(self) -> str:
        while True:
            label = f"BB{self._next_label}"
            self._next_label += 1
            if label not in self.blocks:
                return label

    def new_vreg(self, width: int = 1) -> VirtualReg:
        reg = VirtualReg(self._next_vreg, width)
        self._next_vreg = self._next_vreg + 1
        return reg

    def reserve_vregs(self, count: int) -> None:
        """Make sure ``new_vreg`` never hands out indices below ``count``."""
        self._next_vreg = max(self._next_vreg, count)

    @property
    def entry(self) -> BasicBlock:
        if not self._block_order:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[self._block_order[0]]

    @property
    def block_order(self) -> list[str]:
        return list(self._block_order)

    def ordered_blocks(self) -> list[BasicBlock]:
        return [self.blocks[label] for label in self._block_order]

    def instructions(self) -> list[Instruction]:
        """All instructions in block order (convenience for analyses)."""
        return [
            inst for block in self.ordered_blocks() for inst in block.instructions
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_regs(self) -> set[Reg]:
        regs: set[Reg] = set()
        for inst in self.instructions():
            regs.update(inst.regs_read())
            regs.update(inst.regs_written())
        return regs

    def max_phys_slot(self) -> int:
        """One past the highest physical register slot used (0 if none)."""
        top = 0
        for reg in self.all_regs():
            if isinstance(reg, PhysReg):
                top = max(top, reg.index + reg.width)
        return top

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed control flow."""
        if not self._block_order:
            raise ValueError(f"function {self.name} has no blocks")
        for block in self.ordered_blocks():
            if block.terminator is None:
                raise ValueError(
                    f"block {block.label} of {self.name} lacks a terminator"
                )
            for inst in block.instructions[:-1]:
                if inst.is_terminator:
                    raise ValueError(
                        f"terminator mid-block in {self.name}:{block.label}"
                    )
            for target in block.successors:
                if target not in self.blocks:
                    raise ValueError(
                        f"branch to unknown block {target!r} in {self.name}"
                    )
            term = block.terminator
            if self.is_kernel and term.opcode is Opcode.RET:
                raise ValueError(f"kernel {self.name} must EXIT, not RET")
            if not self.is_kernel and term.opcode is Opcode.EXIT:
                raise ValueError(f"device function {self.name} must RET, not EXIT")

    def copy(self) -> "Function":
        clone = Function(
            self.name,
            self.is_kernel,
            num_args=self.num_args,
            shared_bytes=self.shared_bytes,
            returns_value=self.returns_value,
        )
        for label in self._block_order:
            block = clone.add_block(label)
            block.instructions = [i.copy() for i in self.blocks[label].instructions]
        clone._next_vreg = self._next_vreg
        clone._next_label = self._next_label
        return clone

    def __str__(self) -> str:
        from repro.isa.assembly import format_function

        return format_function(self)


class Module:
    """A compilation unit: one or more kernels plus device functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}

    def add(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def kernel(self, name: str | None = None) -> Function:
        """The named kernel, or the unique kernel when ``name`` is None."""
        kernels = [f for f in self.functions.values() if f.is_kernel]
        if name is not None:
            fn = self.functions[name]
            if not fn.is_kernel:
                raise ValueError(f"{name!r} is not a kernel")
            return fn
        if len(kernels) != 1:
            raise ValueError(
                f"module {self.name} has {len(kernels)} kernels; name one"
            )
        return kernels[0]

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed function, a bad call or a
        recursive call graph (which GPU device code cannot have)."""
        from repro.ir.callgraph import check_acyclic

        callees: dict[str, set[str]] = {}
        for fn in self.functions.values():
            fn.validate()
            called = callees[fn.name] = set()
            for inst in fn.instructions():
                if inst.is_call:
                    called.add(inst.callee)
                    callee = self.functions.get(inst.callee or "")
                    if callee is None:
                        raise ValueError(
                            f"{fn.name} calls unknown function {inst.callee!r}"
                        )
                    if callee.is_kernel:
                        raise ValueError(
                            f"{fn.name} calls kernel {inst.callee!r}"
                        )
                    # A bare CALL (no operands) is the post-allocation
                    # frame ABI: arguments already sit in the callee's
                    # slots.  Otherwise the arity must match.
                    frame_abi = not inst.srcs and inst.dst is None
                    if not frame_abi and len(inst.srcs) != callee.num_args:
                        raise ValueError(
                            f"{fn.name} passes {len(inst.srcs)} args to "
                            f"{callee.name} (expects {callee.num_args})"
                        )
        check_acyclic(self, callees)

    def copy(self) -> "Module":
        clone = Module(self.name)
        for fn in self.functions.values():
            clone.add(fn.copy())
        return clone

    def __str__(self) -> str:
        from repro.isa.assembly import format_module

        return format_module(self)


# Re-export for convenience: a terminator check used across passes.
__all__ = ["BasicBlock", "Function", "Module", "TERMINATORS"]
