"""Machine verification of ORAS modules.

Compilers that rewrite binaries need a safety net beyond unit tests:
the verifier statically checks a module — before or after allocation —
for the structural properties every later stage (and the hardware)
assumes.  It is used by the test suite after every allocation and is
cheap enough to run inside the compiler pipeline.

Checks on any module:

* control flow: every block ends in exactly one terminator, targets
  exist, kernels EXIT and device functions RET, call arity matches;
* operand shape: destinations are registers, memory ops carry a space,
  comparisons carry a predicate, S2R names a special register;
* definedness: on every path from entry, a register is written before
  it is read (device-function arguments count as defined at entry);

additional checks on physically-allocated modules:

* wide values sit at aligned base registers;
* no register index exceeds the declared budget;
* calls follow the frame ABI (no operands);
* no virtual registers remain;
* allocation soundness: liveness is recomputed over physical storage —
  register slots plus statically-addressed local/shared ranges — and any
  write whose footprint overlaps a *different* value that is still live
  is flagged as a clobber;
* compressible-stack invariants: no value may be live across a call
  while overlapping the callee's register window, and (when the
  allocator's :class:`~repro.regalloc.stack.InterprocResult` is
  supplied) every planned save move must be mirrored by a restore after
  the call, in reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.cfg import CFG
from repro.ir.function import Function, Module
from repro.isa.instructions import Instruction, MemSpace, Opcode
from repro.isa.registers import PhysReg, Reg, VirtualReg, is_aligned

if TYPE_CHECKING:
    from repro.regalloc.stack import InterprocResult

#: A storage value tracked by the physical-liveness analysis: either a
#: register value (a :class:`PhysReg` — base slot plus width), or a
#: statically-addressed memory range ``("mem", space, offset, nbytes)``.
StorageValue = "PhysReg | tuple[str, str, int, int]"

#: Memory spaces whose statically-addressed ranges are thread-private
#: storage the allocator manages (spill slots live here).
_TRACKED_SPACES = (MemSpace.LOCAL, MemSpace.SHARED)


@dataclass(frozen=True)
class VerifyIssue:
    """One verifier finding."""

    function: str
    block: str
    index: int  # instruction index within the block; -1 for block-level
    message: str

    def __str__(self) -> str:
        where = f"{self.function}:{self.block}"
        if self.index >= 0:
            where += f"[{self.index}]"
        return f"{where}: {self.message}"


class VerificationError(ValueError):
    """Raised by :func:`verify_module` when issues were found."""

    def __init__(self, issues: list[VerifyIssue]) -> None:
        super().__init__(
            "module failed verification:\n"
            + "\n".join(f"  - {issue}" for issue in issues)
        )
        self.issues = issues


@dataclass
class _Verifier:
    module: Module
    physical: bool
    reg_budget: int | None
    interproc: "InterprocResult | None" = None
    issues: list[VerifyIssue] = field(default_factory=list)

    def report(self, fn: Function, block: str, index: int, message: str) -> None:
        self.issues.append(VerifyIssue(fn.name, block, index, message))

    # ------------------------------------------------------------------
    def run(self) -> list[VerifyIssue]:
        try:
            self.module.validate()
        except ValueError as exc:
            self.issues.append(VerifyIssue("<module>", "<module>", -1, str(exc)))
            return self.issues
        if self.physical:
            self._frame_bases, self._frame_windows = self._call_frame_facts()
        for fn in self.module.functions.values():
            self._check_function(fn)
        return self.issues

    def _check_function(self, fn: Function) -> None:
        for block in fn.ordered_blocks():
            for index, inst in enumerate(block.instructions):
                self._check_instruction(fn, block.label, index, inst)
        self._check_definedness(fn)
        if self.physical:
            self._check_slot_liveness(fn)
            self._check_stack_protocol(fn)

    # ------------------------------------------------------------------
    def _check_instruction(
        self, fn: Function, block: str, index: int, inst: Instruction
    ) -> None:
        op = inst.opcode
        if inst.is_memory and inst.space is None:
            self.report(fn, block, index, f"{op.value} without a memory space")
        if inst.space is MemSpace.PARAM and op is Opcode.ST:
            self.report(fn, block, index, "store to read-only param space")
        if op in (Opcode.ISET, Opcode.FSET) and inst.cmp is None:
            self.report(fn, block, index, "comparison without a predicate")
        if op is Opcode.S2R and inst.special is None:
            self.report(fn, block, index, "S2R without a special register")
        if op is Opcode.CBR and len(inst.targets) != 2:
            self.report(fn, block, index, "CBR needs two targets")
        if op is Opcode.PHI:
            self.report(fn, block, index, "SSA φ survived past destruction")

        for reg in list(inst.regs_read()) + list(inst.regs_written()):
            self._check_register(fn, block, index, reg)

        if self.physical and inst.is_call:
            if inst.srcs or inst.dst is not None:
                self.report(
                    fn, block, index,
                    "value-ABI call in physically-allocated code",
                )

    def _check_register(
        self, fn: Function, block: str, index: int, reg: Reg
    ) -> None:
        if isinstance(reg, PhysReg):
            if not is_aligned(reg.index, reg.width):
                self.report(
                    fn, block, index, f"misaligned wide register {reg}"
                )
            if self.reg_budget is not None and reg.index + reg.width > self.reg_budget:
                self.report(
                    fn, block, index,
                    f"{reg} exceeds the {self.reg_budget}-slot budget",
                )
        elif self.physical:
            self.report(
                fn, block, index, f"virtual register {reg} after allocation"
            )

    # ------------------------------------------------------------------
    def _check_definedness(self, fn: Function) -> None:
        """Forward may-undefined analysis: flag reads never preceded by
        a write on some path.

        Physical code is exempt: register reuse makes storage-level
        definedness meaningless there (saves/restores read slots the
        analysis cannot attribute), and the functional interpreter
        covers it dynamically.
        """
        if self.physical:
            return
        cfg = CFG(fn)
        # An argument register is defined at entry at whatever width the
        # body reads it: a 64/96/128-bit argument arrives as %vi.wN, and
        # VirtualReg equality includes the width, so seeding only the
        # 32-bit form would flag every wide argument as undefined.
        entry_defined: set[Reg] = {
            VirtualReg(i, 1) for i in range(fn.num_args)
        }
        entry_defined.update(
            reg
            for reg in fn.all_regs()
            if isinstance(reg, VirtualReg) and reg.index < fn.num_args
        )
        defined_out: dict[str, set[Reg]] = {}
        # Forward dataflow: definitely-defined at block entry.
        all_regs = fn.all_regs()
        full = set(all_regs)
        defined_in = {label: set(full) for label in cfg.rpo}
        defined_in[cfg.entry] = set(entry_defined)
        changed = True
        while changed:
            changed = False
            for label in cfg.rpo:
                preds = [p for p in cfg.preds[label] if p in defined_out]
                if label == cfg.entry:
                    incoming = set(entry_defined)
                else:
                    if preds:
                        incoming = set.intersection(
                            *(defined_out[p] for p in preds)
                        )
                    else:
                        incoming = set()
                defined = set(incoming)
                for inst in fn.blocks[label].instructions:
                    defined.update(inst.regs_written())
                if defined_out.get(label) != defined or defined_in[label] != incoming:
                    defined_in[label] = incoming
                    defined_out[label] = defined
                    changed = True
        for label in cfg.rpo:
            defined = set(defined_in[label])
            for index, inst in enumerate(fn.blocks[label].instructions):
                if inst.opcode is not Opcode.PHI:
                    for reg in inst.regs_read():
                        if reg not in defined:
                            self.report(
                                fn, label, index,
                                f"{reg} may be read before definition",
                            )
                defined.update(inst.regs_written())

    # ------------------------------------------------------------------
    # Allocation soundness: liveness over physical storage
    # ------------------------------------------------------------------
    def _call_frame_facts(self) -> tuple[dict[str, int], dict[str, set[int]]]:
        """Per-function frame base and written-slot window.

        The frame ABI gives every device function a contiguous register
        window starting at its *base*; absent the allocator's own
        bookkeeping the base is recovered as the lowest slot the function
        references (exact whenever it matters: a value-returning callee
        always writes its base slot).  The *window* is every slot the
        function — or anything it can transitively call — writes.
        """
        bases: dict[str, int] = {}
        writes: dict[str, set[int]] = {}
        callees: dict[str, set[str]] = {}
        for name, fn in self.module.functions.items():
            lowest: int | None = None
            written: set[int] = set()
            names: set[str] = set()
            for inst in fn.instructions():
                for reg in (*inst.regs_read(), *inst.regs_written()):
                    if isinstance(reg, PhysReg) and (
                        lowest is None or reg.index < lowest
                    ):
                        lowest = reg.index
                for reg in inst.regs_written():
                    if isinstance(reg, PhysReg):
                        written.update(reg.slots)
                if inst.is_call and inst.callee:
                    names.add(inst.callee)
            bases[name] = 0 if fn.is_kernel else (lowest or 0)
            writes[name] = written
            callees[name] = names
        if self.interproc is not None:
            bases.update(self.interproc.bases)

        windows: dict[str, set[int]] = {}

        def window(name: str, trail: frozenset[str]) -> set[int]:
            if name in windows:
                return windows[name]
            if name in trail or name not in writes:
                return set()
            out = set(writes[name])
            for callee in callees[name]:
                out |= window(callee, trail | {name})
            windows[name] = out
            return out

        for name in self.module.functions:
            window(name, frozenset())
        return bases, windows

    def _check_slot_liveness(self, fn: Function) -> None:
        """Flag writes that clobber a value still live in their slots.

        Liveness is recomputed at storage granularity: a value is a
        (base slot, width) register range or a statically-addressed
        local/shared byte range, and it stays live from each read back to
        the exact-identity write that defines it.  A write whose
        footprint overlaps a *different* live value destroys data some
        path still reads — the defining miscompile of a register
        allocator — so every hit is an error.

        The values are numbered and the analysis runs over bitmasks:
        :meth:`_storage_steps` records each instruction's kill and gen
        masks, each block folds its steps into one gen/kill summary for
        the fixpoint, and the reporting walk tests each write against
        the precomputed mask of the values it overlaps.  One write that
        clobbers several values reports them in numbering order.
        """
        cfg = CFG(fn)
        labels = cfg.rpo
        succs = cfg.succs
        values, steps = self._storage_steps(fn, labels)
        summaries: dict[str, tuple[int, int]] = {}
        for label in labels:
            gen = kill = 0
            for _, step_kill, step_gen, _, _ in reversed(steps[label]):
                gen = step_gen | (gen & ~step_kill)
                kill |= step_kill
            summaries[label] = (gen, kill)
        live_in = dict.fromkeys(labels, 0)
        changed = True
        while changed:
            changed = False
            for label in reversed(labels):
                live_out = 0
                for succ in succs[label]:
                    live_out |= live_in[succ]
                gen, kill = summaries[label]
                new_in = gen | (live_out & ~kill)
                if new_in != live_in[label]:
                    live_in[label] = new_in
                    changed = True
        for label in labels:
            live = 0
            for succ in succs[label]:
                live |= live_in[succ]
            for index, kill, gen, overlap, subject in reversed(steps[label]):
                live &= ~kill
                if live & overlap:
                    self._report_clobbers(
                        fn, label, index, subject, live & overlap, values
                    )
                live |= gen

    def _storage_steps(
        self, fn: Function, labels: list[str]
    ) -> tuple[list, dict[str, list[list]]]:
        """Number ``fn``'s storage values and record its liveness steps.

        Returns ``(values, steps)``.  ``values[i]`` is the value of bit
        ``i``, numbered in order of first appearance over ``labels``.
        ``steps[label]`` holds, for each instruction that touches
        tracked storage, ``[index, kill, gen, overlap, subject]``: the
        values it defines and reads, the values its write would clobber
        (or, for a frame-ABI call, the live values the callee's window
        would), and what a clobber report names — the written
        ``(register, memory value)`` pair, or the callee.
        """
        # Registers are keyed by (index, width), memory ranges by their
        # own tuple: both hash and compare without a Python-level call.
        numbers: dict[tuple, int] = {}
        values: list = []

        def bit(key: tuple, value) -> int:
            i = numbers.get(key)
            if i is None:
                i = numbers[key] = len(values)
                values.append(value)
            return 1 << i

        functions = self.module.functions
        steps: dict[str, list[list]] = {}
        checked: list[list] = []  # the steps that write or call
        for label in labels:
            insts = fn.blocks[label].instructions
            block_steps: list[list] = []
            steps[label] = block_steps
            for index, inst in enumerate(insts):
                op = inst.opcode
                if op is Opcode.CALL and not inst.srcs and inst.dst is None:
                    # A frame-ABI call kills its result and uses its
                    # argument slots.
                    callee = functions.get(inst.callee or "")
                    if callee is None:
                        continue
                    base = self._frame_bases.get(callee.name, 0)
                    kill = 0
                    # The result fetch — a MOV from the callee's base
                    # slot placed immediately after the call — reads a
                    # value the call defines.
                    nxt = insts[index + 1] if index + 1 < len(insts) else None
                    if (
                        nxt is not None
                        and nxt.opcode is Opcode.MOV
                        and nxt.srcs
                        and isinstance(nxt.srcs[0], PhysReg)
                        and nxt.srcs[0].index == base
                    ):
                        fetched = nxt.srcs[0]
                        kill = bit((base, fetched.width), fetched)
                    gen = 0
                    for i in range(base, base + callee.num_args):
                        gen |= bit((i, 1), PhysReg(i, 1))
                    step = [index, kill, gen, 0, callee]
                    block_steps.append(step)
                    checked.append(step)
                    continue
                kill = gen = 0
                dst = inst.dst
                if isinstance(dst, PhysReg):
                    kill = bit((dst.index, dst.width), dst)
                else:
                    dst = None
                stored = None
                if op is Opcode.ST or op is Opcode.LD:
                    mem = self._static_memory_value(inst)
                    if mem is not None:
                        if op is Opcode.ST:
                            stored = mem
                            kill |= bit(mem, mem)
                        else:
                            gen = bit(mem, mem)
                for reg in inst.regs_read() if op is Opcode.PHI else inst.srcs:
                    if isinstance(reg, PhysReg):
                        gen |= bit((reg.index, reg.width), reg)
                if kill or gen:
                    step = [index, kill, gen, 0, (dst, stored)]
                    block_steps.append(step)
                    if kill:
                        checked.append(step)

        # Each cell — a register slot, or a byte of a memory space — maps
        # to the mask of the values covering it.
        cells: dict = {}
        for i, value in enumerate(values):
            for cell in _cells(value):
                cells[cell] = cells.get(cell, 0) | (1 << i)

        def overlap(key: tuple, value) -> int:
            mask = 0
            for cell in _cells(value):
                mask |= cells[cell]
            return mask & ~(1 << numbers[key])

        windows: dict[str, int] = {}
        for step in checked:
            subject = step[4]
            if isinstance(subject, Function):
                mask = windows.get(subject.name)
                if mask is None:
                    mask = 0
                    for slot in self._frame_windows.get(subject.name, ()):
                        mask |= cells.get(slot, 0)
                    windows[subject.name] = mask
                step[3] = mask
                continue
            dst, stored = subject
            if dst is not None:
                step[3] = overlap((dst.index, dst.width), dst)
            if stored is not None:
                step[3] |= overlap(stored, stored)
        return values, steps

    def _report_clobbers(
        self,
        fn: Function,
        label: str,
        index: int,
        subject,
        hits: int,
        values: list,
    ) -> None:
        """Report each live value in ``hits``, in numbering order."""
        while hits:
            low = hits & -hits
            hits ^= low
            value = values[low.bit_length() - 1]
            if isinstance(subject, Function):
                message = (
                    f"{value} is live across the call to "
                    f"{subject.name!r} but overlaps the callee's "
                    f"register window (base slot "
                    f"{self._frame_bases.get(subject.name, 0)}); it must be "
                    "saved below the compressed stack height"
                )
            elif isinstance(value, PhysReg):
                message = (
                    f"write to {subject[0]} clobbers {value}, which is "
                    "still live in the overlapping slot(s)"
                )
            else:
                message = (
                    f"store to {self._describe(subject[1])} clobbers "
                    f"live value {self._describe(value)}"
                )
            self.report(fn, label, index, message)

    @staticmethod
    def _static_memory_value(inst: Instruction):
        """The (space, offset, nbytes) value a base-less LD/ST touches.

        Accesses through a base register (promoted shared frames, user
        shared tiles) are dynamically addressed and cannot be tracked
        statically; spill traffic is always base-less.
        """
        if inst.opcode is Opcode.LD:
            if inst.srcs or inst.space not in _TRACKED_SPACES:
                return None
            width = inst.dst.width if isinstance(inst.dst, (PhysReg, VirtualReg)) else 1
        elif inst.opcode is Opcode.ST:
            if len(inst.srcs) != 1 or inst.space not in _TRACKED_SPACES:
                return None
            value = inst.srcs[0]
            width = value.width if isinstance(value, (PhysReg, VirtualReg)) else 1
        else:
            return None
        assert inst.space is not None
        return ("mem", inst.space.value, inst.offset, 4 * width)

    @staticmethod
    def _describe(value) -> str:
        if isinstance(value, PhysReg):
            return str(value)
        _, space, offset, nbytes = value
        return f"{space}[{offset}..{offset + nbytes - 1}]"

    # ------------------------------------------------------------------
    # Compressible-stack protocol: save/restore balance
    # ------------------------------------------------------------------
    def _check_stack_protocol(self, fn: Function) -> None:
        """Check each planned call site's saves are mirrored by restores.

        Only possible when the allocator hands over its
        :class:`InterprocResult`: the plan says exactly which MOVs are
        compressible-stack saves, removing any ambiguity with ordinary
        caller code.  Rewriting emits, per site: saves, argument copies,
        CALL, optional result fetch, then restores mirroring the saves in
        reverse order — each piece is checked in place.
        """
        if self.interproc is None:
            return
        plans = self.interproc.plans.get(fn.name)
        if not plans:
            return
        caller_base = self.interproc.bases.get(fn.name, 0)
        by_block: dict[str, list] = {}
        for plan in sorted(plans, key=lambda p: (p.block, p.index)):
            by_block.setdefault(plan.block, []).append(plan)
        for label, block_plans in by_block.items():
            block = fn.blocks.get(label)
            if block is None:
                continue
            insts = block.instructions
            calls = [i for i, inst in enumerate(insts) if inst.is_call]
            if len(calls) != len(block_plans):
                self.report(
                    fn, label, -1,
                    f"{len(block_plans)} planned call site(s) but "
                    f"{len(calls)} call(s) after rewriting",
                )
                continue
            for plan, call_idx in zip(block_plans, calls):
                if insts[call_idx].callee != plan.callee:
                    self.report(
                        fn, label, call_idx,
                        f"call to {insts[call_idx].callee!r} where the "
                        f"site plan expects {plan.callee!r}",
                    )
                    continue
                self._check_call_site(
                    fn, label, insts, call_idx, plan, caller_base
                )

    def _check_call_site(
        self,
        fn: Function,
        label: str,
        insts: list[Instruction],
        call_idx: int,
        plan,
        caller_base: int,
    ) -> None:
        callee_base = self.interproc.bases.get(plan.callee, 0)
        # Saves sit before the argument copies (MOVs into the callee
        # window, i.e. dst slot >= callee base).
        pos = call_idx - 1
        while (
            pos >= 0
            and insts[pos].opcode is Opcode.MOV
            and isinstance(insts[pos].dst, PhysReg)
            and insts[pos].dst.index >= callee_base
        ):
            pos -= 1
        for var, from_rel, to_rel in reversed(plan.saves):
            want_dst = PhysReg(caller_base + to_rel, var.width)
            want_src = PhysReg(caller_base + from_rel, var.width)
            if not self._is_mov(insts[pos] if pos >= 0 else None, want_dst, want_src):
                self.report(
                    fn, label, call_idx,
                    f"call to {plan.callee!r}: missing save "
                    f"{want_src} -> {want_dst} before the call",
                )
                return
            pos -= 1
        # Restores mirror the saves in reverse order, after the optional
        # result fetch (a MOV whose source is the callee's base slot).
        pos = call_idx + 1
        if (
            pos < len(insts)
            and insts[pos].opcode is Opcode.MOV
            and insts[pos].srcs
            and isinstance(insts[pos].srcs[0], PhysReg)
            and insts[pos].srcs[0].index == callee_base
        ):
            pos += 1
        for var, from_rel, to_rel in reversed(plan.saves):
            want_dst = PhysReg(caller_base + from_rel, var.width)
            want_src = PhysReg(caller_base + to_rel, var.width)
            if not self._is_mov(insts[pos] if pos < len(insts) else None, want_dst, want_src):
                self.report(
                    fn, label, call_idx,
                    f"call to {plan.callee!r}: save of {want_dst} is not "
                    f"mirrored by a restore {want_src} -> {want_dst} "
                    "after the call (unbalanced save/restore)",
                )
                return
            pos += 1

    @staticmethod
    def _is_mov(inst: Instruction | None, dst: PhysReg, src: PhysReg) -> bool:
        return (
            inst is not None
            and inst.opcode is Opcode.MOV
            and inst.dst == dst
            and len(inst.srcs) == 1
            and inst.srcs[0] == src
        )


def _cells(value) -> range | list[tuple[str, int]]:
    """The storage cells a value covers: its register slots, or the
    bytes of its memory range tagged with their space."""
    if isinstance(value, PhysReg):
        return value.slots
    _, space, offset, nbytes = value
    return [(space, byte) for byte in range(offset, offset + nbytes)]


def verify_module(
    module: Module,
    physical: bool = False,
    reg_budget: int | None = None,
    interproc: "InterprocResult | None" = None,
) -> list[VerifyIssue]:
    """Collect verification issues (empty list = clean)."""
    return _Verifier(module, physical, reg_budget, interproc).run()


def assert_verified(
    module: Module,
    physical: bool = False,
    reg_budget: int | None = None,
    interproc: "InterprocResult | None" = None,
) -> None:
    """Raise :class:`VerificationError` unless the module is clean."""
    issues = verify_module(
        module, physical=physical, reg_budget=reg_budget, interproc=interproc
    )
    if issues:
        raise VerificationError(issues)
