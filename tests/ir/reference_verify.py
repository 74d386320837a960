"""The set-based storage-liveness walk, kept as the verifier's oracle.

:meth:`repro.ir.verify._Verifier._check_slot_liveness` numbers the
storage values of a function and runs the clobber analysis over
bitmasks.  This module keeps the walk it replaced: a fixpoint that
re-walks every block over sets of :class:`PhysReg` and memory-range
tuples, and a reporting walk that scans the whole live set on every
write.  :class:`ReferenceVerifier` is the verifier with that walk put
back; everything else (structural checks, frame facts, the stack
protocol) is inherited, so the two differ only in the slot liveness.

The issues both report must be equal as sorted ``str`` lists.  Their
order can differ where one write clobbers several values: this walk
reports them in set-iteration order, the verifier in value-numbering
order.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.function import Function, Module
from repro.ir.verify import VerifyIssue, _Verifier
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import PhysReg


class ReferenceVerifier(_Verifier):
    """:class:`_Verifier` with the set-based slot-liveness walk."""

    def _check_slot_liveness(self, fn: Function) -> None:
        cfg = CFG(fn)
        live_in: dict[str, set] = {label: set() for label in cfg.rpo}
        changed = True
        while changed:
            changed = False
            for label in reversed(cfg.rpo):
                live_out: set = set()
                for succ in cfg.succs[label]:
                    live_out |= live_in[succ]
                new_in = self._walk_block(
                    fn, fn.blocks[label], live_out, report=False
                )
                if new_in != live_in[label]:
                    live_in[label] = new_in
                    changed = True
        for label in cfg.rpo:
            live_out = set()
            for succ in cfg.succs[label]:
                live_out |= live_in[succ]
            self._walk_block(fn, fn.blocks[label], live_out, report=True)

    def _walk_block(
        self, fn: Function, block, live_out: set, report: bool
    ) -> set:
        """One backward pass over a block; returns the live-in set."""
        live = set(live_out)
        insts = block.instructions
        for index in range(len(insts) - 1, -1, -1):
            inst = insts[index]
            if inst.is_call and not inst.srcs and inst.dst is None:
                self._step_frame_call(
                    fn, block.label, index, inst, insts, live, report
                )
                continue
            dst = inst.dst
            if isinstance(dst, PhysReg):
                if report:
                    dslots = set(dst.slots)
                    for value in live:
                        if (
                            isinstance(value, PhysReg)
                            and value != dst
                            and dslots.intersection(value.slots)
                        ):
                            self.report(
                                fn, block.label, index,
                                f"write to {dst} clobbers {value}, which is "
                                "still live in the overlapping slot(s)",
                            )
                live.discard(dst)
            mem = self._static_memory_value(inst)
            if mem is not None and inst.opcode is Opcode.ST:
                if report:
                    for value in live:
                        if (
                            isinstance(value, tuple)
                            and value != mem
                            and _mem_overlaps(value, mem)
                        ):
                            self.report(
                                fn, block.label, index,
                                f"store to {self._describe(mem)} clobbers "
                                f"live value {self._describe(value)}",
                            )
                live.discard(mem)
            for reg in inst.regs_read():
                if isinstance(reg, PhysReg):
                    live.add(reg)
            if mem is not None and inst.opcode is Opcode.LD:
                live.add(mem)
        return live

    def _step_frame_call(
        self,
        fn: Function,
        label: str,
        index: int,
        inst: Instruction,
        insts: list[Instruction],
        live: set,
        report: bool,
    ) -> None:
        """Model a frame-ABI call: kill its result, use its argument
        slots, and require live values to stay clear of the callee's
        register window (the compressible-stack disjointness invariant).
        """
        callee_fn = self.module.functions.get(inst.callee or "")
        if callee_fn is None:
            return
        base = self._frame_bases.get(callee_fn.name, 0)
        window = self._frame_windows.get(callee_fn.name, set())
        # The result fetch — a MOV from the callee's base slot placed
        # immediately after the call — reads a value the call defines.
        nxt = insts[index + 1] if index + 1 < len(insts) else None
        if (
            nxt is not None
            and nxt.opcode is Opcode.MOV
            and nxt.srcs
            and isinstance(nxt.srcs[0], PhysReg)
            and nxt.srcs[0].index == base
        ):
            live.discard(nxt.srcs[0])
        if report:
            for value in live:
                if isinstance(value, PhysReg) and window.intersection(
                    value.slots
                ):
                    self.report(
                        fn, label, index,
                        f"{value} is live across the call to "
                        f"{callee_fn.name!r} but overlaps the callee's "
                        f"register window (base slot {base}); it must be "
                        "saved below the compressed stack height",
                    )
        for i in range(callee_fn.num_args):
            live.add(PhysReg(base + i, 1))


def _mem_overlaps(a: tuple, b: tuple) -> bool:
    return a[1] == b[1] and a[2] < b[2] + b[3] and b[2] < a[2] + a[3]


def reference_verify_module(
    module: Module,
    physical: bool = False,
    reg_budget: int | None = None,
    interproc=None,
) -> list[VerifyIssue]:
    """:func:`repro.ir.verify.verify_module` with the set-based walk."""
    return ReferenceVerifier(module, physical, reg_budget, interproc).run()
