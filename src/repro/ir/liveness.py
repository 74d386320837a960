"""Liveness analysis, live ranges, and the paper's *max-live* metric.

Liveness drives three things in Orion:

* interference-graph construction for the Fig. 4 allocator;
* the liveness of variable sets at each call site (the ``L_ik`` matrix
  of Theorem 1, which prices compressible-stack movements);
* the **max-live** metric of Section 3.3 — "the number of registers
  necessary to hold all simultaneously live variables" — which decides
  the compile-time tuning direction (threshold 32 on Kepler).

Variables here are register objects (virtual or physical); a wide
variable counts ``width`` slots toward max-live.

Internally the dataflow runs over *dense* register numbers and Python
integer bitmasks: every register in the function is assigned a bit, the
per-block use/def/live sets are single ints, and the fixpoint is a
proper worklist (only predecessors of blocks whose live-in changed are
revisited).  The public :class:`LivenessInfo` API still speaks
``set[Reg]`` — the masks are materialised once, after the fixpoint —
so downstream consumers (interference, SSA pruning, the compressible
stack) are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.isa.instructions import Opcode
from repro.isa.registers import PhysReg, Reg, VirtualReg


@dataclass
class LivenessInfo:
    """Per-block live-in/live-out sets plus per-site detail."""

    live_in: dict[str, set[Reg]]
    live_out: dict[str, set[Reg]]
    #: use/def per block (upward-exposed uses; any def)
    uses: dict[str, set[Reg]]
    defs: dict[str, set[Reg]]
    #: maximum number of simultaneously live register *slots*
    max_live: int = 0
    #: variables live across each call site: (block, index) -> set
    live_across_calls: dict[tuple[str, int], set[Reg]] = field(
        default_factory=dict
    )
    #: ``max_live`` and ``live_across_calls`` with a register copy
    #: ``d = MOV s`` dropped wherever ``s`` is live too: interference
    #: leaves that pair unconnected, so both may share one register
    copy_max_live: int = 0
    copy_live_across_calls: dict[tuple[str, int], set[Reg]] = field(
        default_factory=dict
    )


class _RegNumbering:
    """Dense bit numbering of every register appearing in a function.

    Bits are assigned in first-appearance order over a deterministic
    walk of the instruction stream, so the numbering (and everything
    derived from it) is stable across runs and hash seeds.
    """

    __slots__ = ("index", "regs", "widths", "inst_masks")

    def __init__(self, fn: Function, labels: list[str]) -> None:
        index: dict[Reg, int] = {}
        regs: list[Reg] = []
        # Per-instruction operand masks, recorded during the numbering
        # walk so downstream passes (block use/def masks, interference
        # construction) never re-decode operand lists:
        # label -> [(def_bit, read_mask, move_src_bit, is_phi), ...]
        # aligned with the block's instruction list.  ``def_bit`` is the
        # written register's bit index or -1 (instructions write at most
        # one register); ``move_src_bit`` is the register-MOV source
        # mask, 0 otherwise.
        inst_masks: dict[str, list[tuple[int, int, int, bool]]] = {}
        for label in labels:
            block_masks: list[tuple[int, int, int, bool]] = []
            inst_masks[label] = block_masks
            for inst in fn.blocks[label].instructions:
                read_mask = 0
                for reg in inst.regs_read():
                    i = index.get(reg)
                    if i is None:
                        i = index[reg] = len(regs)
                        regs.append(reg)
                    read_mask |= 1 << i
                def_bit = -1
                dst = inst.dst
                if dst is not None:
                    i = index.get(dst)
                    if i is None:
                        i = index[dst] = len(regs)
                        regs.append(dst)
                    def_bit = i
                move_src_bit = 0
                if (
                    inst.opcode is Opcode.MOV
                    and inst.srcs
                    and isinstance(inst.srcs[0], VirtualReg)
                ):
                    move_src_bit = 1 << index[inst.srcs[0]]
                block_masks.append(
                    (
                        def_bit,
                        read_mask,
                        move_src_bit,
                        inst.opcode is Opcode.PHI,
                    )
                )
        self.index = index
        self.regs = regs
        self.widths = [r.width for r in regs]
        self.inst_masks = inst_masks

    def bit(self, reg: Reg) -> int:
        return 1 << self.index[reg]

    def materialize(self, mask: int) -> set[Reg]:
        """Expand a bitmask back into a ``set[Reg]``."""
        out: set[Reg] = set()
        regs = self.regs
        base = 0
        while mask:
            chunk = mask & 0xFFFFFFFF
            while chunk:
                low = chunk & -chunk
                out.add(regs[base + low.bit_length() - 1])
                chunk ^= low
            mask >>= 32
            base += 32
        return out

    def slots(self, mask: int) -> int:
        """Total register slots of a mask (widths summed)."""
        total = 0
        widths = self.widths
        base = 0
        while mask:
            chunk = mask & 0xFFFFFFFF
            while chunk:
                low = chunk & -chunk
                total += widths[base + low.bit_length() - 1]
                chunk ^= low
            mask >>= 32
            base += 32
        return total


def _block_masks(
    fn: Function, label: str, numbering: _RegNumbering
) -> tuple[int, int]:
    """(upward-exposed uses, defs) of one block, as bitmasks."""
    uses = 0
    defs = 0
    for def_bit, read_mask, _, is_phi in numbering.inst_masks[label]:
        # φ uses happen on the predecessor edge, not here; the def
        # happens at the top of this block.
        if not is_phi:
            uses |= read_mask & ~defs
        if def_bit >= 0:
            defs |= 1 << def_bit
    return uses, defs


def analyze_liveness_masks(
    fn: Function, cfg: CFG
) -> tuple[
    _RegNumbering, dict[str, int], dict[str, int], dict[str, int], dict[str, int]
]:
    """Mask-domain liveness: ``(numbering, live_in, live_out, uses, defs)``.

    The fixpoint itself, without materialising ``set[Reg]`` results or
    scanning instruction points — interference construction consumes
    the bitmasks directly (same numbering, same dataflow).
    """
    labels = cfg.rpo
    numbering = _RegNumbering(fn, labels)
    bit = numbering.bit

    uses: dict[str, int] = {}
    defs: dict[str, int] = {}
    for label in labels:
        uses[label], defs[label] = _block_masks(fn, label, numbering)

    phi_defs: dict[str, int] = {}
    # φ operands drawn from each incoming edge: succ -> {pred: mask}.
    phi_edge_uses: dict[str, dict[str, int]] = {}
    for label in labels:
        mask = 0
        edges: dict[str, int] = {}
        for p in fn.blocks[label].phis():
            if p.dst is not None:
                mask |= bit(p.dst)
            for pred, op in p.phi_args:
                if _is_reg(op):
                    edges[pred] = edges.get(pred, 0) | bit(op)
        phi_defs[label] = mask
        phi_edge_uses[label] = edges

    live_in: dict[str, int] = {label: 0 for label in labels}
    live_out: dict[str, int] = {label: 0 for label in labels}

    # Worklist fixpoint: seed with every block in reverse RPO (one
    # backward sweep converges most acyclic regions immediately), then
    # revisit only the predecessors of blocks whose live-in grew.
    pending = list(reversed(labels))
    in_pending = set(pending)
    preds = cfg.preds
    succs = cfg.succs
    while pending:
        label = pending.pop()
        in_pending.discard(label)
        out = 0
        for succ in succs[label]:
            if succ not in live_in:
                continue
            # live-in of successor minus its φ defs, plus the operands
            # its φs draw from *this* edge.
            out |= live_in[succ] & ~phi_defs[succ]
            out |= phi_edge_uses[succ].get(label, 0)
        # φ destinations are defined at the block top, so they are
        # live-in here without forcing liveness into predecessors
        # (the subtraction above removes them on the way up).
        new_in = uses[label] | (out & ~defs[label]) | phi_defs[label]
        if out != live_out[label] or new_in != live_in[label]:
            live_out[label] = out
            if new_in != live_in[label]:
                live_in[label] = new_in
                for pred in preds[label]:
                    if pred in live_in and pred not in in_pending:
                        in_pending.add(pred)
                        pending.append(pred)

    return numbering, live_in, live_out, uses, defs


def analyze_liveness(fn: Function, cfg: CFG | None = None) -> LivenessInfo:
    """Backward dataflow liveness over the function's CFG.

    φ semantics: a φ's operands are live-out of the corresponding
    predecessor; its destination is defined at the block top.
    """
    cfg = cfg or CFG(fn)
    numbering, live_in, live_out, uses, defs = analyze_liveness_masks(fn, cfg)
    info = LivenessInfo(
        live_in={l: numbering.materialize(m) for l, m in live_in.items()},
        live_out={l: numbering.materialize(m) for l, m in live_out.items()},
        uses={l: numbering.materialize(m) for l, m in uses.items()},
        defs={l: numbering.materialize(m) for l, m in defs.items()},
    )
    _scan_points(fn, cfg, info, numbering, live_out)
    return info


def _is_reg(op: object) -> bool:
    return isinstance(op, (PhysReg, VirtualReg))


def _scan_points(
    fn: Function,
    cfg: CFG,
    info: LivenessInfo,
    numbering: _RegNumbering,
    live_out: dict[str, int],
) -> None:
    """Walk each block backwards recording max-live and call-site sets."""
    bit = numbering.bit
    copies = [
        (bit(inst.dst), bit(inst.srcs[0]))
        for label in cfg.rpo
        for inst in fn.blocks[label].instructions
        if inst.opcode is Opcode.MOV
        and inst.dst is not None
        and inst.srcs
        and _is_reg(inst.srcs[0])
        and inst.srcs[0] != inst.dst
    ]

    def shared(live: int) -> int:
        # Drop each copy whose source is live.  A source dropped first
        # spares its own copies, yet no copy stays beside its source.
        for d, s in copies:
            if live & s:
                live &= ~d
        return live

    max_live = copy_max_live = 0
    for label in cfg.rpo:
        block = fn.blocks[label]
        live = live_out[label]
        slots = numbering.slots(live)
        max_live = max(max_live, slots)
        if slots > copy_max_live:
            copy_max_live = max(copy_max_live, numbering.slots(shared(live)))
        for idx in range(len(block.instructions) - 1, -1, -1):
            inst = block.instructions[idx]
            if inst.is_call:
                # Variables live *across* the call: live after it, minus
                # the call's own result.  These are the slots the
                # compressible stack must preserve (Theorem 1's L_ik).
                across = live
                for reg in inst.regs_written():
                    across &= ~bit(reg)
                site = (label, idx)
                info.live_across_calls[site] = numbering.materialize(across)
                info.copy_live_across_calls[site] = (
                    numbering.materialize(shared(across))
                    if copies
                    else info.live_across_calls[site]
                )
            for reg in inst.regs_written():
                b = bit(reg)
                if live & b:
                    live &= ~b
                    slots -= reg.width
            if inst.opcode is not Opcode.PHI:
                # φ operands live on edges; handled via live_out of preds.
                for reg in inst.regs_read():
                    b = bit(reg)
                    if not live & b:
                        live |= b
                        slots += reg.width
            max_live = max(max_live, slots)
            if slots > copy_max_live:
                copy_max_live = max(
                    copy_max_live, numbering.slots(shared(live))
                )
    info.max_live = max_live
    info.copy_max_live = copy_max_live


def max_live(fn: Function) -> int:
    """The paper's max-live metric, in 32-bit register slots."""
    return analyze_liveness(fn).max_live


def instruction_liveness(
    fn: Function, cfg: CFG | None = None
) -> dict[tuple[str, int], set[Reg]]:
    """Live-after set for every instruction (block label, index).

    Used by interference construction and by the spiller to place
    reloads.  φ operands are attributed to predecessor edges.
    """
    cfg = cfg or CFG(fn)
    info = analyze_liveness(fn, cfg)
    result: dict[tuple[str, int], set[Reg]] = {}
    for label in cfg.rpo:
        block = fn.blocks[label]
        live: set[Reg] = set(info.live_out[label])
        for idx in range(len(block.instructions) - 1, -1, -1):
            inst = block.instructions[idx]
            result[(label, idx)] = set(live)
            for reg in inst.regs_written():
                live.discard(reg)
            if inst.opcode is not Opcode.PHI:
                live.update(inst.regs_read())
    return result
