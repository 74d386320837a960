"""Interference graph construction (input to the Fig. 4 allocator).

Two variables interfere when one is live at a definition point of the
other; interfering variables cannot share an on-chip memory slot.  Moves
get the classic Chaitin refinement: for ``MOV d, s`` the definition of
``d`` does not interfere with ``s`` itself, which keeps copy-related
variables colourable to the same slot.

Construction runs in the same dense-bitmask domain as the liveness
analysis: the backward walk keeps the live set as one integer and
records, per defined register, the mask of registers live at its
definitions.  The graph keeps those masks and their transpose; it has
no other form.  Node order is the dense numbering (first appearance in
the instruction stream), stable across runs and hash seeds.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.liveness import analyze_liveness_masks
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg, VirtualReg


class InterferenceGraph:
    """Undirected, width-aware graph over variables, as bitmasks.

    Node ``i`` is ``regs[i]``.  Bit ``j`` of ``fwd[i]`` records that
    ``regs[j]`` is live at a definition of ``regs[i]``; ``rev`` is the
    transpose of ``fwd``, so ``fwd[i] | rev[i]`` are the neighbours of
    ``i``.  Coalescing and colouring both run on these masks.

    A pair in which each value is live at the other's definition is
    recorded from both definitions, so ``j`` sits in ``fwd[i]`` and in
    ``rev[i]``.  :attr:`degree` (neighbour widths, in slot units: a
    64-bit neighbour blocks two colours) and :attr:`edges` count the
    bits of ``fwd`` and ``rev`` separately, so they count such a pair
    twice.  The allocator's stacks and merges, and so its output,
    depend on that count.
    """

    __slots__ = ("regs", "fwd", "rev", "by_width", "degree", "edges")

    def __init__(
        self, regs: Sequence[Reg] = (), fwd: Sequence[int] = ()
    ) -> None:
        self.regs = regs = list(regs)
        self.fwd = fwd = list(fwd)
        n = len(regs)
        # Transpose through one string of the rows' bits, most
        # significant first, last row first: column k of it, read as a
        # binary number, is the reverse mask of node n - 1 - k.
        rows = "".join([format(mask, "b").zfill(n) for mask in reversed(fwd)])
        self.rev = rev = [int(rows[k::n], 2) for k in range(n - 1, -1, -1)]
        #: width -> mask of the nodes of that width
        self.by_width = by_width = width_classes(regs)
        self.edges = [f.bit_count() + r.bit_count() for f, r in zip(fwd, rev)]
        if by_width.keys() == {1}:
            self.degree = self.edges
        else:
            self.degree = [
                slot_count(f, by_width) + slot_count(r, by_width)
                for f, r in zip(fwd, rev)
            ]

    def interferes(self, a: Reg, b: Reg) -> bool:
        regs = self.regs
        if a not in regs or b not in regs:
            return False
        i = regs.index(a)
        return bool((self.fwd[i] | self.rev[i]) >> regs.index(b) & 1)

    def neighbors(self, var: Reg) -> list[Reg]:
        i = self.regs.index(var)
        return [self.regs[j] for j in bit_indices(self.fwd[i] | self.rev[i])]

    def __len__(self) -> int:
        return len(self.regs)


def width_classes(regs: list[Reg]) -> dict[int, int]:
    """Width -> mask of the registers of that width."""
    classes: dict[int, int] = {}
    for i, reg in enumerate(regs):
        if reg.width != 1:
            classes[reg.width] = classes.get(reg.width, 0) | 1 << i
    narrow = (1 << len(regs)) - 1
    for members in classes.values():
        narrow ^= members
    if narrow:
        classes[1] = narrow
    return classes


def slot_count(mask: int, by_width: dict[int, int]) -> int:
    """Summed width of the registers in ``mask``, in slot units."""
    return sum(
        width * (mask & members).bit_count()
        for width, members in by_width.items()
    )


#: the set bit positions of each byte value, ascending: walking a mask's
#: ``to_bytes`` through this table beats peeling its low bits one by one
BYTE_BITS = tuple(
    tuple(b for b in range(8) if value >> b & 1) for value in range(256)
)


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [
        8 * k + b
        for k, byte in enumerate(
            mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        )
        for b in BYTE_BITS[byte]
    ]


def build_interference(
    fn: Function, cfg: CFG | None = None
) -> InterferenceGraph:
    """Construct the interference graph for a (non-SSA) function.

    Every register of a reachable instruction is a node, and so is
    every device-function argument, which is treated as defined at
    function entry.
    """
    cfg = cfg or CFG(fn)
    # Mask-domain liveness shares its dense numbering with this walk, so
    # live sets never round-trip through set[Reg] at all.
    numbering, live_in_masks, live_out_masks, _, _ = analyze_liveness_masks(
        fn, cfg
    )

    args = [VirtualReg(i, 1) for i in range(fn.num_args)]
    index = numbering.index
    for reg in args:
        if reg not in index:
            index[reg] = len(numbering.regs)
            numbering.regs.append(reg)

    fwd = [0] * len(numbering.regs)
    inst_masks = numbering.inst_masks
    for label in cfg.rpo:
        live = live_out_masks[label]
        for def_bit, read_mask, move_mask, is_phi in reversed(
            inst_masks[label]
        ):
            if def_bit >= 0:
                live &= ~(1 << def_bit)
                others = live & ~move_mask if move_mask else live
                if others:
                    fwd[def_bit] |= others
            if not is_phi:
                live |= read_mask

    # Arguments are defined "before" the entry block: they interfere with
    # everything live at entry (including each other).
    entry_live = live_in_masks[cfg.entry]
    for arg in args:
        abit = index[arg]
        fwd[abit] |= entry_live & ~(1 << abit)

    return InterferenceGraph(numbering.regs, fwd)


def move_pairs(fn: Function) -> list[tuple[Reg, Reg]]:
    """Copy-related variable pairs (candidates for coalescing)."""
    pairs = []
    for inst in fn.instructions():
        if (
            inst.opcode is Opcode.MOV
            and inst.dst is not None
            and inst.srcs
            and isinstance(inst.srcs[0], VirtualReg)
        ):
            pairs.append((inst.dst, inst.srcs[0]))
    return pairs
