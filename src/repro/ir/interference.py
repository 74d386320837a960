"""Interference graph construction (input to the Fig. 4 allocator).

Two variables interfere when one is live at a definition point of the
other; interfering variables cannot share an on-chip memory slot.  Moves
get the classic Chaitin refinement: for ``MOV d, s`` the definition of
``d`` does not interfere with ``s`` itself, which keeps copy-related
variables colourable to the same slot.

Construction runs in the same dense-bitmask domain as the liveness
analysis: the backward walk keeps the live set as one integer and the
adjacency as per-register bitmasks, then materialises the classic
``dict[Reg, set[Reg]]`` adjacency once at the end.  Node order is the
deterministic dense numbering (first appearance in the instruction
stream), stable across runs and hash seeds.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.liveness import analyze_liveness_masks
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg, VirtualReg


class InterferenceGraph:
    """Undirected graph over variables, width-aware.

    ``blocking_degree`` counts neighbours in register-slot units (a
    64-bit neighbour blocks two colours), which extends the Chaitin
    "degree < k" colourability guarantee to wide variables.

    Graphs built by :func:`build_interference` carry a *dense* form —
    nodes numbered ``0..n-1`` with ``list[int]`` neighbour lists — that
    the allocator's hot loops consume directly (:meth:`dense`); the
    classic ``dict[Reg, set[Reg]]`` adjacency is materialised lazily on
    first access, so colouring a graph never pays for Reg-object sets
    it does not read.
    """

    def __init__(self) -> None:
        self._adj: dict[Reg, set[Reg]] | None = {}
        #: raw output of build_interference: (regs, present bit order,
        #: one-directional adjacency bitmasks)
        self._dense_src: (
            tuple[list[Reg], list[int], list[int]] | None
        ) = None
        self._dense: (
            tuple[list[Reg], dict[Reg, int], list[list[int]], list[int]]
            | None
        ) = None

    @property
    def adjacency(self) -> dict[Reg, set[Reg]]:
        adj = self._adj
        if adj is None:
            adj = self._materialize()
        return adj

    @adjacency.setter
    def adjacency(self, value: dict[Reg, set[Reg]]) -> None:
        self._adj = value
        self._dense_src = None
        self._dense = None

    def _materialize(self) -> dict[Reg, set[Reg]]:
        """Expand the dense form into ``dict[Reg, set[Reg]]``.

        Symmetric insertion: each forward edge is walked once and lands
        in both endpoint sets, so the reverse direction is never built
        as a bitmask at all.
        """
        regs, order, masks = self._dense_src  # type: ignore[misc]
        adj: dict[Reg, set[Reg]] = {}
        for i in order:
            adj[regs[i]] = set()
        for i in order:
            mask = masks[i]
            if not mask:
                continue
            reg_i = regs[i]
            set_i = adj[reg_i]
            base = 0
            while mask:
                chunk = mask & 0xFFFFFFFF
                while chunk:
                    low = chunk & -chunk
                    reg_j = regs[base + low.bit_length() - 1]
                    set_i.add(reg_j)
                    adj[reg_j].add(reg_i)
                    chunk ^= low
                mask >>= 32
                base += 32
        self._adj = adj
        return adj

    def dense(
        self,
    ) -> tuple[list[Reg], dict[Reg, int], list[list[int]], list[int]]:
        """``(nodes, ids, neighbor_ids, widths)`` over dense node ids.

        Node order matches :attr:`nodes`; neighbour lists are symmetric.
        Cached; invalidated by any mutation of the graph.
        """
        cached = self._dense
        if cached is not None:
            return cached
        if self._adj is not None:
            nodes = list(self._adj)
            ids = {v: i for i, v in enumerate(nodes)}
            nbr = [[ids[n] for n in self._adj[v]] for v in nodes]
            widths = [v.width for v in nodes]
        else:
            regs, order, masks = self._dense_src  # type: ignore[misc]
            nodes = [regs[i] for i in order]
            remap = [0] * len(regs)
            for k, bit in enumerate(order):
                remap[bit] = k
            ids = {v: k for k, v in enumerate(nodes)}
            widths = [v.width for v in nodes]
            nbr = [[] for _ in nodes]
            for k, i in enumerate(order):
                mask = masks[i]
                if not mask:
                    continue
                lst_k = nbr[k]
                base = 0
                while mask:
                    chunk = mask & 0xFFFFFFFF
                    while chunk:
                        low = chunk & -chunk
                        kj = remap[base + low.bit_length() - 1]
                        lst_k.append(kj)
                        nbr[kj].append(k)
                        chunk ^= low
                    mask >>= 32
                    base += 32
        self._dense = (nodes, ids, nbr, widths)
        return self._dense

    def add_node(self, var: Reg) -> None:
        if self._adj is None:
            # Fast path for dense graphs: adding an existing node is a
            # no-op and must not force set materialisation.
            _, ids, _, _ = self.dense()
            if var in ids:
                return
        self._dense = None
        self.adjacency.setdefault(var, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b:
            return
        self._dense = None
        adj = self.adjacency
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def interferes(self, a: Reg, b: Reg) -> bool:
        return b in self.adjacency.get(a, ())

    def neighbors(self, var: Reg) -> set[Reg]:
        return self.adjacency[var]

    def blocking_degree(self, var: Reg, removed: set[Reg]) -> int:
        """Sum of neighbour widths, ignoring already-removed nodes."""
        return sum(
            n.width for n in self.adjacency[var] if n not in removed
        )

    @property
    def nodes(self) -> list[Reg]:
        if self._adj is None:
            regs, order, _ = self._dense_src  # type: ignore[misc]
            return [regs[i] for i in order]
        return list(self._adj)

    def copy(self) -> "InterferenceGraph":
        clone = InterferenceGraph()
        clone.adjacency = {v: set(ns) for v, ns in self.adjacency.items()}
        return clone

    def __len__(self) -> int:
        if self._adj is None:
            return len(self._dense_src[1])  # type: ignore[index]
        return len(self._adj)


def build_interference(
    fn: Function, cfg: CFG | None = None
) -> InterferenceGraph:
    """Construct the interference graph for a (non-SSA) function.

    Device-function arguments are treated as defined at function entry.
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

    present = 0  # nodes of the graph, as a bitmask
    adjacency = [0] * len(numbering.regs)

    inst_masks = numbering.inst_masks
    for label in cfg.rpo:
        live = live_out_masks[label]
        present |= live
        for def_bit, read_mask, move_mask, is_phi in reversed(
            inst_masks[label]
        ):
            if def_bit >= 0:
                dmask = 1 << def_bit
                present |= dmask
                others = live & ~dmask & ~move_mask
                if others:
                    # One-directional during the walk; symmetrised once
                    # at the end (the walk never reads adjacency, so
                    # deferring the reverse edges changes nothing).
                    adjacency[def_bit] |= others
                live &= ~dmask
            if not is_phi:
                present |= read_mask
                live |= read_mask

    # Arguments are defined "before" the entry block: they interfere with
    # everything live at entry (including each other).
    entry_live = live_in_masks[cfg.entry]
    for arg in args:
        abit = index[arg]
        present |= 1 << abit
        others = entry_live & ~(1 << abit)
        adjacency[abit] |= others

    # Hand the dense form to the graph as-is; the dict[Reg, set[Reg]]
    # adjacency is materialised lazily, only for consumers that read it.
    graph = InterferenceGraph()
    graph._adj = None
    graph._dense_src = (numbering.regs, _bit_indices(present), adjacency)
    return graph


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out: list[int] = []
    base = 0
    while mask:
        chunk = mask & 0xFFFFFFFF
        while chunk:
            low = chunk & -chunk
            out.append(base + low.bit_length() - 1)
            chunk ^= low
        mask >>= 32
        base += 32
    return out


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
