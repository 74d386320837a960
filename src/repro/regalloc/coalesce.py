"""Conservative copy coalescing (Briggs) for the Fig. 4 allocator.

φ elimination and spill handling introduce register-to-register MOVs;
coalescing merges move-related variables that do not interfere so the
copies disappear.  The paper's related-work section singles out exactly
this lineage (chordal colouring and Hack & Goos's copy coalescing) as
the single-procedure state of the art Orion builds on.

The merge test is Briggs's conservative criterion: combine ``a`` and
``b`` only if the merged node has fewer than ``C`` neighbours of
*significant* degree (degree ≥ C, counted in slot units) — such a node
is guaranteed still colourable, so coalescing can never cause a spill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.interference import (
    InterferenceGraph,
    bit_indices,
    move_pairs,
    slot_count,
)
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg, VirtualReg


@dataclass
class CoalesceReport:
    merged_pairs: int = 0
    removed_moves: int = 0
    #: representative chosen for each merged-away variable
    replacements: dict[Reg, Reg] = field(default_factory=dict)


def coalesce_moves(
    fn: Function,
    graph: InterferenceGraph,
    num_colors: int,
    precolored: dict[Reg, int] | None = None,
) -> CoalesceReport:
    """Merge move-related variables conservatively (in place).

    The function is rewritten (sources of merged pairs replaced by the
    representative; degenerate self-moves dropped).  The caller must
    rebuild the interference graph afterwards.

    Runs on the graph's masks.  A node's adjacency is ``fwd | rev``, so
    a pair in which each value is live at the other's definition is one
    neighbour there; its degree starts at the graph's
    :attr:`~repro.ir.interference.InterferenceGraph.degree`, which
    counts such a pair twice.  The merges, and so the 168 benchmark fat
    binaries' digests, depend on that.
    """
    precolored = precolored or {}
    report = CoalesceReport()

    pairs = move_pairs(fn)
    if not pairs:
        return report

    nodes = list(graph.regs)
    ids = {v: i for i, v in enumerate(nodes)}  # extended by gid below
    adjacency = [f | r for f, r in zip(graph.fwd, graph.rev)]
    # Degrees (neighbour widths, slot units) maintained across merges,
    # and the mask of the nodes whose degree is significant (>= C).
    deg = list(graph.degree)
    heavy = 0
    for i, d in enumerate(deg):
        if d >= num_colors:
            heavy |= 1 << i
    by_width = dict(graph.by_width)
    pre_mask = 0
    for v in precolored:
        if v in ids:
            pre_mask |= 1 << ids[v]

    def gid(v: Reg) -> int:
        i = ids.get(v)
        if i is None:
            i = len(nodes)
            ids[v] = i
            nodes.append(v)
            adjacency.append(0)
            deg.append(0)
            by_width[v.width] = by_width.get(v.width, 0) | 1 << i
        return i

    # Union-find over variables, so chains of moves collapse.
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for dst, src in pairs:
        a, b = find(gid(dst)), find(gid(src))
        if a == b:
            report.merged_pairs += 1
            continue
        bit_a, bit_b = 1 << a, 1 << b
        if (bit_a | bit_b) & pre_mask:
            continue
        if not isinstance(nodes[a], VirtualReg) or not isinstance(
            nodes[b], VirtualReg
        ):
            continue
        width = nodes[a].width
        if width != nodes[b].width:
            continue
        if adjacency[a] & bit_b:
            continue  # interfering: must stay separate
        neighbors = adjacency[a] | adjacency[b]
        significant = slot_count(neighbors & (heavy | pre_mask), by_width)
        if significant + width > num_colors:
            continue  # Briggs test failed: might no longer colour
        # Merge b into a.  Only b's neighbours change: each loses b, and
        # gains a unless it already neighboured a, in which case the
        # merge removes one of its two equal-width neighbours.
        parent[b] = a
        for n in bit_indices(adjacency[b]):
            nbrs = adjacency[n] & ~bit_b
            if nbrs & bit_a:
                deg[n] -= width
                if deg[n] < num_colors:
                    heavy &= ~(1 << n)
            else:
                nbrs |= bit_a
            adjacency[n] = nbrs
        adjacency[a] = neighbors
        adjacency[b] = 0
        deg[a] = slot_count(neighbors, by_width)
        deg[b] = 0
        heavy &= ~(bit_a | bit_b)
        if deg[a] >= num_colors:
            heavy |= bit_a
        report.merged_pairs += 1
        report.replacements[nodes[b]] = nodes[a]

    if not report.replacements:
        return report

    # Rewrite the function and drop moves that became self-copies.
    resolved = {
        var: nodes[find(ids[var])] for var in report.replacements
    }
    for block in fn.ordered_blocks():
        kept = []
        for inst in block.instructions:
            if inst.dst is not None and inst.dst in resolved:
                inst.dst = resolved[inst.dst]
            inst.replace_reg_uses(dict(resolved))
            if (
                inst.opcode is Opcode.MOV
                and inst.srcs
                and inst.dst == inst.srcs[0]
            ):
                report.removed_moves += 1
                continue
            kept.append(inst)
        block.instructions = kept
    return report
