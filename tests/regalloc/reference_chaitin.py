"""The list-based Fig. 4 colourer and Briggs coalescer, kept as oracles.

:func:`repro.regalloc.chaitin.color_graph` and
:func:`repro.regalloc.coalesce.coalesce_moves` run on the interference
graph's bitmasks.  This module keeps the code they replaced, which
first expanded the masks into neighbour lists (:func:`neighbor_lists`,
formerly ``InterferenceGraph.dense``) and then worked on ``list[int]``
neighbour ids and ``set[int]`` adjacency.

The expansion walks each forward mask once and appends both
endpoints, so a pair recorded from both definitions (each value live
at the other's definition) is listed twice on each side.  The
colourer's blocked and edge counts and the coalescer's degrees sum
those lists, so they count such a pair twice; the coalescer's
adjacency sets count it once.  The bitmask code reproduces exactly
that arithmetic, and the compiled fat binaries depend on it.
"""

from __future__ import annotations

import heapq

from repro.ir.function import Function
from repro.ir.interference import InterferenceGraph, move_pairs
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg, VirtualReg, reg_sort_key, required_alignment
from repro.regalloc.chaitin import ColoringResult
from repro.regalloc.coalesce import CoalesceReport


def neighbor_lists(
    graph: InterferenceGraph,
) -> tuple[list[Reg], dict[Reg, int], list[list[int]], list[int]]:
    """``(nodes, ids, neighbor_ids, widths)``: the graph as lists."""
    nodes = list(graph.regs)
    ids = {v: i for i, v in enumerate(nodes)}
    widths = [v.width for v in nodes]
    nbr: list[list[int]] = [[] for _ in nodes]
    for k, mask in enumerate(graph.fwd):
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            nbr[k].append(j)
            nbr[j].append(k)
            mask ^= low
    return nodes, ids, nbr, widths


def reference_color_graph(
    graph: InterferenceGraph,
    num_colors: int,
    precolored: dict[Reg, int] | None = None,
    align_wide: bool = True,
) -> ColoringResult:
    """Fig. 4b/4c over neighbour lists (same validation as the original)."""
    precolored = dict(precolored or {})
    nodes, _, nbr_ids, node_widths = neighbor_lists(graph)
    stack_ids = reference_stack_order(
        nodes, nbr_ids, node_widths, precolored, num_colors
    )
    steps = [
        required_alignment(w) if align_wide else 1 for w in node_widths
    ]
    masks = [(1 << w) - 1 for w in node_widths]
    slot_of = [-1] * len(nodes)
    for i, v in enumerate(nodes):
        if v in precolored:
            slot_of[i] = precolored[v]
    spilled: list[Reg] = []
    for i in reversed(stack_ids):
        used = 0
        for j in nbr_ids[i]:
            base = slot_of[j]
            if base < 0:
                continue
            width = node_widths[j]
            if base + width > num_colors:
                width = num_colors - base
                if width <= 0:
                    continue
            used |= ((1 << width) - 1) << base
        mask = masks[i]
        for base in range(0, num_colors - node_widths[i] + 1, steps[i]):
            if not (used >> base) & mask:
                slot_of[i] = base
                break
        else:
            spilled.append(nodes[i])
    coloring = dict(precolored)
    for i in reversed(stack_ids):
        if slot_of[i] >= 0:
            coloring[nodes[i]] = slot_of[i]
    return ColoringResult(coloring=coloring, spilled=spilled)


def reference_stack_order(
    nodes: list[Reg],
    nbr_ids: list[list[int]],
    node_widths: list[int],
    precolored: dict[Reg, int],
    num_colors: int,
) -> list[int]:
    """Fig. 4b ordering over neighbour lists; returns node ids."""
    order = sorted(
        (i for i, v in enumerate(nodes) if v not in precolored),
        key=lambda i: reg_sort_key(nodes[i]),
    )
    pos_of = [-1] * len(nodes)
    for p, gid in enumerate(order):
        pos_of[gid] = p
    widths = [node_widths[g] for g in order]
    blocked = [0] * len(order)
    edges = [0] * len(order)
    neighbor_pos: list[list[int]] = []
    for p, g in enumerate(order):
        nbrs: list[int] = []
        for j in nbr_ids[g]:
            blocked[p] += node_widths[j]
            edges[p] += 1
            if pos_of[j] >= 0:
                nbrs.append(pos_of[j])
        neighbor_pos.append(nbrs)

    n = len(order)
    alive = [True] * n
    pushed = [False] * n
    trivial: list[tuple[int, int]] = []
    for i in range(n):
        if widths[i] + blocked[i] <= num_colors:
            trivial.append((widths[i], i))
            pushed[i] = True
    heapq.heapify(trivial)
    stack: list[int] = []
    for _ in range(n):
        pick = -1
        while trivial:
            _, i = heapq.heappop(trivial)
            if alive[i]:
                pick = i
                break
        if pick < 0:
            for i in range(n):
                if alive[i] and (
                    pick < 0
                    or widths[pick] > widths[i]
                    or (
                        widths[pick] == widths[i]
                        and edges[pick] > edges[i]
                    )
                ):
                    pick = i
        stack.append(order[pick])
        alive[pick] = False
        for j in neighbor_pos[pick]:
            if alive[j]:
                blocked[j] -= widths[pick]
                edges[j] -= 1
                if not pushed[j] and widths[j] + blocked[j] <= num_colors:
                    heapq.heappush(trivial, (widths[j], j))
                    pushed[j] = True
    return stack


def reference_coalesce_moves(
    fn: Function,
    graph: InterferenceGraph,
    num_colors: int,
    precolored: dict[Reg, int] | None = None,
) -> CoalesceReport:
    """Briggs coalescing over ``set[int]`` adjacency (rewrites ``fn``)."""
    precolored = precolored or {}
    report = CoalesceReport()
    pairs = move_pairs(fn)
    if not pairs:
        return report

    nodes, ids, nbr_ids, widths = neighbor_lists(graph)
    adjacency = [set(ns) for ns in nbr_ids]
    deg = [sum(widths[n] for n in ns) for ns in nbr_ids]

    def gid(v: Reg) -> int:
        if v not in ids:
            ids[v] = len(nodes)
            nodes.append(v)
            widths.append(v.width)
            adjacency.append(set())
            deg.append(0)
        return ids[v]

    pre_ids = {ids[v] for v in precolored if v in ids}
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for dst, src in pairs:
        a, b = find(gid(dst)), find(gid(src))
        if a == b:
            report.merged_pairs += 1
            continue
        if a in pre_ids or b in pre_ids:
            continue
        if not isinstance(nodes[a], VirtualReg) or not isinstance(
            nodes[b], VirtualReg
        ):
            continue
        if widths[a] != widths[b] or b in adjacency[a]:
            continue
        neighbors = adjacency[a] | adjacency[b]
        significant = sum(
            widths[n]
            for n in neighbors
            if deg[n] >= num_colors or n in pre_ids
        )
        if significant + widths[a] > num_colors:
            continue
        parent[b] = a
        merged = neighbors - {a, b}
        adjacency[a] = merged
        for n in merged:
            nbrs = adjacency[n]
            if b in nbrs:
                nbrs.discard(b)
                if a in nbrs:
                    deg[n] -= widths[b]
                else:
                    nbrs.add(a)
        adjacency[b] = set()
        deg[a] = sum(widths[n] for n in merged)
        deg[b] = 0
        report.merged_pairs += 1
        report.replacements[nodes[b]] = nodes[a]

    if not report.replacements:
        return report
    resolved = {var: nodes[find(ids[var])] for var in report.replacements}
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
