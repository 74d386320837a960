"""Single-procedure multi-class graph-coloring allocation (paper Fig. 4).

A variant of the Chaitin–Briggs allocator extended for *wide* variables
(64/96/128-bit values needing consecutive, aligned 32-bit slots):

* stack ordering (Fig. 4b): repeatedly pick a trivially-colourable
  variable — ``v.width + blocked(v) <= C`` — preferring the narrowest;
  when none exists, pick the narrowest (then least-connected) variable
  as an optimistic spill candidate;
* colouring (Fig. 4c): pop variables off the stack, give each the lowest
  free aligned slot range; a variable that cannot be coloured is moved
  to the spill list and colouring continues with the variable below it
  (the slots already given out never depended on it).

``blocked(v)`` counts neighbours in slot units (a 64-bit neighbour can
exclude two slots), which preserves the classic "degree < k implies
colourable" guarantee in the presence of wide variables.

Pre-coloured nodes (the calling convention pins device-function
arguments to slots ``0..n-1``) keep their colours, participate as
blockers, and are never spilled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.ir.interference import BYTE_BITS, InterferenceGraph
from repro.isa.registers import (
    Reg,
    is_aligned,
    reg_sort_key,
    required_alignment,
)


@dataclass
class ColoringResult:
    """Outcome of one colouring attempt."""

    coloring: dict[Reg, int]  # variable -> base slot
    spilled: list[Reg] = field(default_factory=list)

    @property
    def slots_used(self) -> int:
        """One past the highest slot any coloured variable occupies."""
        return max(
            (base + var.width for var, base in self.coloring.items()),
            default=0,
        )

    def occupied_slots(self, var: Reg) -> range:
        base = self.coloring[var]
        return range(base, base + var.width)


def color_graph(
    graph: InterferenceGraph,
    num_colors: int,
    precolored: dict[Reg, int] | None = None,
    align_wide: bool = True,
) -> ColoringResult:
    """Colour ``graph`` with ``num_colors`` slots, spilling as needed."""
    if num_colors <= 0:
        raise ValueError("num_colors must be positive")
    precolored = dict(precolored or {})
    for var, base in precolored.items():
        if base + var.width > num_colors:
            raise ValueError(f"precoloured {var} at {base} exceeds budget")
        if align_wide and not is_aligned(base, var.width):
            raise ValueError(f"precoloured {var} at {base} is misaligned")

    regs, fwd, rev = graph.regs, graph.fwd, graph.rev
    pinned = []
    if precolored:
        pinned = [i for i, v in enumerate(regs) if v in precolored]
    stack = _stack_order(graph, pinned, num_colors)
    # Fig. 4c select over per-slot occupancy: occupied[s] is the mask of
    # the nodes holding slot s, so a slot range is free for node i when
    # none of its slots meets i's neighbour mask.
    occupied = [0] * num_colors
    for i in pinned:
        base = precolored[regs[i]]
        for s in range(base, base + regs[i].width):
            occupied[s] |= 1 << i
    coloring = dict(precolored)
    spilled: list[Reg] = []
    for i in reversed(stack):
        var = regs[i]
        width = var.width
        nbrs = fwd[i] | rev[i]
        if width == 1:
            for base in range(num_colors):
                if not occupied[base] & nbrs:
                    break
            else:
                base = -1
        else:
            step = required_alignment(width) if align_wide else 1
            for base in range(0, num_colors - width + 1, step):
                for s in range(base, base + width):
                    if occupied[s] & nbrs:
                        break
                else:
                    break
            else:
                base = -1
        if base < 0:
            # Fig. 4c: spill the uncolourable variable and go on below
            # it.  The slots given out so far were chosen while it had
            # none, so they stand as they are without it.
            spilled.append(var)
            continue
        coloring[var] = base
        for s in range(base, base + width):
            occupied[s] |= 1 << i
    return ColoringResult(coloring=coloring, spilled=spilled)


def _stack_order(
    graph: InterferenceGraph, pinned: list[int], num_colors: int
) -> list[int]:
    """Fig. 4b ordering: trivial picks first, else optimistic candidates.

    Candidates are the nodes not ``pinned`` (precoloured), in
    :func:`reg_sort_key` order.  A candidate's blocked count starts at
    its :attr:`~InterferenceGraph.degree` and its edge count at its
    :attr:`~InterferenceGraph.edges`, so pinned nodes always block.
    Both count the bits of ``fwd`` and ``rev`` separately: a pair in
    which each value is live at the other's definition blocks twice the
    neighbour's width and counts two edges.  The stacks, and so the
    digests of the 168 benchmark fat binaries, depend on that double
    count.  Removing a node walks the bits of its ``fwd`` and ``rev``
    masks that still wait to qualify (such a pair twice) and takes its
    width off their blocked counts.  Returns the stack as node ids.
    """
    regs, fwd, rev = graph.regs, graph.fwd, graph.rev
    n = len(regs)
    widths = [v.width for v in regs]
    if pinned:
        skip = set(pinned)
        order = [i for i in range(n) if i not in skip]
    else:
        order = list(range(n))
    keys = [reg_sort_key(v) for v in regs]
    order.sort(key=keys.__getitem__)
    pos_of = [0] * n  # node id -> candidate position
    for p, i in enumerate(order):
        pos_of[i] = p
    edges = list(graph.edges)
    # room[i] = C - width - blocked: node i is trivially colourable
    # when it is >= 0.  Removals only raise it, so once a node qualifies
    # it stays qualified, and a min-heap keyed (width, position) yields
    # exactly the node a linear scan would pick: the first node of
    # strictly minimal width among the trivially colourable ones.  A
    # node is pushed once and leaves only by a pop (an optimistic pick
    # happens only when the heap is empty), so the heap holds no stale
    # entries.  Counts matter only for the nodes still waiting to
    # qualify: the flags serve the optimistic scan, the mask the walks.
    room = [num_colors - w - d for w, d in zip(widths, graph.degree)]
    waiting = [False] * n
    waiting_mask = 0
    trivial: list[tuple[int, int]] = []
    for i in order:
        if room[i] >= 0:
            trivial.append((widths[i], pos_of[i]))
        else:
            waiting[i] = True
            waiting_mask |= 1 << i
    heapq.heapify(trivial)
    stack: list[int] = []
    while waiting_mask:
        if trivial:
            pick = order[heapq.heappop(trivial)[1]]
        else:
            # No trivially colourable node: optimistic spill candidate
            # with minimal width, then minimal edge count (Fig. 4b).
            pick = -1
            for i in order:
                if waiting[i] and (
                    pick < 0
                    or widths[pick] > widths[i]
                    or (
                        widths[pick] == widths[i]
                        and edges[pick] > edges[i]
                    )
                ):
                    pick = i
            waiting[pick] = False
            waiting_mask ^= 1 << pick
        stack.append(pick)
        width = widths[pick]
        for mask in (fwd[pick], rev[pick]):
            mask &= waiting_mask
            base = 0
            nbytes = (mask.bit_length() + 7) >> 3
            for byte in mask.to_bytes(nbytes, "little"):
                for j in BYTE_BITS[byte]:
                    j += base
                    r = room[j] + width
                    room[j] = r
                    edges[j] -= 1
                    if r >= 0:
                        heapq.heappush(trivial, (widths[j], pos_of[j]))
                        waiting[j] = False
                        waiting_mask ^= 1 << j
                base += 8
    # Nothing waits any more, so nothing else is pushed: the rest leave
    # the heap in key order.
    stack.extend([order[p] for _, p in sorted(trivial)])
    return stack
