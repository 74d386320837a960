"""The compressible stack: inter-procedure on-chip memory allocation.

Paper Section 3.2.  Each function's variables are coloured to *relative*
slots by the Fig. 4 allocator; functions then share one per-thread flat
slot space:

* every function gets a **base**: ``base(kernel) = 0`` and
  ``base(callee) = max over call sites of (base(caller) + B_k)``, where
  ``B_k`` is the height the caller's stack is compressed to at site *k*;
* with *space minimisation* on, ``B_k`` is the packed height of the
  variables live across the call (so the callee's contiguous window is
  as large as possible); with it off, ``B_k`` is the caller's full slot
  usage — the "No Space Minimization" ablation of paper Fig. 5;
* right before a call, live variables whose home slot lies at or above
  ``B_k`` are *saved* into free slots below it, and *restored* right
  after the call returns — these MOVs are the "data movements";
* the static slot **layout** is chosen to minimise total movements: by
  Theorem 1 the movement count of placing slot-set ``SS_i`` at position
  ``j`` is a constant ``W_ij``, so a maximum-weight bipartite matching
  (Kuhn–Munkres) over (set, position) pairs with weight ``-W_ij`` yields
  the optimal layout.  Turning this off is the Fig. 5 "No Data Movement
  Minimization" ablation.

Wide variables extend the model: slot-sets that overlap (through wide
values) are merged into *clusters* that move as a unit; clusters wider
than one slot are placed greedily at aligned positions (cheapest first)
and the remaining single-slot sets are matched optimally — for programs
whose cross-call variables are all 32-bit this degenerates to exactly
the paper's formulation.

The calling convention realised here (and checked by the functional
interpreter): arguments are copied into the callee's first slots
``base(callee)+i``, the return value comes back in ``base(callee)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.ir.callgraph import CallGraph
from repro.ir.function import Module
from repro.ir.liveness import (
    LivenessInfo,
    analyze_liveness,
    live_across_calls,
)
from repro.isa.instructions import Imm, Instruction, Opcode, Operand, mov
from repro.isa.registers import (
    PhysReg,
    Reg,
    VirtualReg,
    is_aligned,
    required_alignment,
)
from repro.regalloc.matching import max_weight_assignment


class StackError(ValueError):
    """Raised when a call site cannot be realised within the slot budget."""


# ----------------------------------------------------------------------
# Clusters: slot-sets that must move together
# ----------------------------------------------------------------------
@dataclass
class Cluster:
    """A maximal group of overlapping colour classes (usually one slot)."""

    cid: int
    base: int  # original base slot
    width: int  # slots occupied
    vars: list[Reg] = field(default_factory=list)

    @property
    def alignment(self) -> int:
        return max(required_alignment(v.width) for v in self.vars)


def build_clusters(coloring: dict[Reg, int]) -> list[Cluster]:
    """Partition occupied slots into contiguous move-units."""
    if not coloring:
        return []
    slot_vars: dict[int, list[Reg]] = {}
    for var, base in coloring.items():
        for slot in range(base, base + var.width):
            slot_vars.setdefault(slot, []).append(var)
    # Union slots connected through a common variable.
    parent: dict[int, int] = {s: s for s in slot_vars}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for var, base in coloring.items():
        for slot in range(base + 1, base + var.width):
            union(base, slot)

    groups: dict[int, list[int]] = {}
    for slot in slot_vars:
        groups.setdefault(find(slot), []).append(slot)

    clusters = []
    for cid, (root, slots) in enumerate(sorted(groups.items())):
        slots = sorted(slots)
        if slots != list(range(slots[0], slots[-1] + 1)):
            raise StackError("variable slot ranges must be contiguous")
        members = sorted(
            {v for s in slots for v in slot_vars[s]},
            key=lambda v: (coloring[v], v.index),
        )
        clusters.append(
            Cluster(cid=cid, base=slots[0], width=len(slots), vars=members)
        )
    return clusters


# ----------------------------------------------------------------------
# Theorem 1: movement costs and the optimal layout
# ----------------------------------------------------------------------
def movement_weight(
    cluster: Cluster, position: int, live: list[bool], heights: list[int]
) -> int:
    """W_ij generalised to clusters: slots moved across all call sites.

    ``live[k]`` is L_ik (is the cluster live across site k); ``heights``
    are the B_k.  A cluster at ``position`` must move at site k iff it is
    live there and any of its slots reaches B_k, costing ``width`` slot
    movements.
    """
    return sum(
        cluster.width
        for k, bk in enumerate(heights)
        if live[k] and position + cluster.width - 1 >= bk
    )


def movement_row(
    cluster: Cluster,
    positions: list[int],
    live: list[bool],
    heights: list[int],
) -> list[int]:
    """:func:`movement_weight` at each of ``positions``, by bisection.

    The sites that charge a position are the live ones whose B_k its
    top slot reaches, so the weight is ``width`` times the count of
    live heights at most ``position + width - 1``: one sort, then one
    bisection per position instead of a pass over every site.
    """
    live_heights = sorted(bk for bk, is_live in zip(heights, live) if is_live)
    reach = cluster.width - 1
    return [
        cluster.width * bisect_right(live_heights, pos + reach)
        for pos in positions
    ]


def optimal_layout(
    clusters: list[Cluster],
    liveness: dict[int, list[bool]],
    heights: list[int],
    total_slots: int,
    minimize_movement: bool = True,
    pinned: dict[int, int] | None = None,
) -> dict[int, int]:
    """Choose a home position for every cluster.

    Returns cluster id -> new base slot.  ``pinned`` maps the ids of
    clusters that must not move to their base.  With
    ``minimize_movement`` off the identity layout is returned (the
    Fig. 5 ablation).
    """
    if not minimize_movement or not clusters:
        return {c.cid: c.base for c in clusters}
    pinned = pinned or {}
    taken = [False] * total_slots
    layout = dict(pinned)
    for cluster in clusters:
        if cluster.cid in pinned:
            base = pinned[cluster.cid]
            for slot in range(base, base + cluster.width):
                taken[slot] = True
    free = [c for c in clusters if c.cid not in pinned]

    # Wide clusters first: cheapest aligned position, widest first so
    # alignment holes stay available for narrower clusters.
    wide = sorted(
        (c for c in free if c.width > 1), key=lambda c: (-c.width, c.base)
    )
    for cluster in wide:
        width = cluster.width
        open_positions = [
            pos
            for pos in range(0, total_slots - width + 1, cluster.alignment)
            if not any(taken[pos : pos + width])
        ]
        if not open_positions:
            raise StackError("no aligned position left for wide cluster")
        costs = movement_row(
            cluster, open_positions, liveness[cluster.cid], heights
        )
        # The first of the cheapest positions.
        best = open_positions[costs.index(min(costs))]
        layout[cluster.cid] = best
        for slot in range(best, best + width):
            taken[slot] = True

    # Single-slot sets: Kuhn–Munkres over the remaining positions.
    narrow = [c for c in free if c.width == 1]
    if narrow:
        free_positions = [p for p in range(total_slots) if not taken[p]]
        if len(narrow) > len(free_positions):
            raise StackError("more slot-sets than positions")
        weights = [
            [
                -float(w)
                for w in movement_row(
                    c, free_positions, liveness[c.cid], heights
                )
            ]
            for c in narrow
        ]
        assignment = max_weight_assignment(weights)
        for c, col in zip(narrow, assignment):
            layout[c.cid] = free_positions[col]
    return layout


def count_total_moves(
    clusters: list[Cluster],
    layout: dict[int, int],
    liveness: dict[int, list[bool]],
    heights: list[int],
) -> int:
    """Total slot movements a layout incurs (T_mov of Section 3.2)."""
    return sum(
        movement_weight(c, layout[c.cid], liveness[c.cid], heights)
        for c in clusters
    )


def packed_height(widths_and_alignments: list[tuple[int, int]]) -> int:
    """Minimal stack height packing values of (width, alignment).

    Values go first-fit, widest first.  Values of width and alignment 1
    come last, so they fill the lowest holes the others left and then
    grow the stack: they are counted rather than placed one by one.
    """
    taken: list[bool] = []
    singles = 0
    for width, alignment in sorted(
        widths_and_alignments, key=lambda wa: (-wa[0], -wa[1])
    ):
        if width == 1 and alignment == 1:
            singles += 1
            continue
        pos = 0
        while True:
            if len(taken) < pos + width:
                taken.extend([False] * (pos + width - len(taken)))
            if pos % alignment == 0 and not any(taken[pos : pos + width]):
                for s in range(pos, pos + width):
                    taken[s] = True
                break
            pos += 1
    return len(taken) + max(0, singles - taken.count(False))


def kernel_max_live(
    module: Module,
    kernel_name: str,
    share_copies: bool = False,
    liveness: dict[str, LivenessInfo] | None = None,
) -> int:
    """Inter-procedural max-live of a kernel's whole call tree.

    ``ml(f) = max(own max-live, max over sites (packed live-at-site +
    ml(callee)))`` — the registers a thread needs with perfect (spill
    free, compressible-stack) allocation.  A register copy and its
    still-live source count twice, though: interference leaves that
    pair unconnected and coalescing may merge it.  ``share_copies``
    counts them once (the ``copy_*`` liveness figures), which makes the
    result a floor: no spill-free allocation of the tree fits in fewer.
    ``liveness`` keeps each function's analysis, by name, for the next
    call on the same module.
    """
    callgraph = CallGraph(module)
    liveness = {} if liveness is None else liveness
    memo: dict[str, int] = {}
    for name in callgraph.bottom_up_order(kernel_name):
        info = liveness.get(name)
        if info is None:
            info = liveness[name] = analyze_liveness(module.functions[name])
        best = info.copy_max_live if share_copies else info.max_live
        across = (
            info.copy_live_across_calls
            if share_copies
            else info.live_across_calls
        )
        for block, index, inst in callgraph.call_sites[name]:
            live = across[(block, index)]
            height = packed_height(
                [(v.width, required_alignment(v.width)) for v in live]
            )
            callee = inst.callee
            assert callee is not None
            best = max(best, height + memo.get(callee, 0))
        memo[name] = best
    return memo[kernel_name]


# ----------------------------------------------------------------------
# Whole-module inter-procedure assembly
# ----------------------------------------------------------------------
@dataclass
class CallSitePlan:
    """Everything needed to rewrite one call site."""

    block: str
    index: int
    callee: str
    bk: int  # compressed height, caller-relative
    #: (variable, from_slot, to_slot) save moves, caller-relative
    saves: list[tuple[Reg, int, int]] = field(default_factory=list)

    @property
    def move_count(self) -> int:
        return sum(var.width for var, _, _ in self.saves)


@dataclass
class InterprocResult:
    """Outcome of inter-procedure allocation for one kernel's call tree."""

    bases: dict[str, int]
    #: final variable -> absolute slot, per function
    slot_maps: dict[str, dict[Reg, int]]
    plans: dict[str, list[CallSitePlan]]
    #: registers per thread: every frame, plus the parallel-copy scratch
    #: slot above each call's arguments
    total_slots: int

    def static_move_count(self) -> int:
        """Save moves across all call sites (restores mirror them)."""
        return sum(
            plan.move_count
            for plans in self.plans.values()
            for plan in plans
        )


def plan_interprocedural(
    module: Module,
    kernel_name: str,
    colorings: dict[str, dict[Reg, int]],
    space_minimization: bool = True,
    movement_minimization: bool = True,
) -> InterprocResult:
    """Compute bases, layouts, and per-site move plans for a kernel tree.

    The compressed height of a call site is normally the packed size of
    the values held across it; fragmentation (alignment holes, or the
    identity layout of the no-movement-minimisation ablation) can make
    that unreachable, in which case planning retries with extra slack —
    trading a slightly taller stack for feasibility, exactly the
    space/movement trade-off of Section 3.2.
    """
    extra_height: dict[tuple[str, str, int], int] = {}
    for _ in range(64):
        try:
            return _plan_once(
                module,
                kernel_name,
                colorings,
                space_minimization,
                movement_minimization,
                extra_height,
            )
        except _SiteOverflow as overflow:
            extra_height[overflow.site] = (
                extra_height.get(overflow.site, 0) + 1
            )
    raise StackError(
        f"{kernel_name}: site heights did not stabilise "
        f"(requested extra: {extra_height})"
    )


class _SiteOverflow(Exception):
    """A site's compressed height left no room for its save moves."""

    def __init__(self, site: tuple[str, str, int]) -> None:
        super().__init__(site)
        self.site = site


@dataclass
class _Site:
    """One call site's facts before layout."""

    block: str
    index: int
    inst: Instruction
    live_across: set[Reg]
    min_height: int


def _plan_once(
    module: Module,
    kernel_name: str,
    colorings: dict[str, dict[Reg, int]],
    space_minimization: bool,
    movement_minimization: bool,
    extra_height: dict[tuple[str, str, int], int],
) -> InterprocResult:
    callgraph = CallGraph(module)
    # Sorted for reproducibility: name-set iteration order is hash-seed
    # dependent, and plan/layout bookkeeping follows iteration order.
    reachable = sorted(callgraph.reachable(kernel_name))
    reachable_set = set(reachable)
    top_down = [
        name
        for name in reversed(callgraph.bottom_up_order(kernel_name))
        if name in reachable_set
    ]

    slots_used: dict[str, int] = {}
    for name in reachable:
        coloring = colorings[name]
        slots_used[name] = max(
            (base + var.width for var, base in coloring.items()), default=0
        )

    # ---- per-function call-site facts (before layout) -----------------
    sites: dict[str, list[_Site]] = {}
    for name in reachable:
        call_sites = callgraph.call_sites[name]
        if not call_sites:
            sites[name] = []
            continue
        coloring = colorings[name]
        across = live_across_calls(module.functions[name])
        fn_sites: list[_Site] = []
        for block, index, inst in call_sites:
            live = {v for v in across[(block, index)] if v in coloring}
            if space_minimization:
                held = live | {
                    a
                    for a in inst.srcs
                    if isinstance(a, VirtualReg) and a in coloring
                }
                height = packed_height(
                    [(v.width, required_alignment(v.width)) for v in held]
                )
            else:
                height = slots_used[name]
            height += extra_height.get((name, block, index), 0)
            fn_sites.append(_Site(block, index, inst, live, height))
        sites[name] = fn_sites

    # ---- bases (top-down; every caller precedes its callees) ----------
    bases: dict[str, int] = {name: 0 for name in reachable}
    for name in top_down:
        for site in sites[name]:
            callee = site.inst.callee
            assert callee is not None
            bases[callee] = max(
                bases[callee], bases[name] + site.min_height
            )

    # ---- per-function layout optimisation ------------------------------
    slot_maps: dict[str, dict[Reg, int]] = {}
    plans: dict[str, list[CallSitePlan]] = {}
    total_slots = 0

    for name in reachable:
        fn = module.functions[name]
        coloring = colorings[name]
        clusters = build_clusters(coloring)
        heights = [
            bases[s.inst.callee] - bases[name] for s in sites[name]  # type: ignore[index]
        ]
        # L_ik: cluster i is live across site k when any of its
        # variables is.
        cluster_of = {v: c.cid for c in clusters for v in c.vars}
        live_matrix = {c.cid: [False] * len(heights) for c in clusters}
        for k, site in enumerate(sites[name]):
            for var in site.live_across:
                live_matrix[cluster_of[var]][k] = True
        # Pin device-function argument slots: the calling convention
        # places args at relative slots 0..n-1, so the clusters holding
        # them must not move.
        pinned = {
            c.cid: c.base
            for c in clusters
            if any(
                isinstance(v, VirtualReg)
                and v.index < fn.num_args
                and coloring[v] == v.index
                for v in c.vars
            )
        }
        layout = optimal_layout(
            clusters,
            live_matrix,
            heights,
            slots_used[name],
            movement_minimization,
            pinned,
        )
        slot_map = {}
        for cluster in clusters:
            delta = layout[cluster.cid] - cluster.base
            for var in cluster.vars:
                slot_map[var] = coloring[var] + delta + bases[name]
        slot_maps[name] = slot_map
        total_slots = max(total_slots, bases[name] + slots_used[name])

        # ---- save/restore planning per site ----------------------------
        fn_plans: list[CallSitePlan] = []
        for site, bk in zip(sites[name], heights):
            callee = site.inst.callee
            assert callee is not None
            plan = CallSitePlan(site.block, site.index, callee, bk)
            live_rel = {
                v: slot_map[v] - bases[name] for v in site.live_across
            }
            arg_slots = {
                slot_map[s] - bases[name]
                for s in site.inst.srcs
                if isinstance(s, VirtualReg) and s in slot_map
            }
            result_slots: set[int] = set()
            if site.inst.dst is not None and site.inst.dst in slot_map:
                rbase = slot_map[site.inst.dst] - bases[name]
                result_slots = set(
                    range(rbase, rbase + site.inst.dst.width)
                )
            occupied: set[int] = set(result_slots)
            for var, rel in live_rel.items():
                occupied.update(range(rel, rel + var.width))
            occupied |= arg_slots
            movers = sorted(
                (
                    (var, rel)
                    for var, rel in live_rel.items()
                    if rel + var.width - 1 >= bk
                ),
                key=lambda vr: (-vr[0].width, vr[1]),
            )
            for var, rel in movers:
                dest = _find_free_range(
                    occupied, bk, var.width, required_alignment(var.width)
                )
                if dest is None:
                    # No room below B_k (alignment holes, or the result
                    # and argument slots eat the space): retry the plan
                    # with this site one slot taller.
                    raise _SiteOverflow((name, site.block, site.index))
                plan.saves.append((var, rel, dest))
                occupied.update(range(dest, dest + var.width))
                for s in range(rel, rel + var.width):
                    occupied.discard(s)
            fn_plans.append(plan)
            # Argument slots live in the callee window; reserve one more
            # slot for the parallel-copy scratch register when there are
            # arguments at all (cycles among argument copies are rare but
            # possible).
            n_args = len(site.inst.srcs)
            if n_args:
                total_slots = max(
                    total_slots, bases[name] + bk + n_args + 1
                )
        plans[name] = fn_plans

    return InterprocResult(
        bases=bases,
        slot_maps=slot_maps,
        plans=plans,
        total_slots=total_slots,
    )


def _find_free_range(
    occupied: set[int], limit: int, width: int, alignment: int
) -> int | None:
    """Lowest aligned base below ``limit`` with ``width`` free slots."""
    for base in range(0, limit - width + 1, alignment):
        if all(slot not in occupied for slot in range(base, base + width)):
            return base
    return None


# ----------------------------------------------------------------------
# Code rewriting: virtual -> absolute physical slots + call protocols
# ----------------------------------------------------------------------
def rewrite_module(
    module: Module,
    kernel_name: str,
    result: InterprocResult,
) -> None:
    """Rewrite every reachable function to absolute physical registers.

    Calls become bare control transfers: arguments are copied into the
    callee's argument slots, the result is fetched from the callee's
    base slot, and compressible-stack save/restore moves bracket the
    call per the site plan.
    """
    for name, slot_map in result.slot_maps.items():
        fn = module.functions[name]
        base = result.bases[name]
        mapping: dict[Reg, PhysReg] = {
            var: PhysReg(slot, var.width) for var, slot in slot_map.items()
        }

        plans_by_site = {
            (plan.block, plan.index): plan for plan in result.plans[name]
        }
        for block in fn.ordered_blocks():
            rewritten: list[Instruction] = []
            for idx, inst in enumerate(block.instructions):
                plan = plans_by_site.get((block.label, idx))
                if plan is not None:
                    rewritten.extend(
                        _rewrite_call(inst, plan, mapping, base, result)
                    )
                    continue
                if inst.opcode is Opcode.RET and inst.srcs:
                    value = inst.srcs[0]
                    moved = _map_operand(value, mapping)
                    width = (
                        value.width
                        if isinstance(value, (VirtualReg, PhysReg))
                        else 1
                    )
                    rewritten.append(mov(PhysReg(base, width), moved))
                    rewritten.append(Instruction(Opcode.RET))
                    continue
                if inst.dst is not None and isinstance(inst.dst, VirtualReg):
                    if inst.dst not in mapping:
                        raise StackError(
                            f"uncoloured variable {inst.dst} in {name}"
                        )
                    inst.dst = mapping[inst.dst]
                inst.srcs = [_map_operand(s, mapping) for s in inst.srcs]
                rewritten.append(inst)
            block.instructions = rewritten


def _map_operand(op: Operand, mapping: dict[Reg, PhysReg]) -> Operand:
    if isinstance(op, VirtualReg):
        phys = mapping.get(op)
        if phys is None:
            raise StackError(f"uncoloured variable {op}")
        return phys
    return op


def _rewrite_call(
    inst: Instruction,
    plan: CallSitePlan,
    mapping: dict[Reg, PhysReg],
    caller_base: int,
    result: InterprocResult,
) -> list[Instruction]:
    callee_base = result.bases[plan.callee]
    out: list[Instruction] = []

    # 1. Save moves (compress the caller's live stack below B_k).
    for var, from_rel, to_rel in plan.saves:
        out.append(
            mov(
                PhysReg(caller_base + to_rel, var.width),
                PhysReg(caller_base + from_rel, var.width),
            )
        )
    # 2. Argument copies into the callee frame — a parallel copy, since
    #    an argument's source slot may be another argument's destination.
    save_relocation = {
        caller_base + from_rel: caller_base + to_rel
        for _, from_rel, to_rel in plan.saves
    }
    arg_copies: list[tuple[PhysReg, Operand]] = []
    for i, src in enumerate(inst.srcs):
        dest = PhysReg(callee_base + i, 1)
        if isinstance(src, VirtualReg):
            phys = mapping[src]
            # If this argument was itself saved, read the saved location.
            index = save_relocation.get(phys.index, phys.index)
            arg_copies.append((dest, PhysReg(index, phys.width)))
        else:
            arg_copies.append((dest, src))
    scratch = PhysReg(callee_base + len(inst.srcs), 1)
    out.extend(_sequential_slot_copies(arg_copies, scratch))

    # 3. The call itself, stripped to a control transfer.
    out.append(Instruction(Opcode.CALL, callee=inst.callee))

    # 4. Fetch the result before restores can clobber the callee window.
    if inst.dst is not None:
        dst_phys = (
            mapping[inst.dst]
            if isinstance(inst.dst, VirtualReg)
            else inst.dst
        )
        out.append(
            mov(dst_phys, PhysReg(callee_base, dst_phys.width))
        )
    # 5. Restore moves (mirror of the saves).
    for var, from_rel, to_rel in reversed(plan.saves):
        out.append(
            mov(
                PhysReg(caller_base + from_rel, var.width),
                PhysReg(caller_base + to_rel, var.width),
            )
        )
    return out


def _sequential_slot_copies(
    copies: list[tuple[PhysReg, Operand]], scratch: PhysReg
) -> list[Instruction]:
    """Sequentialise a parallel copy over physical slots."""
    pending = [
        (dst, src)
        for dst, src in copies
        if not (isinstance(src, PhysReg) and src.index == dst.index)
    ]
    out: list[Instruction] = []
    while pending:
        blocked = {
            slot
            for _, src in pending
            if isinstance(src, PhysReg)
            for slot in src.slots
        }
        progress = False
        for i, (dst, src) in enumerate(pending):
            if not any(slot in blocked for slot in dst.slots):
                out.append(mov(dst, src))
                pending.pop(i)
                progress = True
                break
        if progress:
            continue
        dst, src = pending[0]
        assert isinstance(src, PhysReg)
        out.append(mov(PhysReg(scratch.index, src.width), src))
        pending = [
            (
                d,
                PhysReg(scratch.index, src.width)
                if isinstance(s, PhysReg) and s.index == src.index
                else s,
            )
            for d, s in pending
        ]
    return out
