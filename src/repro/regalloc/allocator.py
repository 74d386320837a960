"""Whole-module on-chip memory allocation for one register budget.

This is the "realizing occupancy" engine (paper Section 3.2): given a
per-thread slot budget (derived from a target occupancy via Equation 1),
produce a binary that fits it:

1. per function: pruned SSA construction + φ elimination, interference
   graph, Fig. 4 colouring with the argument slots pre-coloured;
   uncolourable variables spill to local memory and the function is
   re-coloured until clean;
2. optionally promote the hottest spilled slots into shared memory (the
   *conservative* configuration fits all variables on-chip);
3. inter-procedure planning with the compressible stack and
   Kuhn–Munkres movement minimisation, then rewriting every function to
   absolute physical registers with the call protocol in place.

If the resulting tree exceeds the budget, the offending functions are
re-allocated with tighter per-function budgets until the total fits.

Orion allocates the same source once per candidate occupancy, and the
SSA form, each function's first interference graph and the source's
max-live do not depend on the budget: a :class:`PreparedModule` holds
them for every allocation of one compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.callgraph import CallGraph
from repro.ir.function import Module
from repro.ir.interference import InterferenceGraph, build_interference
from repro.ir.liveness import LivenessInfo
from repro.ir.ssa import construct_ssa, destruct_ssa, lift_to_virtual
from repro.isa.registers import PhysReg, Reg, VirtualReg
from repro.regalloc.chaitin import color_graph
from repro.regalloc.shared_assign import promote_spills_to_shared
from repro.regalloc.spill import SpillState, insert_spill_code
from repro.regalloc.strategy import SpillStrategy, get_strategy
from repro.regalloc.stack import (
    InterprocResult,
    StackError,
    kernel_max_live,
    plan_interprocedural,
    rewrite_module,
)


class BudgetError(ValueError):
    """Raised when a register budget is too small to realise at all."""


@dataclass
class AllocationOutcome:
    """An allocated, physically-registered module plus its resource bill."""

    #: ``None`` for a version parsed from a fat binary until its first
    #: read through :attr:`repro.compiler.realize.KernelVersion.module`
    module: Module | None
    kernel_name: str
    registers_per_thread: int
    #: user-declared shared memory + per-block spill promotion overhead
    shared_bytes_per_block: int
    #: local (off-chip, L1-cached) spill frame per thread, bytes
    local_bytes_per_thread: int
    spilled_variables: int
    #: static compressible-stack moves (saves; restores mirror them)
    stack_moves: int
    interproc: InterprocResult | None = None
    colorings: dict[str, dict[Reg, int]] = field(default_factory=dict)
    #: id of the :class:`~repro.regalloc.strategy.SpillStrategy`
    #: that placed the spills (resource accounting follows it).
    strategy: str = "local-spill"
    #: spill slots living in the per-thread shared-memory frame
    smem_spill_slots: int = 0


class PreparedModule:
    """The budget-independent part of allocating one kernel tree.

    Built once per compile and shared by every allocation of it:

    * :attr:`module`: a copy of the source holding only the functions
      the kernel reaches (:attr:`reachable`, sorted), lifted to virtual
      registers where they held physical ones, and taken through pruned
      SSA construction and destruction.  Each allocation colours a copy
      of it.
    * :meth:`graph`: a function's interference graph in that form, which
      each allocation's first colouring round of the function starts
      from.
    * :meth:`max_live`: the tree's max-live, from one liveness analysis
      per *source* function.

    Graphs and liveness are built on first use.  Nothing is changed once
    built: allocations copy the module, and coalescing and colouring
    only read a graph.  The source must not change while the prepared
    form is in use.
    """

    def __init__(self, source: Module, kernel_name: str) -> None:
        self.source = source
        self.kernel_name = kernel_name
        # Iterate function names in sorted order: the set's iteration
        # order depends on the string hash seed, and allocation details
        # (shared promotion offsets, shrink order) follow iteration order.
        reached = CallGraph(source).reachable(kernel_name)
        self.reachable = sorted(reached)
        # Dead-function elimination: functions the kernel can never
        # reach are not allocated, and carrying them with virtual
        # registers would fail the output verifier — the fat binary
        # ships reachable code only.
        self.module = work = Module(source.name)
        for name, fn in source.functions.items():
            if name not in reached:
                continue
            fn = work.add(fn.copy())
            # Re-allocating a decoded binary (the real Orion flow): lift
            # its physical registers to variables first; SSA renaming
            # then splits each register into its constituent webs.
            if any(isinstance(r, PhysReg) for r in fn.all_regs()):
                lift_to_virtual(fn)
            # Real binaries legitimately contain values defined only on
            # some paths (e.g. inside a loop known to run at least once);
            # reading such a value is undefined behaviour that the
            # zero-init fixup models consistently with the interpreter's
            # semantics.
            construct_ssa(fn, allow_undef=True)
            destruct_ssa(fn)
        self._graphs: dict[str, InterferenceGraph] = {}
        self._liveness: dict[str, LivenessInfo] = {}

    def graph(self, name: str) -> InterferenceGraph:
        """Function ``name``'s interference graph in the prepared form."""
        graph = self._graphs.get(name)
        if graph is None:
            graph = build_interference(self.module.functions[name])
            self._graphs[name] = graph
        return graph

    def max_live(self, share_copies: bool = False) -> int:
        """:func:`kernel_max_live` of the source tree."""
        return kernel_max_live(
            self.source, self.kernel_name, share_copies, self._liveness
        )


def prepare(
    module: Module | PreparedModule, kernel_name: str
) -> PreparedModule:
    """``module``'s prepared form for ``kernel_name`` (itself if prepared)."""
    if not isinstance(module, PreparedModule):
        return PreparedModule(module, kernel_name)
    if module.kernel_name != kernel_name:
        raise ValueError(
            f"module prepared for {module.kernel_name!r}, not {kernel_name!r}"
        )
    return module


def allocate_module(
    module: Module | PreparedModule,
    kernel_name: str,
    reg_budget: int,
    block_size: int = 256,
    smem_spill_budget_per_thread: int = 0,
    space_minimization: bool = True,
    movement_minimization: bool = True,
    max_iterations: int = 48,
    strategy: str | SpillStrategy | None = None,
) -> AllocationOutcome:
    """Allocate ``module`` so the kernel tree fits ``reg_budget`` slots.

    Returns a *new* module (the input is untouched) rewritten to
    physical registers.  ``module`` may be the kernel's
    :class:`PreparedModule`, shared by the allocations of one compile;
    a plain module is prepared here.  ``smem_spill_budget_per_thread``
    enables shared-memory promotion of spilled values (bytes each thread
    may claim from the block's shared allowance).

    ``strategy`` selects the spill target (see
    :mod:`repro.regalloc.strategy`); ``None`` means the reference
    ``local-spill`` behaviour.  Under a shared-spill strategy the
    promotion budget is unconditionally unbounded: every spill slot
    moves into the per-thread shared frame, and whether the resulting
    shared footprint still meets an occupancy target is the realize
    step's problem, not the allocator's.
    """
    strat = get_strategy(strategy)
    if strat.spills_to_shared:
        # Effectively unlimited: the block's shared capacity is checked
        # downstream by the occupancy arithmetic.
        smem_spill_budget_per_thread = 1 << 30
    if reg_budget <= 0:
        raise BudgetError("register budget must be positive")
    prepared = prepare(module, kernel_name)
    work = prepared.module.copy()
    reachable = prepared.reachable
    # Functions still in their prepared form, whose graph is shared.
    fresh = set(reachable)

    budgets = {name: reg_budget for name in reachable}
    spill_states: dict[str, SpillState] = {name: SpillState() for name in reachable}
    promoted: set[str] = set()
    shared_extra = 0
    shared_cursor = work.functions[kernel_name].shared_bytes
    spilled_total = 0
    smem_slots_total = 0

    colorings: dict[str, dict[Reg, int]] = {}
    plan: InterprocResult | None = None

    for _ in range(max_iterations):
        for name in reachable:
            if name not in colorings:
                colorings[name], newly_spilled = _allocate_function(
                    work,
                    name,
                    budgets[name],
                    spill_states[name],
                    prepared.graph(name) if name in fresh else None,
                )
                fresh.discard(name)
                spilled_total += newly_spilled
                if (
                    smem_spill_budget_per_thread > 0
                    and name not in promoted
                    and spill_states[name].offsets
                ):
                    promotion = promote_spills_to_shared(
                        work.functions[name],
                        spill_states[name],
                        smem_spill_budget_per_thread,
                        block_size,
                        user_shared_bytes=shared_cursor,
                    )
                    promoted.add(name)
                    smem_slots_total += len(promotion.promoted)
                    if promotion.frame_bytes:
                        shared_extra += promotion.extra_shared_bytes
                        shared_cursor += promotion.extra_shared_bytes
                        # The base register is new: re-colour this function.
                        colorings[name], newly_spilled = _allocate_function(
                            work, name, budgets[name], spill_states[name]
                        )
                        spilled_total += newly_spilled
        try:
            plan = plan_interprocedural(
                work,
                kernel_name,
                colorings,
                space_minimization=space_minimization,
                movement_minimization=movement_minimization,
            )
        except StackError as exc:
            raise BudgetError(str(exc)) from exc
        if plan.total_slots <= reg_budget:
            break
        # Over budget: shrink the deepest offenders and retry.  When a
        # function's *base* alone exceeds the budget (deep call chains
        # under naive space allocation), its callers must shrink too —
        # their slot usage is what pushes the base up.
        shrunk = False
        for name in reachable:
            if name not in colorings:
                continue  # already queued for re-allocation this round
            ceiling = reg_budget - plan.bases[name]
            over = plan.bases[name] + _slots_used(colorings[name]) > reg_budget
            if over and ceiling > 0:
                budgets[name] = max(
                    _min_budget(work, name), min(budgets[name] - 1, ceiling)
                )
                colorings.pop(name)
                shrunk = True
            elif ceiling <= 0:
                for caller in reachable:
                    floor = _min_budget(work, caller)
                    squeezed = max(
                        floor, min(budgets[caller] - 1, budgets[caller] * 4 // 5)
                    )
                    if squeezed < budgets[caller]:
                        budgets[caller] = squeezed
                        colorings.pop(caller, None)
                        shrunk = True
        if not shrunk:
            # Bases themselves push past the budget (arg/scratch slots).
            victim = max(
                reachable, key=lambda n: plan.bases[n] + _slots_used(colorings[n])
            )
            if budgets[victim] <= _min_budget(work, victim):
                raise BudgetError(f"cannot fit {kernel_name} in {reg_budget}")
            budgets[victim] -= 1
            colorings.pop(victim)
    else:
        raise BudgetError(
            f"allocation did not converge within {max_iterations} rounds"
        )

    assert plan is not None
    rewrite_module(work, kernel_name, plan)
    _verify_output(work, reg_budget, plan)
    local_bytes = max(
        (spill_states[name].frame_bytes for name in reachable), default=0
    )
    # Local frames are per-function but a thread can be in at most one
    # deep chain; to keep addressing static each function's frame starts
    # at a distinct offset, so total local usage is the sum.
    total_local = sum(spill_states[name].frame_bytes for name in reachable)
    if strat.spills_to_shared:
        # All slots known at promotion time moved into shared memory;
        # only functions whose re-colouring spilled *after* promotion
        # (one-shot, so those fall back to local) still need a local
        # frame window.
        total_local = _residual_local_bytes(work, reachable, spill_states)
    _offset_local_frames(work, reachable, spill_states)

    _count_allocation(spilled_total, plan.static_move_count())
    if smem_slots_total:
        _count_smem_spills(smem_slots_total, strat.id)
    return AllocationOutcome(
        module=work,
        kernel_name=kernel_name,
        registers_per_thread=plan.total_slots,
        shared_bytes_per_block=work.functions[kernel_name].shared_bytes
        + shared_extra,
        local_bytes_per_thread=total_local,
        spilled_variables=spilled_total,
        stack_moves=plan.static_move_count(),
        interproc=plan,
        colorings=colorings,
        strategy=strat.id,
        smem_spill_slots=smem_slots_total,
    )


def _count_allocation(spilled: int, stack_moves: int) -> None:
    """Charge one finished allocation to the metrics registry.

    Lazy import: the allocator sits well below :mod:`repro.obs` in the
    import graph.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter(
        "orion_allocations_total", "Completed module allocations."
    ).inc()
    registry.counter(
        "orion_allocator_spilled_variables_total",
        "Variables spilled to compressible-stack space across allocations.",
    ).inc(spilled)
    registry.counter(
        "orion_allocator_stack_moves_total",
        "Static stack-move instructions emitted across allocations.",
    ).inc(stack_moves)


def _count_smem_spills(slots: int, strategy_id: str) -> None:
    """Charge shared-memory spill promotions, labelled by strategy."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_allocator_smem_spill_slots_total",
        "Spill slots promoted into per-thread shared-memory frames.",
    ).inc(slots, strategy=strategy_id)


def _residual_local_bytes(
    module: Module, reachable: list[str], states: dict[str, SpillState]
) -> int:
    """Local frame bytes still *used* after shared promotion.

    A function whose spills all moved to shared memory keeps its (now
    unreferenced) frame layout in ``SpillState``; only functions with a
    surviving frame-addressed local access actually reserve local
    memory.
    """
    from repro.isa.instructions import MemSpace
    from repro.regalloc.shared_assign import _is_frame_addressed

    total = 0
    for name in reachable:
        state = states[name]
        if not state.frame_bytes:
            continue
        fn = module.functions[name]
        if any(
            inst.is_memory
            and inst.space is MemSpace.LOCAL
            and _is_frame_addressed(inst)
            for inst in fn.instructions()
        ):
            total += state.frame_bytes
    return total


def _slots_used(coloring: dict[Reg, int]) -> int:
    return max((b + v.width for v, b in coloring.items()), default=0)


def _min_budget(module: Module, name: str) -> int:
    """Smallest meaningful per-function budget (arguments need slots)."""
    return max(2, module.functions[name].num_args + 1)


def _verify_output(
    module: Module, reg_budget: int, plan: InterprocResult | None = None
) -> None:
    """Machine-verify the allocated module (a compiler self-check).

    Handing over the interprocedural plan lets the verifier check the
    compressible-stack protocol (save/restore balance, exact frame
    bases) with the allocator's own slot maps instead of re-deriving
    them from the code.
    """
    from repro.ir.verify import assert_verified

    assert_verified(
        module, physical=True, reg_budget=reg_budget, interproc=plan
    )


def _allocate_function(
    module: Module,
    name: str,
    budget: int,
    spill_state: SpillState,
    graph: InterferenceGraph | None = None,
) -> tuple[dict[Reg, int], int]:
    """Colour one function under ``budget``, spilling until clean.

    Before the first colouring attempt, move-related variables (mostly
    φ-elimination copies) are conservatively coalesced — Briggs's test
    guarantees this can never introduce a spill.  ``graph``, when given,
    is the function's interference graph as it stands; it is only read.
    """
    from repro.regalloc.coalesce import coalesce_moves

    fn = module.functions[name]
    precolored = {VirtualReg(i, 1): i for i in range(fn.num_args)}
    if fn.num_args > budget:
        raise BudgetError(
            f"{name}: {fn.num_args} arguments exceed budget {budget}"
        )
    reload_temps = {t for temps in spill_state.temps.values() for t in temps}
    spilled_count = 0
    coalesced = False
    for _ in range(64):
        if graph is None:
            graph = build_interference(fn)
        if not coalesced:
            coalesced = True
            report = coalesce_moves(fn, graph, budget, precolored)
            if report.replacements:
                graph = build_interference(fn)
        result = color_graph(graph, budget, precolored=precolored)
        if not result.spilled:
            return result.coloring, spilled_count
        if any(v in reload_temps for v in result.spilled):
            raise BudgetError(
                f"{name}: budget {budget} too small even for reload "
                "temporaries"
            )
        insert_spill_code(fn, result.spilled, spill_state)
        graph = None
        reload_temps = {
            t for temps in spill_state.temps.values() for t in temps
        }
        spilled_count += len(result.spilled)
    raise BudgetError(f"{name}: spilling did not converge under {budget}")


def _offset_local_frames(
    module: Module, reachable: list[str], states: dict[str, SpillState]
) -> None:
    """Give each function a disjoint local-memory frame window."""
    from repro.isa.instructions import MemSpace

    cursor = 0
    for name in sorted(reachable):
        state = states[name]
        if not state.frame_bytes:
            continue
        if cursor:
            for inst in module.functions[name].instructions():
                if inst.is_memory and inst.space is MemSpace.LOCAL:
                    inst.offset += cursor
        cursor += state.frame_bytes


def minimal_budget(
    module: Module | PreparedModule, kernel_name: str, upper_bound: int = 255
) -> tuple[int, AllocationOutcome]:
    """Smallest register budget allocating the kernel tree spill-free.

    Defines the paper's *original* version: "all live values fit into
    the minimal number of registers".  The search starts at the tree's
    max-live with each register copy sharing its live source's slot
    (:func:`kernel_max_live` with ``share_copies``), below which nothing
    allocates spill-free, and walks upward one register at a time.  The
    first spill-free budget wins; on the benchmark kernels it is the
    first one tried.  When no budget up to ``upper_bound`` is
    spill-free, every budget from the start to the bound is probed and
    :class:`BudgetError` is raised.

    Returns the budget with its allocation, so the caller need not
    build it again.  Probes use the default block size and strategy: a
    spill-free allocation is the same under all of them, except that
    its ``strategy`` field always reads ``local-spill``.
    """
    prepared = prepare(module, kernel_name)
    floor = prepared.max_live(share_copies=True)
    for budget in range(max(1, floor), upper_bound + 1):
        try:
            outcome = allocate_module(prepared, kernel_name, budget)
        except BudgetError:
            continue
        if outcome.spilled_variables == 0:
            return budget, outcome
    raise BudgetError(
        f"{kernel_name} does not allocate spill-free within "
        f"{upper_bound} registers"
    )
