"""Compile-time occupancy tuning (paper Section 3.3, Fig. 8).

The compiler narrows the occupancy search to at most a handful of
candidate kernel versions the runtime then trials:

1. the **original** version — all live values in the minimal number of
   registers (or the per-thread hardware cap), the safe starting point;
2. the tuning **direction** from max-live: at or above the
   full-occupancy register count (32 on Kepler) the kernel starts low
   and tunes *upward*; below it the kernel already runs at maximum
   occupancy and tunes *downward*;
3. upward: one version per occupancy level from the **conservative**
   level (everything fits on-chip: registers + shared memory) up to the
   hardware maximum, thinned to ``max_versions``;
   downward: the original binary re-padded with unused shared memory at
   each lower level (no recompilation needed — Fig. 8's comment);
4. a **fail-safe** version in the opposite direction, in case the
   predicted direction is wrong at runtime;
5. kernels that cannot be dynamically tuned fall back to the ICS'14
   static selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.occupancy import calculate_occupancy, occupancy_levels
from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.compiler.maxlive import tuning_direction
from repro.compiler.realize import (
    KernelVersion,
    RealizeError,
    realize_occupancy,
    repad_version,
)
from repro.compiler.static_select import static_selection
from repro.ir.function import Module
from repro.isa.encoding import encode_module
from repro.obs.spans import span
from repro.regalloc.allocator import (
    BudgetError,
    PreparedModule,
    allocate_module,
    minimal_budget,
    prepare,
)
from repro.regalloc.strategy import (
    DEFAULT_STRATEGY_ID,
    SpillStrategy,
    get_strategy,
)


def _count_realization(
    kernel_name: str, version, strategy: str = DEFAULT_STRATEGY_ID
) -> None:
    """One candidate realization attempt, by outcome and strategy."""
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_candidate_realizations_total",
        "Candidate kernel-version realization attempts per kernel.",
    ).inc(
        kernel=kernel_name,
        result="ok" if version is not None else "infeasible",
        strategy=strategy,
    )


@dataclass
class TuningPlan:
    """The compiler's candidate set handed to the runtime tuner."""

    kernel_name: str
    direction: str  # "increasing" | "decreasing"
    can_tune: bool
    #: trial order: versions[0] runs first (the original), then the
    #: runtime walks forward while performance improves.
    versions: list[KernelVersion] = field(default_factory=list)
    #: opposite-direction fallback tried only on misprediction
    failsafe: list[KernelVersion] = field(default_factory=list)
    max_live: int = 0

    @property
    def original(self) -> KernelVersion:
        return self.versions[0]

    def all_versions(self) -> list[KernelVersion]:
        return list(self.versions) + list(self.failsafe)


def original_version(
    module: Module | PreparedModule,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    strategy: str | SpillStrategy | None = None,
) -> KernelVersion:
    """The paper's *original*: minimal spill-free registers (or the cap)."""
    strat = get_strategy(strategy)
    prepared = prepare(module, kernel_name)
    cap = arch.max_registers_per_thread
    try:
        _, outcome = minimal_budget(prepared, kernel_name, upper_bound=cap)
    except BudgetError:
        # Cannot fit spill-free under the hardware cap: use the cap.
        # The search's last probe was this budget, but under the
        # default strategy, so the cap is allocated again here.
        outcome = allocate_module(
            prepared, kernel_name, cap, block_size=block_size, strategy=strat
        )
    occ = calculate_occupancy(
        arch,
        block_size,
        outcome.registers_per_thread,
        outcome.shared_bytes_per_block,
        cache_config,
    )
    return KernelVersion(
        label="original",
        target_warps=occ.active_warps,
        achieved_warps=occ.active_warps,
        occupancy=occ.occupancy,
        regs_per_thread=outcome.registers_per_thread,
        smem_per_block=outcome.shared_bytes_per_block,
        smem_padding=0,
        outcome=outcome,
        binary=encode_module(outcome.module),
        strategy=strat.id,
    )


def conservative_level(
    module: Module | PreparedModule,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> int:
    """Highest warp count at which all live values still fit on-chip.

    At ``W`` resident warps each thread owns ``regs/W·32`` register
    slots plus its share of spare shared memory; the conservative level
    is the largest ``W`` whose combined slots cover max-live.  Occupancy
    does not depend on the allocation strategy, so neither does the
    level.
    """
    prepared = prepare(module, kernel_name)
    ml = max(1, prepared.max_live())
    user_smem = prepared.source.functions[kernel_name].shared_bytes
    warps_per_block = max(1, (block_size + arch.warp_size - 1) // arch.warp_size)
    best = occupancy_levels(arch, block_size)[0]
    for warps in occupancy_levels(arch, block_size):
        threads = warps * arch.warp_size
        reg_slots = arch.registers_per_sm // threads
        blocks = warps // warps_per_block
        spare_smem = arch.shared_memory_bytes(cache_config) - blocks * user_smem
        smem_slots = max(0, spare_smem) // (threads * 4)
        if reg_slots + smem_slots >= ml:
            best = warps
    return best


def compile_time_tuning(
    module: Module,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int,
    can_tune: bool = True,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    max_versions: int = 5,
    strategies: tuple[str, ...] | None = None,
) -> TuningPlan:
    """Fig. 8: produce the candidate kernel-version set.

    ``strategies`` enumerates candidates per allocation strategy ×
    occupancy level (upward direction); ``None`` means the reference
    ``local-spill`` only, which reproduces today's plan exactly.  The
    *first* strategy is primary: it realises the original version and
    the fail-safes, so mixed-strategy plans stay anchored to a known
    baseline.  Downward tuning re-pads the original binary, which never
    spills — strategies are equivalent there, so only the primary is
    used.

    Every allocation of the compile starts from one
    :class:`~repro.regalloc.allocator.PreparedModule`, built under the
    ``prepare`` span.
    """
    strategy_set = tuple(strategies) if strategies else (DEFAULT_STRATEGY_ID,)
    for sid in strategy_set:
        get_strategy(sid)  # validate early
    primary = strategy_set[0]
    threshold = arch.registers_per_thread_at_full_occupancy
    with span("prepare", kernel=kernel_name):
        # The SSA form and the source liveness behind max-live; each
        # function's first interference graph is built by the first
        # allocation that colours it.
        prepared = PreparedModule(module, kernel_name)
        direction = tuning_direction(prepared, kernel_name, threshold)
    plan = TuningPlan(
        kernel_name=kernel_name,
        direction=direction,
        can_tune=can_tune,
        max_live=prepared.max_live(),
    )
    original = original_version(
        prepared, kernel_name, arch, block_size, cache_config, strategy=primary
    )
    plan.versions.append(original)
    levels = occupancy_levels(arch, block_size)

    if direction == "increasing":
        floor = conservative_level(
            prepared, kernel_name, arch, block_size, cache_config
        )
        targets = _thin(
            [w for w in levels if w >= max(floor, original.achieved_warps + 1)],
            max_versions - 1,
        )
        realized_per_strategy = [
            _realize_targets(
                prepared,
                kernel_name,
                arch,
                block_size,
                targets,
                cache_config,
                strategy=sid,
            )
            for sid in strategy_set
        ]
        if len(realized_per_strategy) == 1:
            plan.versions.extend(realized_per_strategy[0])
        else:
            # Interleave strategies level by level (ascending warps,
            # declared strategy order breaking ties) so the runtime
            # hill-climb compares spill targets at each occupancy step.
            rank = {sid: i for i, sid in enumerate(strategy_set)}
            merged = [v for group in realized_per_strategy for v in group]
            merged.sort(key=lambda v: (v.target_warps, rank[v.strategy]))
            plan.versions.extend(merged)
        # Fail-safe: one padded version below the original.
        lower = [w for w in levels if w < original.achieved_warps]
        if lower:
            try:
                plan.failsafe.append(
                    repad_version(
                        original,
                        arch,
                        block_size,
                        lower[-1],
                        cache_config,
                        label=f"failsafe warps={lower[-1]}",
                    )
                )
            except RealizeError:
                pass
    else:
        # Downward: the original binary re-padded at each lower level.
        lower = [w for w in levels if w < original.achieved_warps]
        for warps in _thin(list(reversed(lower)), max_versions - 1):
            try:
                plan.versions.append(
                    repad_version(
                        original,
                        arch,
                        block_size,
                        warps,
                        cache_config,
                        label=f"padded warps={warps}",
                    )
                )
            except RealizeError:
                continue
        # Fail-safe upward: a conservative version above the original,
        # when the original is not already at the hardware maximum.
        upper = [w for w in levels if w > original.achieved_warps]
        if upper:
            try:
                plan.failsafe.append(
                    realize_occupancy(
                        prepared,
                        kernel_name,
                        arch,
                        block_size,
                        upper[0],
                        cache_config,
                        conservative=True,
                        label=f"failsafe warps={upper[0]}",
                        strategy=primary,
                    )
                )
            except RealizeError:
                pass

    if not can_tune:
        chosen = static_selection(
            module, kernel_name, arch, plan.all_versions()
        )
        plan.versions = [chosen]
        plan.failsafe = []
    return plan


def _realize_targets(
    prepared: PreparedModule,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int,
    targets: list[int],
    cache_config: CacheConfig,
    strategy: str = DEFAULT_STRATEGY_ID,
) -> list[KernelVersion]:
    """One conservative candidate per realisable target level, in order.

    Non-default strategies are tagged in the label so every candidate in
    a mixed plan stays uniquely addressable (warm starts and the tuner
    both key on labels).
    """
    suffix = "" if strategy == DEFAULT_STRATEGY_ID else f" [{strategy}]"
    versions = []
    for warps in targets:
        with span("realize", kernel=kernel_name, warps=warps):
            try:
                version = realize_occupancy(
                    prepared,
                    kernel_name,
                    arch,
                    block_size,
                    warps,
                    cache_config,
                    conservative=True,
                    label=f"conservative warps={warps}{suffix}",
                    strategy=strategy,
                )
            except RealizeError:
                version = None
        _count_realization(kernel_name, version, strategy)
        if version is not None:
            versions.append(version)
    return versions


def _thin(targets: list[int], limit: int) -> list[int]:
    """Keep at most ``limit`` levels, preserving both endpoints."""
    if limit <= 0:
        return []
    if len(targets) <= limit:
        return targets
    if limit == 1:
        return [targets[-1]]
    step = (len(targets) - 1) / (limit - 1)
    picked = sorted({round(i * step) for i in range(limit)})
    return [targets[i] for i in picked]
