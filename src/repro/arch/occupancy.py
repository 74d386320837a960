"""Occupancy arithmetic (paper Section 2, Equation 1).

Occupancy is the ratio between the number of warps actually resident on an
SM and the hardware maximum.  The resident-warp count is fixed at launch
time by three per-kernel quantities — registers per thread, shared memory
per block, and thread-block size — through the rounding rules of the
NVIDIA occupancy calculator.  This module implements those rules for the
architectures in :mod:`repro.arch.specs` and provides the two inverse
queries Orion's compiler needs:

* the largest register budget per thread that still achieves a target
  warp count (used when *raising* occupancy), and
* the smallest shared-memory padding per block that forces the warp count
  down to a target (used when *lowering* occupancy — the paper notes
  occupancy can be tuned down "by dynamically increasing shared memory
  usage per thread" without recompiling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import CacheConfig, GpuArchitecture


def ceil_to(value: int, granularity: int) -> int:
    """Round ``value`` up to a multiple of ``granularity``."""
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    return -(-value // granularity) * granularity


def floor_to(value: int, granularity: int) -> int:
    """Round ``value`` down to a multiple of ``granularity``."""
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    return (value // granularity) * granularity


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy calculation for one kernel configuration."""

    active_blocks: int
    active_warps: int
    active_threads: int
    occupancy: float
    #: Which resource capped the block count: "scheduler", "registers",
    #: or "shared_memory".  Ties report the first in that order.
    limiter: str
    #: Registers actually reserved per SM (after warp-granular rounding).
    allocated_registers: int
    #: Shared memory actually reserved per SM (after rounding).
    allocated_shared_memory: int

    @property
    def is_launchable(self) -> bool:
        return self.active_blocks > 0


def calculate_occupancy(
    arch: GpuArchitecture,
    block_size: int,
    regs_per_thread: int,
    smem_per_block: int = 0,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> OccupancyResult:
    """Resident blocks/warps for one kernel configuration on one SM.

    Follows the NVIDIA occupancy calculator: registers are allocated per
    warp in units of ``register_allocation_unit``, the register-limited
    warp count is floored to the warp allocation granularity, and shared
    memory is rounded up to its allocation unit.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if block_size > arch.max_threads_per_sm:
        raise ValueError(
            f"block_size {block_size} exceeds the architecture's "
            f"{arch.max_threads_per_sm}-thread SM capacity"
        )
    if regs_per_thread < 0 or smem_per_block < 0:
        raise ValueError("resource usages cannot be negative")

    warps_per_block = ceil_to(block_size, arch.warp_size) // arch.warp_size

    limits: dict[str, int] = {}
    limits["scheduler"] = min(
        arch.max_blocks_per_sm, arch.max_warps_per_sm // warps_per_block
    )

    allocated_regs = 0
    if regs_per_thread > arch.max_registers_per_thread:
        # The compiler must spill instead; such a kernel cannot launch.
        limits["registers"] = 0
    elif regs_per_thread > 0:
        regs_per_warp = ceil_to(
            regs_per_thread * arch.warp_size, arch.register_allocation_unit
        )
        warps_fitting = floor_to(
            arch.registers_per_sm // regs_per_warp,
            arch.warp_allocation_granularity,
        )
        limits["registers"] = warps_fitting // warps_per_block
        allocated_regs = regs_per_warp

    smem_capacity = arch.shared_memory_bytes(cache_config)
    allocated_smem = 0
    if smem_per_block > 0:
        allocated_smem = ceil_to(
            smem_per_block, arch.shared_memory_allocation_unit
        )
        if allocated_smem > smem_capacity:
            limits["shared_memory"] = 0
        else:
            limits["shared_memory"] = smem_capacity // allocated_smem

    active_blocks = min(limits.values())
    limiter = next(name for name, v in limits.items() if v == active_blocks)
    active_warps = active_blocks * warps_per_block
    return OccupancyResult(
        active_blocks=active_blocks,
        active_warps=active_warps,
        active_threads=active_warps * arch.warp_size,
        occupancy=active_warps / arch.max_warps_per_sm,
        limiter=limiter,
        allocated_registers=active_blocks * warps_per_block * allocated_regs,
        allocated_shared_memory=active_blocks * allocated_smem,
    )


def occupancy_levels(arch: GpuArchitecture, block_size: int) -> list[int]:
    """All achievable resident-warp counts for a block size, ascending.

    The occupancy knob is discrete: warps arrive in whole blocks, so the
    achievable warp counts are the multiples of ``warps_per_block`` up to
    the scheduler limit.  The paper's sweeps (Figures 1, 2, 10, 14, 15)
    are exactly these levels.
    """
    warps_per_block = ceil_to(block_size, arch.warp_size) // arch.warp_size
    max_blocks = min(
        arch.max_blocks_per_sm, arch.max_warps_per_sm // warps_per_block
    )
    return [blocks * warps_per_block for blocks in range(1, max_blocks + 1)]


def max_regs_per_thread_for_warps(
    arch: GpuArchitecture,
    block_size: int,
    target_warps: int,
    smem_per_block: int = 0,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> int | None:
    """Largest register budget per thread achieving ``target_warps``.

    Returns ``None`` when the target is unreachable even with a single
    register per thread (for instance because shared memory or the
    scheduler caps the warp count below the target).
    """
    if target_warps <= 0:
        raise ValueError("target_warps must be positive")
    best: int | None = None
    for regs in range(1, arch.max_registers_per_thread + 1):
        result = calculate_occupancy(
            arch, block_size, regs, smem_per_block, cache_config
        )
        if result.active_warps >= target_warps:
            best = regs
        else:
            break
    return best


def min_smem_padding_to_cap_warps(
    arch: GpuArchitecture,
    block_size: int,
    target_warps: int,
    regs_per_thread: int,
    base_smem_per_block: int = 0,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> int | None:
    """Smallest extra shared memory per block capping warps at the target.

    This is the downward-tuning mechanism: adding unused shared memory to
    a block lowers how many blocks fit, without touching the binary's
    register allocation.  Returns the *padding* in bytes (0 when the
    kernel already sits at or below the target), or ``None`` if no
    padding reaches the target while keeping the kernel launchable.
    """
    if target_warps <= 0:
        raise ValueError("target_warps must be positive")
    current = calculate_occupancy(
        arch, block_size, regs_per_thread, base_smem_per_block, cache_config
    )
    if current.active_warps <= target_warps:
        return 0
    step = arch.shared_memory_allocation_unit
    capacity = arch.shared_memory_bytes(cache_config)
    padding = step
    while base_smem_per_block + padding <= capacity:
        result = calculate_occupancy(
            arch,
            block_size,
            regs_per_thread,
            base_smem_per_block + padding,
            cache_config,
        )
        if not result.is_launchable:
            return None
        if result.active_warps <= target_warps:
            return padding
        padding += step
    return None


def occupancy_fraction(arch: GpuArchitecture, active_warps: int) -> float:
    """Convenience: warp count -> occupancy in [0, 1]."""
    return active_warps / arch.max_warps_per_sm
