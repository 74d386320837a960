"""Realising a target occupancy (paper Section 3.2, driver side).

Equation 1 turns a target resident-warp count into per-thread register
and shared-memory budgets; :func:`realize_occupancy` then runs the
whole-module allocator under those budgets and verifies the resulting
binary actually achieves the target:

* tuning **up** shrinks the register budget (forcing spills, optionally
  promoted into spare shared memory — the *conservative* style);
* tuning **down** needs no recompilation at all: unused shared-memory
  *padding* per block caps how many blocks fit (Section 3.3: "we can
  tune occupancy down by dynamically increasing shared memory usage per
  thread").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.arch.occupancy import min_smem_padding_to_cap_warps
from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.ir.function import Module
from repro.isa.encoding import decode_module, encode_module
from repro.regalloc.allocator import (
    AllocationOutcome,
    BudgetError,
    PreparedModule,
    allocate_module,
    prepare,
)
from repro.regalloc.strategy import AllocationStrategy, get_strategy


class RealizeError(ValueError):
    """Raised when a target occupancy cannot be realised."""


#: serializes first reads of :attr:`KernelVersion.module`
_DECODE_LOCK = threading.Lock()


@dataclass
class KernelVersion:
    """One occupancy-realised kernel binary (a tuner candidate)."""

    label: str
    target_warps: int
    achieved_warps: int
    occupancy: float
    regs_per_thread: int
    smem_per_block: int  # user + spill promotion + padding
    smem_padding: int  # downward-tuning padding included above
    outcome: AllocationOutcome
    binary: bytes = field(repr=False, default=b"")
    #: allocation-strategy id this candidate was realised under
    strategy: str = "local-spill"

    @property
    def module(self) -> Module:
        """The allocated module.

        A version parsed from a fat binary carries only its ORAS bytes
        (``outcome.module`` is ``None``) and decodes them here, on the
        first read, exactly once even when threads race on that read;
        versions sharing the outcome share that one decode.  Raises
        :class:`~repro.isa.encoding.CodecError` when the bytes do not
        decode.
        """
        module = self.outcome.module
        if module is None:
            with _DECODE_LOCK:
                module = self.outcome.module
                if module is None:
                    module = self.outcome.module = decode_module(self.binary)
        return module

    @property
    def kernel_name(self) -> str:
        return self.outcome.kernel_name


def realize_occupancy(
    module: Module | PreparedModule,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int,
    target_warps: int,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    conservative: bool = False,
    label: str | None = None,
    space_minimization: bool = True,
    movement_minimization: bool = True,
    strategy: str | AllocationStrategy | None = None,
) -> KernelVersion:
    """Produce a kernel binary resident at exactly ``target_warps``.

    ``conservative`` spends spare shared memory on spilled variables so
    that "all variables fit into on-chip memory".  ``strategy`` selects
    where squeezed-out registers go (``None`` = reference local-spill);
    under a shared-spill strategy the allocator promotes *every* spill
    slot, so an infeasible target (shared frame caps occupancy below
    it) surfaces as :class:`RealizeError` instead of silently shipping
    a lower-occupancy candidate.  A plain ``module`` is prepared here
    (:class:`~repro.regalloc.allocator.PreparedModule`); pass one
    prepared form to realise several levels of the same kernel.
    """
    strat = get_strategy(strategy)
    prepared = prepare(module, kernel_name)
    user_smem = prepared.source.functions[kernel_name].shared_bytes
    reg_budget = strat.max_regs_for_warps(
        arch, block_size, target_warps, user_smem, cache_config
    )
    if reg_budget is None:
        raise RealizeError(
            f"{target_warps} warps unreachable on {arch.name} "
            f"(block={block_size}, user smem={user_smem}B)"
        )

    smem_budget_per_thread = 0
    if conservative and not strat.spills_to_shared:
        warps_per_block = max(1, (block_size + arch.warp_size - 1) // arch.warp_size)
        blocks_at_target = max(1, target_warps // warps_per_block)
        per_block_allowance = (
            arch.shared_memory_bytes(cache_config) // blocks_at_target
        )
        spare = per_block_allowance - user_smem
        smem_budget_per_thread = max(0, spare // block_size)

    for _ in range(8):
        try:
            outcome = allocate_module(
                prepared,
                kernel_name,
                reg_budget,
                block_size=block_size,
                smem_spill_budget_per_thread=smem_budget_per_thread,
                space_minimization=space_minimization,
                movement_minimization=movement_minimization,
                strategy=strat,
            )
        except BudgetError as exc:
            raise RealizeError(str(exc)) from exc
        occ = strat.occupancy(
            arch,
            block_size,
            outcome.registers_per_thread,
            outcome.shared_bytes_per_block,
            cache_config,
        )
        if occ.active_warps >= target_warps or smem_budget_per_thread == 0:
            break
        # Shared-memory promotion overshot and dragged occupancy below
        # the target: halve the per-thread allowance and retry.
        smem_budget_per_thread //= 2
    else:  # pragma: no cover - loop always breaks within 8 halvings
        raise RealizeError("could not reconcile smem promotion with target")

    if strat.spills_to_shared and occ.active_warps < target_warps:
        # The mandatory shared spill frame itself limits the block
        # count: this target is infeasible under smem spilling (the
        # RegDem trade-off), and candidate generation should know.
        raise RealizeError(
            f"shared spill frame caps occupancy at {occ.active_warps} "
            f"warps, below the {target_warps}-warp target"
        )

    padding = 0
    smem_total = outcome.shared_bytes_per_block
    if occ.active_warps > target_warps:
        # Over-achieving: cap occupancy down to the target with padding.
        padding = min_smem_padding_to_cap_warps(
            arch,
            block_size,
            target_warps,
            outcome.registers_per_thread,
            smem_total,
            cache_config,
            reg_capacity_factor=strat.reg_oversubscription,
        )
        if padding is None:
            raise RealizeError(
                f"cannot pad occupancy down to {target_warps} warps"
            )
        smem_total += padding
        occ = strat.occupancy(
            arch,
            block_size,
            outcome.registers_per_thread,
            smem_total,
            cache_config,
        )

    return KernelVersion(
        label=label or f"warps={occ.active_warps}",
        target_warps=target_warps,
        achieved_warps=occ.active_warps,
        occupancy=occ.occupancy,
        regs_per_thread=outcome.registers_per_thread,
        smem_per_block=smem_total,
        smem_padding=padding,
        outcome=outcome,
        binary=encode_module(outcome.module),
        strategy=strat.id,
    )


def repad_version(
    version: KernelVersion,
    arch: GpuArchitecture,
    block_size: int,
    target_warps: int,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    label: str | None = None,
) -> KernelVersion:
    """A lower-occupancy variant of an existing binary via smem padding.

    No recompilation: only the launch-time shared-memory request grows.
    This is how the downward tuning direction explores occupancy levels.
    The repadded variant inherits the source version's strategy.
    """
    strat = get_strategy(version.strategy)
    base_smem = version.smem_per_block - version.smem_padding
    padding = min_smem_padding_to_cap_warps(
        arch,
        block_size,
        target_warps,
        version.regs_per_thread,
        base_smem,
        cache_config,
        reg_capacity_factor=strat.reg_oversubscription,
    )
    if padding is None:
        raise RealizeError(f"cannot pad down to {target_warps} warps")
    occ = strat.occupancy(
        arch,
        block_size,
        version.regs_per_thread,
        base_smem + padding,
        cache_config,
    )
    return KernelVersion(
        label=label or f"warps={occ.active_warps} (padded)",
        target_warps=target_warps,
        achieved_warps=occ.active_warps,
        occupancy=occ.occupancy,
        regs_per_thread=version.regs_per_thread,
        smem_per_block=base_smem + padding,
        smem_padding=padding,
        outcome=version.outcome,
        binary=version.binary,
        strategy=version.strategy,
    )
