"""An analytical occupancy–performance model (Hong & Kim style).

The paper positions Orion against analytical predictors: "The
analytical model [Hong & Kim, ISCA'09/'10] uses off-line profiled
information, including memory throughput and dynamic instruction count,
to estimate the performance of a GPU program ... it does not provide a
pro-active occupancy tuning solution."  This module implements that
class of model over *static* binary features, for two purposes:

* as a comparison point — tests check how well the closed-form model
  ranks occupancy levels against the event-driven simulator (it gets
  the broad shape right and the fine structure wrong, which is exactly
  why Orion tunes dynamically);
* as a cheap planning aid — the compiler could use it to order
  candidate versions without any simulation.

The model is MWP/CWP-shaped: each warp alternates between a compute
period and a memory period; the SM overlaps up to

    MWP = min(resident warps, memory latency / departure delay)

warps' memory periods.  Below saturation, runtime is latency-bound and
shrinks with occupancy; past it, bandwidth (departure delay) rules and
the curve flattens; spill traffic from the binary adds to both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GpuArchitecture
from repro.ir.cfg import CFG
from repro.ir.function import Module
from repro.isa.instructions import MemSpace
from repro.sim.trace import MemoryTraits, warp_lines


@dataclass(frozen=True)
class KernelProfile:
    """Static per-warp features extracted from a binary."""

    compute_instructions: float  # loop-weighted, per warp
    offchip_accesses: float  # global/param accesses per warp
    local_accesses: float  # spill traffic per warp
    shared_accesses: float
    transactions_per_access: float  # cache lines per warp access


def profile_kernel(
    module: Module,
    kernel_name: str,
    traits: MemoryTraits | None = None,
    loop_weight: float = 8.0,
) -> KernelProfile:
    """Loop-weighted static instruction mix of a kernel's call tree."""
    traits = traits or MemoryTraits()
    compute = offchip = local = shared = 0.0
    sample_lines = len(warp_lines([0], MemSpace.GLOBAL, traits)[0])
    for fn in module.functions.values():
        cfg = CFG(fn)
        for label in cfg.rpo:
            weight = loop_weight ** cfg.loop_depth[label]
            for inst in fn.blocks[label].instructions:
                if inst.is_memory:
                    if inst.space in (MemSpace.GLOBAL, MemSpace.PARAM):
                        offchip += weight
                    elif inst.space is MemSpace.LOCAL:
                        local += weight
                    else:
                        shared += weight
                else:
                    compute += weight
    return KernelProfile(
        compute_instructions=compute,
        offchip_accesses=offchip,
        local_accesses=local,
        shared_accesses=shared,
        transactions_per_access=float(sample_lines),
    )


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Closed-form cycle estimate for one occupancy level."""

    warps: int
    mwp: float  # memory warp parallelism actually achieved
    cwp: float  # computation warp parallelism
    cycles_per_warp: float
    estimated_cycles: float  # for a fixed total amount of work


def estimate_cycles(
    profile: KernelProfile,
    arch: GpuArchitecture,
    resident_warps: int,
    total_warps: int,
    ilp: float = 1.0,
) -> AnalyticalEstimate:
    """MWP/CWP estimate of total cycles for ``total_warps`` of work."""
    if resident_warps <= 0:
        raise ValueError("resident_warps must be positive")
    mem_latency = float(arch.dram_latency)
    departure = arch.dram_service_interval * max(
        1.0, profile.transactions_per_access
    )
    comp_cycles = (
        profile.compute_instructions * max(1.0, arch.alu_latency / ilp)
        + profile.shared_accesses * arch.shared_latency
        + profile.local_accesses * arch.l1_latency
    )
    mem_periods = max(profile.offchip_accesses, 1e-9)

    # Warp parallelism (Hong & Kim's MWP/CWP, simplified).
    mwp_peak = mem_latency / departure
    mwp = min(float(resident_warps), mwp_peak)
    comp_per_period = comp_cycles / mem_periods
    cwp = min(
        float(resident_warps), (comp_per_period + mem_latency) / max(comp_per_period, 1.0)
    )

    if mwp >= resident_warps and cwp >= resident_warps:
        # Latency-bound: not enough warps to cover memory latency.
        per_warp = comp_cycles + mem_periods * mem_latency
        total = per_warp * total_warps / resident_warps
    elif cwp >= mwp:
        # Bandwidth-bound: departures dominate.
        total = (
            mem_periods * departure * total_warps
            + comp_cycles * total_warps / resident_warps
        )
    else:
        # Compute-bound: the issue pipeline rules.
        total = comp_cycles * total_warps / max(1.0, arch.issue_width)
    per_warp = comp_cycles + mem_periods * mem_latency
    return AnalyticalEstimate(
        warps=resident_warps,
        mwp=mwp,
        cwp=cwp,
        cycles_per_warp=per_warp,
        estimated_cycles=total,
    )


def rank_occupancy_levels(
    profile: KernelProfile,
    arch: GpuArchitecture,
    levels: list[int],
    total_warps: int,
    ilp: float = 1.0,
) -> list[tuple[int, float]]:
    """(warps, estimated cycles) for each level, best first."""
    estimates = [
        (
            warps,
            estimate_cycles(profile, arch, warps, total_warps, ilp).estimated_cycles,
        )
        for warps in levels
    ]
    return sorted(estimates, key=lambda pair: pair[1])
