"""Whole-GPU kernel timing: occupancy → resident warps → waves.

A kernel launch of ``G`` blocks runs as waves of
``active_blocks × num_SMs`` blocks; each wave behaves like one SM
executing its resident warps (SMs are homogeneous and blocks
independent), so

    total cycles = cycles(one wave on one SM) × number of waves.

The resident-warp count — the paper's occupancy knob — comes straight
from the occupancy calculator applied to the *binary's* register and
shared-memory usage, so different Orion-generated versions of the same
kernel genuinely run at different occupancies here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.occupancy import OccupancyResult
from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.ir.function import Module
from repro.regalloc.strategy import AllocationStrategy, get_strategy
from repro.sim.interp import Interpreter, LaunchConfig
from repro.sim.sm import SMResult, SMSimulator
from repro.sim.trace import MemoryTraits, WarpTrace, _trace_warp


class LaunchError(RuntimeError):
    """Raised when a kernel configuration cannot run on the architecture."""


#: Per-module warp-trace cache.  Warp *w*'s trace is independent of how
#: many warps are resident, so an occupancy sweep over the same binary
#: traces each warp once and then reuses (and extends) the cached list.
#: Keyed by the module object (the entry's interpreter holds it, so it
#: stays alive while cached) plus everything else trace generation
#: depends on; bounded LRU so candidate churn during tuning cannot grow
#: it without limit.  ``_TRACE_CACHE_LOCK`` guards the dict; each entry's
#: own lock serialises its extension, so two callers never trace the
#: same warps or extend the list from the same length.
_TRACE_CACHE: OrderedDict = OrderedDict()
_TRACE_CACHE_MAX = 8
_TRACE_CACHE_LOCK = threading.Lock()


def _cached_traces(
    module: Module,
    kernel_name: str,
    launch: LaunchConfig,
    resident: int,
    traits: MemoryTraits | None,
    max_events_per_warp: int,
    line_bytes: int,
) -> list[WarpTrace]:
    traits = traits or MemoryTraits()
    key = (
        module,
        kernel_name,
        launch.grid_blocks,
        launch.block_size,
        tuple(sorted(launch.params.items())),
        traits,
        max_events_per_warp,
        line_bytes,
    )
    with _TRACE_CACHE_LOCK:
        entry = _TRACE_CACHE.get(key)
        if entry is None:
            interp = Interpreter(
                module, max_steps=max(10 * max_events_per_warp, 100_000)
            )
            entry = _TRACE_CACHE[key] = (interp, [], threading.Lock())
            while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
                _TRACE_CACHE.popitem(last=False)
        else:
            _TRACE_CACHE.move_to_end(key)
    interp, traces, lock = entry
    with lock:
        if len(traces) < resident:
            # One lockstep pass over the missing warps; the list is
            # extended only once all of them are traced.
            traces.extend(
                _trace_warp(
                    interp,
                    module.functions[kernel_name],
                    launch,
                    range(len(traces), resident),
                    max(1, (launch.block_size + 31) // 32),
                    traits,
                    max_events_per_warp,
                    line_bytes,
                )
            )
        return traces[:resident]


@dataclass
class KernelTiming:
    """Timing result of one simulated kernel launch."""

    arch_name: str
    occupancy: OccupancyResult
    resident_warps: int
    cycles_per_wave: int
    #: fractional: a trailing partial wave costs proportionally to its
    #: share of a full wave (avoids quantisation artifacts in sweeps)
    waves: float
    sm: SMResult

    @property
    def total_cycles(self) -> int:
        return max(1, round(self.cycles_per_wave * self.waves))

    @property
    def occupancy_fraction(self) -> float:
        return self.occupancy.occupancy


def residency(
    arch: GpuArchitecture,
    kernel_name: str,
    launch: LaunchConfig,
    regs_per_thread: int,
    smem_per_block: int,
    cache_config: CacheConfig,
    forced_warps: int | None,
    strategy: str | AllocationStrategy | None,
) -> tuple[OccupancyResult, int, int, int]:
    """``(occupancy, warps_per_block, total_warps, resident)`` of a launch.

    ``resident`` is the occupancy calculator's active-warp count, or
    ``forced_warps`` when given, kept between one block and the whole
    launch.  Raises :class:`LaunchError` when the configuration does
    not launch on ``arch``.
    """
    occ = get_strategy(strategy).occupancy(
        arch, launch.block_size, regs_per_thread, smem_per_block, cache_config
    )
    if not occ.is_launchable:
        raise LaunchError(
            f"kernel {kernel_name} with {regs_per_thread} regs and "
            f"{smem_per_block}B shared does not launch on {arch.name}"
        )
    warps_per_block = (launch.block_size + arch.warp_size - 1) // arch.warp_size
    total_warps = launch.grid_blocks * warps_per_block
    resident = occ.active_warps if forced_warps is None else forced_warps
    resident = max(warps_per_block, min(resident, total_warps))
    return occ, warps_per_block, total_warps, resident


def simulate_kernel(
    arch: GpuArchitecture,
    module: Module,
    kernel_name: str,
    launch: LaunchConfig,
    regs_per_thread: int,
    smem_per_block: int = 0,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    traits: MemoryTraits | None = None,
    ilp: float = 1.0,
    max_events_per_warp: int = 6000,
    forced_warps: int | None = None,
    strategy: str | AllocationStrategy | None = None,
) -> KernelTiming:
    """Simulate one kernel launch and return its timing.

    ``forced_warps`` overrides the calculated resident-warp count (used
    by sweeps that pin occupancy directly); it is still capped by the
    launch size.  ``strategy`` (an allocation-strategy id; ``None`` =
    the reference ``local-spill``) controls the occupancy arithmetic
    and, for soft-limit strategies, adds the oversubscription swap cost
    to the SM model.  The warp traces come from the per-module trace
    cache (:func:`_cached_traces`).
    """
    strat = get_strategy(strategy)
    occ, warps_per_block, _, resident = residency(
        arch,
        kernel_name,
        launch,
        regs_per_thread,
        smem_per_block,
        cache_config,
        forced_warps,
        strat,
    )
    traces = _cached_traces(
        module,
        kernel_name,
        launch,
        resident,
        traits,
        max_events_per_warp,
        arch.cache_line_bytes,
    )
    swap_interval, swap_latency = strat.swap_model(
        arch, launch.block_size, regs_per_thread, smem_per_block, cache_config
    )
    sim = SMSimulator(
        arch,
        cache_config,
        traits=traits,
        ilp=ilp,
        swap_interval=swap_interval,
        swap_latency=swap_latency,
    )
    result = sim.run(traces, warps_per_block)

    blocks_per_wave = max(1, (resident // warps_per_block)) * arch.num_sms
    waves = max(1.0, launch.grid_blocks / blocks_per_wave)
    return KernelTiming(
        arch_name=arch.name,
        occupancy=occ,
        resident_warps=resident,
        cycles_per_wave=result.cycles,
        waves=waves,
        sm=result,
    )
