"""Event-driven SM timing simulator.

One streaming multiprocessor holds ``W`` resident warps (the occupancy
knob) and interleaves their traces:

* the issue port serialises instruction issue at ``issue_width`` warp
  instructions per cycle — with enough ready warps the SM stays busy
  while other warps wait on memory (latency hiding);
* ALU/SFU events make the *issuing warp* unavailable for the operation
  latency (dependent-chain model; intra-thread ILP shortens it);
* memory events go through L1/L2 tag arrays, an MSHR window and a
  DRAM bandwidth limit, where cache contention and queueing push back
  as occupancy grows;
* barriers rendezvous all warps of a thread block.

The simulator is deterministic: greedy oldest-ready-warp scheduling with
stable tie-breaks, so every experiment is exactly reproducible.  The
loop itself is :func:`repro.sim.flat.run_flat`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.sim.flat import run_flat
from repro.sim.memory import MemoryStats
from repro.sim.trace import MemoryTraits, WarpTrace


@dataclass
class SMResult:
    """Outcome of simulating one wave of resident warps on one SM."""

    cycles: int
    instructions: int
    memory: MemoryStats
    issue_stall_cycles: int
    barrier_count: int


class SMSimulator:
    """Simulates one SM executing a set of resident warp traces."""

    def __init__(
        self,
        arch: GpuArchitecture,
        cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
        traits: MemoryTraits | None = None,
        ilp: float = 1.0,
        swap_interval: int = 0,
        swap_latency: int = 0,
    ) -> None:
        self.arch = arch
        self.cache_config = cache_config
        self.traits = traits or MemoryTraits()
        if not 0 < ilp < math.inf:
            raise ValueError(f"ilp must be finite and positive, got {ilp!r}")
        self.ilp = ilp
        # Soft-limit (oversubscribed) strategies: every ``swap_interval``-th
        # instruction of a warp pays ``swap_latency`` extra cycles for
        # register state swapped out of the physical file.  ``0`` (the
        # default, and every hard-limit strategy) disables the model.
        if swap_interval < 0 or swap_latency < 0:
            raise ValueError("swap model parameters cannot be negative")
        self.swap_interval = swap_interval
        self.swap_latency = swap_latency

    def run(self, traces: list[WarpTrace], warps_per_block: int) -> SMResult:
        if not traces:
            return SMResult(0, 0, MemoryStats(), 0, 0)
        return SMResult(*run_flat(self, traces, warps_per_block))
