"""The event-driven SM loop and memory model, kept as the reference.

:meth:`repro.sim.sm.SMSimulator.run` runs the flat-array loop in
:mod:`repro.sim.flat`.  This is the loop it replaced, with the memory
subsystem only it used, unchanged except that the loop is a function
taking the simulator instead of a method (and its docstring no longer
names a switch selecting it): for the same traces, every
``SMResult`` field the flat loop returns must equal what this one
returns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.isa.instructions import FuncUnit, MemSpace
from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.sm import SMResult, SMSimulator
from repro.sim.trace import WarpTrace


class MemorySubsystem:
    """Per-SM view of the memory hierarchy with timing."""

    def __init__(
        self,
        arch: GpuArchitecture,
        cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
    ) -> None:
        self.arch = arch
        self.cache_config = cache_config
        self.l1 = SetAssociativeCache(
            arch.l1_cache_bytes(cache_config),
            arch.cache_line_bytes,
            arch.l1_associativity,
        )
        self.l2 = SetAssociativeCache(
            arch.l2_bytes_per_sm,
            arch.cache_line_bytes,
            arch.l2_associativity,
        )
        self.stats = MemoryStats()
        #: completion times of requests currently in flight (MSHR model)
        self._in_flight: list[int] = []
        self._dram_free = 0

    # ------------------------------------------------------------------
    def request(self, address: int, space: MemSpace, now: int) -> int:
        """Issue one memory transaction; returns its completion cycle."""
        arch = self.arch
        if space is MemSpace.SHARED:
            self.stats.shared_accesses += 1
            return now + arch.shared_latency

        # L1 participation: local (spill) traffic is always L1-cached;
        # global traffic only on architectures whose L1 caches globals.
        use_l1 = space is MemSpace.LOCAL or (
            space in (MemSpace.GLOBAL, MemSpace.PARAM) and arch.l1_caches_global
        )

        start = self._admit(now)
        if use_l1 and self.l1.access(address):
            self.stats.l1_hits += 1
            return start + arch.l1_latency
        if use_l1:
            self.stats.l1_misses += 1

        if self.l2.access(address):
            self.stats.l2_hits += 1
            done = start + arch.l2_latency
        else:
            self.stats.l2_misses += 1
            self.stats.dram_transactions += 1
            issue = max(start, self._dram_free)
            self._dram_free = issue + arch.dram_service_interval
            done = issue + arch.dram_latency
        self._track(done)
        return done

    # ------------------------------------------------------------------
    def _admit(self, now: int) -> int:
        """Apply the outstanding-request (MSHR) limit."""
        limit = self.arch.max_outstanding_memory
        in_flight = [t for t in self._in_flight if t > now]
        self._in_flight = in_flight
        if len(in_flight) < limit:
            return now
        self.stats.stalled_requests += 1
        earliest = min(in_flight)
        return earliest

    def _track(self, completion: int) -> None:
        self._in_flight.append(completion)
        # Bound bookkeeping: keep only the most relevant entries.
        if len(self._in_flight) > 4 * self.arch.max_outstanding_memory:
            self._in_flight.sort()
            self._in_flight = self._in_flight[-self.arch.max_outstanding_memory :]


@dataclass
class _Warp:
    trace: WarpTrace
    block: int
    #: identity index in the resident-warp list (heap key; two warps
    #: with equal traces must still schedule independently, so pushes
    #: use this rather than a value-equality list search)
    index: int = 0
    pc: int = 0
    ready: float = 0.0
    at_barrier: bool = False
    barrier_arrival: float = 0.0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.trace.events)


def _run_pure(
    self: SMSimulator, traces: list[WarpTrace], warps_per_block: int
) -> SMResult:
    """The reference event loop."""
    arch = self.arch
    memory = MemorySubsystem(arch, self.cache_config)
    warps = [
        _Warp(trace=t, block=i // max(1, warps_per_block), index=i)
        for i, t in enumerate(traces)
    ]
    blocks: dict[int, list[_Warp]] = {}
    for warp in warps:
        blocks.setdefault(warp.block, []).append(warp)

    issue_interval = 1.0 / arch.issue_width
    alu_latency = max(1.0, arch.alu_latency / self.ilp)
    sfu_latency = max(1.0, arch.sfu_latency / self.ilp)
    divergence = self.traits.divergence
    swap_interval = self.swap_interval
    swap_latency = self.swap_latency

    issue_clock = 0.0
    instructions = 0
    issue_stalls = 0.0
    barriers = 0
    finish = 0.0

    # Min-heap of (ready, index) for runnable warps.
    heap: list[tuple[float, int]] = [(0.0, i) for i in range(len(warps))]
    heapq.heapify(heap)

    while heap:
        ready, index = heapq.heappop(heap)
        warp = warps[index]
        if warp.done or warp.at_barrier or warp.ready != ready:
            continue  # stale heap entry
        event = warp.trace.events[warp.pc]

        start = max(issue_clock, ready)
        if start > issue_clock:
            issue_stalls += start - issue_clock

        if event.barrier:
            barriers += 1
            warp.pc += 1
            warp.at_barrier = True
            warp.barrier_arrival = start
            issue_clock = start + issue_interval
            instructions += 1
            group = blocks[warp.block]
            if all(w.at_barrier or w.done for w in group):
                release = max(
                    w.barrier_arrival for w in group if w.at_barrier
                )
                for w in group:
                    if w.at_barrier:
                        w.at_barrier = False
                        w.ready = release + 1
                        if not w.done:
                            heapq.heappush(heap, (w.ready, w.index))
                        else:
                            finish = max(finish, w.ready)
            continue

        unit = event.unit
        if unit is FuncUnit.MEM:
            cost = issue_interval * max(1, len(event.lines))
            completion = start
            for line in event.lines:
                done = memory.request(line, event.space, int(start))
                completion = max(completion, float(done))
            warp.ready = completion
        elif unit is FuncUnit.SMEM:
            warp.ready = start + arch.shared_latency
            cost = issue_interval
        elif unit is FuncUnit.SFU:
            warp.ready = start + sfu_latency
            cost = issue_interval * 4
        elif unit is FuncUnit.CTRL:
            warp.ready = start + 1
            cost = issue_interval
        else:  # ALU and everything else
            warp.ready = start + alu_latency
            cost = issue_interval * divergence

        # Oversubscription swap cost (soft-limit strategies): a
        # deterministic per-warp surcharge on every interval-th
        # instruction, modelling a register group swapped back in.
        if swap_interval and (warp.pc + 1) % swap_interval == 0:
            warp.ready += swap_latency

        issue_clock = start + cost
        instructions += 1
        warp.pc += 1
        if warp.done:
            finish = max(finish, warp.ready)
            # A warp finishing (e.g. a truncated trace) may be the
            # last thing its block's barrier was waiting on.
            group = blocks[warp.block]
            waiting = [w for w in group if w.at_barrier]
            if waiting and all(w.at_barrier or w.done for w in group):
                release = max(w.barrier_arrival for w in waiting)
                for w in waiting:
                    w.at_barrier = False
                    w.ready = max(release, warp.ready) + 1
                    heapq.heappush(heap, (w.ready, w.index))
        else:
            heapq.heappush(heap, (warp.ready, index))

    cycles = int(max(finish, issue_clock)) + 1
    return SMResult(
        cycles=cycles,
        instructions=instructions,
        memory=memory.stats,
        issue_stall_cycles=int(issue_stalls),
        barrier_count=barriers,
    )
