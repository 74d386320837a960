"""The event tracer and event-driven SM loop, kept as the reference.

The simulator records each warp straight into the flat arrays of
:class:`repro.sim.trace.WarpTrace`, and :meth:`repro.sim.sm.SMSimulator.run`
runs the flat-array loop in :mod:`repro.sim.flat`.  This module keeps
what they replaced, as oracles:

* the event tracer (:func:`generate_event_traces`,
  :func:`trace_warp_events`), which runs one warp's lane 0 at a time
  on the per-thread interpreter (``tests/sim/reference_interp.py``)
  and records one readable :class:`TraceEvent` per executed
  instruction, and :func:`_flatten_trace`, which encodes an event
  stream as the flat arrays: every warp the simulator traces, in
  lockstep groups, must equal the encoding of the same warp's events;
* the event loop, with the memory subsystem only it used
  (:func:`_run_pure`): for the same traces, every ``SMResult`` field
  the flat loop returns must equal what this one returns.

Both are the code the simulator ran before, changed only where what
they used left :mod:`repro.sim`: the loop is a function taking the
simulator instead of a method and reads :class:`EventTrace` lists, the
tracer caches each instruction's event per warp instead of on the
instruction and takes no initial global memory, and the encoder
returns its arrays instead of storing them on the trace and rejects a
MEM-unit event in shared space, which neither tracer records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.ir.function import Module
from repro.isa.instructions import FuncUnit, Instruction, MemSpace, Opcode
from repro.sim.interp import LaunchConfig, Value
from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.sm import SMResult, SMSimulator
from repro.sim.trace import (
    FLAT_ALU as _ALU,
    FLAT_BARRIER as _BARRIER,
    FLAT_CTRL as _CTRL,
    FLAT_MEM as _MEM,
    FLAT_SFU as _SFU,
    FLAT_SMEM as _SMEM,
    FLAT_SP_GLOBAL as _SP_GLOBAL,
    FLAT_SP_LOCAL as _SP_LOCAL,
    FLAT_SP_OTHER as _SP_OTHER,
    MemoryTraits,
    WarpTrace,
    warp_lines,
)
from tests.sim.reference_interp import Interpreter, _ThreadState


# ----------------------------------------------------------------------
# The event tracer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One warp-level instruction occurrence."""

    unit: FuncUnit
    space: MemSpace | None = None
    #: distinct cache-line base addresses this warp instruction touches
    lines: tuple[int, ...] = ()
    barrier: bool = False


@dataclass
class EventTrace:
    """One warp's instruction stream as readable events."""

    events: list[TraceEvent] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.events)


class _TraceLimit(Exception):
    pass


#: Every shared-memory access has this event; TraceEvent is frozen and
#: compared by value, so sharing the instance is invisible to callers.
_SMEM_EVENT = TraceEvent(unit=FuncUnit.SMEM, space=MemSpace.SHARED)


def generate_event_traces(
    module: Module,
    kernel_name: str,
    launch: LaunchConfig,
    resident_warps: int,
    traits: MemoryTraits | None = None,
    max_events_per_warp: int = 6000,
    line_bytes: int = 128,
) -> list[EventTrace]:
    """Trace ``resident_warps`` warps of a kernel launch as events.

    Warp *w* is represented by global thread ``w * 32``; its block index
    and in-block thread id follow from the launch geometry.  Barriers
    are recorded as events (the SM simulator enforces the rendezvous);
    cross-thread shared-memory values read as zero, which leaves control
    flow intact for the workloads in :mod:`repro.bench`.
    """
    traits = traits or MemoryTraits()
    kernel = module.functions[kernel_name]
    warps_per_block = max(1, (launch.block_size + 31) // 32)
    interp = Interpreter(module, max_steps=max(10 * max_events_per_warp, 100_000))
    return [
        trace_warp_events(
            interp,
            kernel,
            launch,
            w,
            warps_per_block,
            traits,
            max_events_per_warp,
            line_bytes,
        )
        for w in range(resident_warps)
    ]


def trace_warp_events(
    interp: Interpreter,
    kernel,
    launch: LaunchConfig,
    w: int,
    warps_per_block: int,
    traits: MemoryTraits,
    max_events_per_warp: int,
    line_bytes: int,
) -> EventTrace:
    """Trace one warp; warp *w*'s trace is independent of how many other
    warps are resident, which is what makes per-warp caching sound.

    ``interp`` is driven for the whole warp, so one interpreter must
    not trace two warps at once.
    """
    block_index = w // warps_per_block
    tid = (w % warps_per_block) * 32
    if block_index >= launch.grid_blocks:
        block_index %= max(1, launch.grid_blocks)
    # A slice of warps follows a diverged address stream, modelling
    # the irregular tail of graph/data-mining workloads.
    warp_traits = traits
    if traits.irregularity > 0 and ((w * 2654435761) % 97) / 97.0 < (
        traits.irregularity
    ):
        warp_traits = MemoryTraits(
            global_lane_stride=max(line_bytes, traits.global_lane_stride),
            divergence=traits.divergence,
            irregularity=traits.irregularity,
            active_lanes=traits.active_lanes,
        )
    trace = EventTrace()
    # Local memory is interleaved per thread by the hardware: one warp's
    # access to slot ``s`` is one (warp-private) cache line at
    # slot-major, warp-minor layout, ``(s // 4) * 8192 + local_base``.
    local_base = w * line_bytes
    observe = _event_observer(
        trace.events, warp_traits, local_base, line_bytes,
        max_events_per_warp,
    )

    interp.observer = observe
    state = _ThreadState(tid, block_index)
    memory: dict[int, Value] = {}
    shared: dict[int, Value] = {}
    gen = interp._run_function(kernel, state, launch, memory, shared, [])
    try:
        for _ in gen:
            pass  # barriers already recorded by the observer
    except _TraceLimit:
        trace.truncated = True
    finally:
        interp.observer = None
    return trace


def _event(inst: Instruction) -> TraceEvent:
    """The event of a non-memory instruction."""
    if inst.opcode is Opcode.BAR:
        return TraceEvent(unit=FuncUnit.SYNC, barrier=True)
    return TraceEvent(unit=inst.func_unit)


def _event_observer(events, traits, local_base, line_bytes, limit):
    """Interpreter observer appending one :class:`TraceEvent` per
    executed instruction to ``events``."""
    # ``id(inst) -> (inst, event)`` for this warp's non-memory
    # instructions (holding ``inst`` keeps its id from being reused).
    seen: dict[int, tuple] = {}

    def observe(
        inst: Instruction, state: _ThreadState, address: int | None
    ) -> None:
        # ``address is None`` exactly when the instruction is not a
        # memory op (the interpreter computes addresses only for those).
        if len(events) >= limit:
            raise _TraceLimit()
        if address is None:
            cached = seen.get(id(inst))
            if cached is None:
                cached = seen[id(inst)] = (inst, _event(inst))
            events.append(cached[1])
            return
        space = inst.space
        if space is MemSpace.SHARED:
            events.append(_SMEM_EVENT)
        elif space is MemSpace.LOCAL:
            line = (address // 4) * 8192 + local_base
            events.append(
                TraceEvent(unit=FuncUnit.MEM, space=space, lines=(line,))
            )
        else:
            (lines,) = warp_lines(
                [address], space, traits, line_bytes=line_bytes
            )
            events.append(
                TraceEvent(unit=FuncUnit.MEM, space=space, lines=lines)
            )

    return observe


def _flatten_trace(trace: EventTrace):
    """(codes, counts, spaces, lines) arrays for one warp's events."""
    codes: list[int] = []
    counts: list[int] = []
    spaces: list[int] = []
    lines: list[int] = []
    for event in trace.events:
        if event.barrier:
            codes.append(_BARRIER)
            counts.append(0)
            spaces.append(_SP_OTHER)
            continue
        unit = event.unit
        if unit is FuncUnit.MEM:
            codes.append(_MEM)
            counts.append(len(event.lines))
            lines.extend(event.lines)
            space = event.space
            if space is MemSpace.LOCAL:
                spaces.append(_SP_LOCAL)
            elif space in (MemSpace.GLOBAL, MemSpace.PARAM):
                spaces.append(_SP_GLOBAL)
            elif space is MemSpace.SHARED:
                # Both tracers record a shared access as an SMEM-unit
                # event, and the flat loop has no shared-space branch.
                raise ValueError("a MEM-unit event in shared space")
            else:
                spaces.append(_SP_OTHER)
        else:
            if unit is FuncUnit.SMEM:
                codes.append(_SMEM)
            elif unit is FuncUnit.SFU:
                codes.append(_SFU)
            elif unit is FuncUnit.CTRL:
                codes.append(_CTRL)
            else:  # ALU and every other unit issue as ALU work
                codes.append(_ALU)
            counts.append(0)
            spaces.append(_SP_OTHER)
    return (codes, counts, spaces, lines)


def flat_trace(trace: EventTrace) -> WarpTrace:
    """The simulator's form of an event trace."""
    return WarpTrace(flat=_flatten_trace(trace), truncated=trace.truncated)


# ----------------------------------------------------------------------
# The event loop
# ----------------------------------------------------------------------
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
    trace: EventTrace
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
    self: SMSimulator, traces: list[EventTrace], warps_per_block: int
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
