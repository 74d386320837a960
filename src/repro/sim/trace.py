"""Per-warp instruction/address trace generation.

The timing simulator consumes traces, not IR: for each resident warp we
execute one *representative lane* (lane 0) through the real kernel
binary with the functional interpreter and record every instruction —
opcode class, memory space, and the set of cache lines the full warp
would touch.  The other 31 lanes' addresses are derived from the
representative address via the benchmark's *lane stride* (4 bytes =
perfectly coalesced, one or two 128B transactions; 128+ bytes = one
transaction per lane, the paper's irregular-access pathology).

Because the traces come from the actual allocated binaries, every
occupancy version carries its true costs: spill reloads appear as local
loads, shared-memory promotion as shared accesses, compressible-stack
saves/restores as extra ALU moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Module
from repro.isa.instructions import FuncUnit, Instruction, MemSpace, Opcode
from repro.sim.interp import Interpreter, LaunchConfig, Value, _ThreadState


@dataclass(frozen=True)
class MemoryTraits:
    """How a warp's 32 lanes spread around the representative address.

    ``lane_stride_bytes`` maps each memory space to the byte distance
    between consecutive lanes' accesses.  4 = unit-stride (coalesced);
    128 or more = one cache line per lane (fully diverged).  Local
    (spill) memory is hardware-interleaved per thread and therefore
    always coalesced.  ``divergence`` multiplies ALU issue cost to model
    intra-warp control divergence (serialised branch paths).
    """

    global_lane_stride: int = 4
    divergence: float = 1.0
    #: fraction of warps following a second, strided address stream
    #: (models the irregular tail of graph/data-mining workloads)
    irregularity: float = 0.0
    #: lanes that actually issue a memory access (graph kernels leave
    #: most of the warp idle at any one step: sparse but latency-bound)
    active_lanes: int = 32

    def lane_stride(self, space: MemSpace) -> int:
        if space in (MemSpace.GLOBAL, MemSpace.PARAM):
            return self.global_lane_stride
        return 4


@dataclass(frozen=True)
class TraceEvent:
    """One warp-level instruction occurrence."""

    unit: FuncUnit
    space: MemSpace | None = None
    #: distinct cache-line base addresses this warp instruction touches
    lines: tuple[int, ...] = ()
    barrier: bool = False


@dataclass
class WarpTrace:
    """One warp's instruction stream, in one of two forms.

    ``events`` is the readable form :func:`generate_warp_traces`
    records.  ``flat`` is the form the SM loop reads: four parallel
    lists (unit codes, line counts and space codes per instruction,
    then every touched line in order).  The simulator's trace cache
    records only ``flat``; :mod:`repro.sim.flat` derives it from
    ``events`` for any other trace.
    """

    events: list[TraceEvent] = field(default_factory=list)
    truncated: bool = False
    flat: tuple[list[int], list[int], list[int], list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        if self.flat is not None:
            return len(self.flat[0])
        return len(self.events)


class _TraceLimit(Exception):
    pass


#: Every shared-memory access has this event; TraceEvent is frozen and
#: compared by value, so sharing the instance is invisible to callers.
_SMEM_EVENT = TraceEvent(unit=FuncUnit.SMEM, space=MemSpace.SHARED)

# Flat-encoding codes shared with :mod:`repro.sim.flat` (defined here
# so the import direction stays trace -> flat acyclic).  The cached
# tracing path emits these arrays instead of the event stream;
# ``repro.sim.flat._flatten_trace`` encodes an event stream the same way.
FLAT_ALU, FLAT_MEM, FLAT_SMEM, FLAT_SFU, FLAT_CTRL, FLAT_BARRIER = range(6)
FLAT_SP_GLOBAL, FLAT_SP_LOCAL, FLAT_SP_OTHER, FLAT_SP_SHARED = range(4)

_UNIT_CODE = {
    FuncUnit.SMEM: FLAT_SMEM,
    FuncUnit.SFU: FLAT_SFU,
    FuncUnit.CTRL: FLAT_CTRL,
}


def warp_lines(
    address: int,
    space: MemSpace,
    traits: MemoryTraits,
    warp_size: int = 32,
    line_bytes: int = 128,
) -> tuple[int, ...]:
    """Cache lines touched by a warp given its representative address."""
    stride = traits.lane_stride(space)
    lanes = min(warp_size, max(1, traits.active_lanes))
    # Closed forms for the common stride shapes (identical to the
    # general dedup below, just without per-lane set churn): lane
    # addresses form an arithmetic progression, so when the step is at
    # most a line every line between the first and last is touched, and
    # when the step is a whole number of lines the lines are themselves
    # an arithmetic progression.
    if lanes == 1 or stride == 0:
        return (address - address % line_bytes,)
    if 0 < stride <= line_bytes:
        first = address - address % line_bytes
        span = address + (lanes - 1) * stride
        last = span - span % line_bytes
        return tuple(range(first, last + 1, line_bytes))
    if stride > 0 and stride % line_bytes == 0:
        first = address - address % line_bytes
        return tuple(first + lane * stride for lane in range(lanes))
    lines = {
        (address + lane * stride) // line_bytes * line_bytes
        for lane in range(lanes)
    }
    return tuple(sorted(lines))


def generate_warp_traces(
    module: Module,
    kernel_name: str,
    launch: LaunchConfig,
    resident_warps: int,
    traits: MemoryTraits | None = None,
    max_events_per_warp: int = 6000,
    global_memory: dict[int, Value] | None = None,
    line_bytes: int = 128,
) -> list[WarpTrace]:
    """Trace ``resident_warps`` warps of a kernel launch.

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
        _trace_warp(
            interp,
            kernel,
            launch,
            w,
            warps_per_block,
            traits,
            max_events_per_warp,
            global_memory,
            line_bytes,
        )
        for w in range(resident_warps)
    ]


def _trace_warp(
    interp: Interpreter,
    kernel,
    launch: LaunchConfig,
    w: int,
    warps_per_block: int,
    traits: MemoryTraits,
    max_events_per_warp: int,
    global_memory: dict[int, Value] | None,
    line_bytes: int,
    collect_flat: bool = False,
) -> WarpTrace:
    """Trace one warp; warp *w*'s trace is independent of how many other
    warps are resident, which is what makes per-warp caching sound.

    ``collect_flat`` records only :attr:`WarpTrace.flat`, the arrays
    the SM loop reads (the simulator's trace cache); otherwise the
    trace holds the readable event stream.  ``interp`` is driven for
    the whole warp, so one interpreter must not trace two warps at once.
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
    trace = WarpTrace()
    # Local memory is interleaved per thread by the hardware: one warp's
    # access to slot ``s`` is one (warp-private) cache line at
    # slot-major, warp-minor layout, ``(s // 4) * 8192 + local_base``.
    local_base = w * line_bytes
    if collect_flat:
        trace.flat = ([], [], [], [])
        observe = _flat_observer(
            trace.flat, warp_traits, local_base, line_bytes,
            max_events_per_warp,
        )
    else:
        observe = _event_observer(
            trace.events, warp_traits, local_base, line_bytes,
            max_events_per_warp,
        )

    interp.observer = observe
    state = _ThreadState(tid, block_index)
    memory = dict(global_memory or {})
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


def _plan(inst: Instruction) -> tuple[TraceEvent, int]:
    """(event, flat code) of a non-memory instruction, then cached on
    it as ``_trace_event`` (opcode-determined, so it never goes stale)."""
    if inst.opcode is Opcode.BAR:
        plan = (TraceEvent(unit=FuncUnit.SYNC, barrier=True), FLAT_BARRIER)
    else:
        unit = inst.func_unit
        plan = (TraceEvent(unit=unit), _UNIT_CODE.get(unit, FLAT_ALU))
    inst._trace_event = plan
    return plan


def _event_observer(events, traits, local_base, line_bytes, limit):
    """Interpreter observer appending one :class:`TraceEvent` per
    executed instruction to ``events``."""

    def observe(
        inst: Instruction, state: _ThreadState, address: int | None
    ) -> None:
        # ``address is None`` exactly when the instruction is not a
        # memory op (the interpreter computes addresses only for those).
        if len(events) >= limit:
            raise _TraceLimit()
        if address is None:
            events.append((inst._trace_event or _plan(inst))[0])
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
            lines = warp_lines(address, space, traits, line_bytes=line_bytes)
            events.append(
                TraceEvent(unit=FuncUnit.MEM, space=space, lines=lines)
            )

    return observe


def _flat_observer(flat, traits, local_base, line_bytes, limit):
    """Interpreter observer appending each executed instruction to the
    four ``flat`` lists, encoded as ``repro.sim.flat._flatten_trace``
    encodes its event."""
    codes, counts, spaces, lines = flat

    def observe(
        inst: Instruction,
        state: _ThreadState,
        address: int | None,
        _code=codes.append,
        _count=counts.append,
        _space=spaces.append,
    ) -> None:
        if len(codes) >= limit:
            raise _TraceLimit()
        if address is None:
            _code((inst._trace_event or _plan(inst))[1])
            _count(0)
            _space(FLAT_SP_OTHER)
            return
        space = inst.space
        if space is MemSpace.SHARED:
            # SMEM-unit events flatten as non-memory occurrences.
            _code(FLAT_SMEM)
            _count(0)
            _space(FLAT_SP_OTHER)
        elif space is MemSpace.LOCAL:
            _code(FLAT_MEM)
            _count(1)
            _space(FLAT_SP_LOCAL)
            lines.append((address // 4) * 8192 + local_base)
        else:
            touched = warp_lines(address, space, traits, line_bytes=line_bytes)
            _code(FLAT_MEM)
            _count(len(touched))
            _space(
                FLAT_SP_GLOBAL
                if space is MemSpace.GLOBAL or space is MemSpace.PARAM
                else FLAT_SP_OTHER
            )
            lines.extend(touched)

    return observe


def trace_summary(traces: list[WarpTrace]) -> dict[str, int]:
    """Instruction-mix counters of event traces (tests and reports)."""
    counts = {unit.value: 0 for unit in FuncUnit}
    transactions = 0
    for trace in traces:
        for event in trace.events:
            counts[event.unit.value] += 1
            transactions += len(event.lines)
    counts["transactions"] = transactions
    return counts
