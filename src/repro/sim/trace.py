"""Per-warp instruction/address trace generation, all warps in lockstep.

The timing simulator consumes traces, not IR: for each resident warp we
execute one *representative lane* (lane 0) through the real kernel
binary with the functional interpreter and record every instruction —
its unit code, its memory-space code, and the cache lines the full warp
would touch — straight into the flat arrays the SM loop
(:mod:`repro.sim.flat`) reads.  The representative lanes of all the
warps being traced run as one group of the interpreter
(:mod:`repro.sim.interp`): each instruction is dispatched once, its
unit and space codes are appended once for the group, and its line
counts and lines once per warp.  Each warp is independent — its own
lane, global, shared and local memory, and a barrier does not
synchronise it — so when a branch splits the group, the two halves
simply run on.  The other 31 lanes' addresses are derived from the
representative address via the benchmark's *lane stride* (4 bytes =
perfectly coalesced, one or two 128B transactions; 128+ bytes = one
transaction per lane, the paper's irregular-access pathology).

Because the traces come from the actual allocated binaries, every
occupancy version carries its true costs: spill reloads appear as local
loads, shared-memory promotion as shared accesses, compressible-stack
saves/restores as extra ALU moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.ir.function import Module
from repro.isa.instructions import FuncUnit, Instruction, MemSpace
from repro.sim.interp import _AT_BARRIER, Interpreter, LaunchConfig, _Group


@dataclass(frozen=True)
class MemoryTraits:
    """How a warp's 32 lanes spread around the representative address.

    ``lane_stride_bytes`` maps each memory space to the byte distance
    between consecutive lanes' accesses.  4 = unit-stride (coalesced);
    128 or more = one cache line per lane (fully diverged).  Local
    (spill) memory is hardware-interleaved per thread and therefore
    always coalesced.  ``divergence`` multiplies ALU issue cost to model
    intra-warp control divergence (serialised branch paths); it must be
    finite and positive, or the SM loop's issue clock would stand still
    or run backwards.
    """

    global_lane_stride: int = 4
    divergence: float = 1.0
    #: fraction of warps following a second, strided address stream
    #: (models the irregular tail of graph/data-mining workloads)
    irregularity: float = 0.0
    #: lanes that actually issue a memory access (graph kernels leave
    #: most of the warp idle at any one step: sparse but latency-bound)
    active_lanes: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.divergence < math.inf:
            raise ValueError(
                f"divergence must be finite and positive, got {self.divergence!r}"
            )

    def lane_stride(self, space: MemSpace) -> int:
        if space in (MemSpace.GLOBAL, MemSpace.PARAM):
            return self.global_lane_stride
        return 4


@dataclass
class WarpTrace:
    """One warp's instruction stream as the SM loop reads it.

    ``flat`` holds four parallel lists: per executed instruction its
    unit code (``FLAT_ALU`` … ``FLAT_BARRIER``), how many cache lines
    it touches and its space code (``FLAT_SP_*``), then every touched
    line in order.  ``truncated`` marks a trace cut at the event limit.
    Warps traced in one group share their unit- and space-code lists;
    no list is changed once its trace is returned.
    """

    flat: tuple[list[int], list[int], list[int], list[int]] = field(
        default_factory=lambda: ([], [], [], []), repr=False
    )
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.flat[0])


class _TraceLimit(Exception):
    pass


# Flat-encoding codes shared with :mod:`repro.sim.flat` (defined here
# so the import direction stays trace -> flat acyclic): unit codes, and
# space codes (what decides L1 participation).
FLAT_ALU, FLAT_MEM, FLAT_SMEM, FLAT_SFU, FLAT_CTRL, FLAT_BARRIER = range(6)
FLAT_SP_GLOBAL, FLAT_SP_LOCAL, FLAT_SP_OTHER = range(3)

_UNIT_CODE = {
    FuncUnit.ALU: FLAT_ALU,
    FuncUnit.MEM: FLAT_MEM,
    FuncUnit.SMEM: FLAT_SMEM,
    FuncUnit.SFU: FLAT_SFU,
    FuncUnit.CTRL: FLAT_CTRL,
    FuncUnit.SYNC: FLAT_BARRIER,
}


def warp_lines(
    addresses: list[int],
    space: MemSpace,
    traits: MemoryTraits,
    warp_size: int = 32,
    line_bytes: int = 128,
) -> list[tuple[int, ...]]:
    """Cache lines touched by each warp, given each warp's
    representative address."""
    stride = traits.lane_stride(space)
    lanes = min(warp_size, max(1, traits.active_lanes))
    # Closed forms for the common stride shapes (identical to the
    # general dedup below, just without per-lane set churn): lane
    # addresses form an arithmetic progression, so when the step is at
    # most a line every line between the first and last is touched, and
    # when the step is a whole number of lines the lines are themselves
    # an arithmetic progression.
    if lanes == 1 or stride == 0:
        return [(a - a % line_bytes,) for a in addresses]
    reach = (lanes - 1) * stride
    if 0 < stride <= line_bytes:
        return [
            tuple(
                range(
                    a - a % line_bytes,
                    a + reach - (a + reach) % line_bytes + 1,
                    line_bytes,
                )
            )
            for a in addresses
        ]
    if stride > 0 and stride % line_bytes == 0:
        offsets = range(0, reach + 1, stride)
        return [
            tuple(a - a % line_bytes + offset for offset in offsets)
            for a in addresses
        ]
    return [
        tuple(
            sorted(
                {
                    (a + lane * stride) // line_bytes * line_bytes
                    for lane in range(lanes)
                }
            )
        )
        for a in addresses
    ]


def generate_warp_traces(
    module: Module,
    kernel_name: str,
    launch: LaunchConfig,
    resident_warps: int,
    traits: MemoryTraits | None = None,
    max_events_per_warp: int = 6000,
    line_bytes: int = 128,
) -> list[WarpTrace]:
    """Trace ``resident_warps`` warps of a kernel launch, uncached.

    Warp *w* is represented by global thread ``w * 32``; its block index
    and in-block thread id follow from the launch geometry.  Barriers
    are recorded as instructions (the SM simulator enforces the
    rendezvous); global memory starts empty and cross-thread
    shared-memory values read as zero, which leaves control flow intact
    for the workloads in :mod:`repro.bench`.  The simulator's trace
    cache (:func:`repro.sim.gpu._cached_traces`) traces warps the same
    way.
    """
    return _trace_warp(
        Interpreter(module, max_steps=max(10 * max_events_per_warp, 100_000)),
        module.functions[kernel_name],
        launch,
        range(resident_warps),
        max(1, (launch.block_size + 31) // 32),
        traits or MemoryTraits(),
        max_events_per_warp,
        line_bytes,
    )


def _trace_warp(
    interp: Interpreter,
    kernel,
    launch: LaunchConfig,
    warps: range,
    warps_per_block: int,
    traits: MemoryTraits,
    max_events_per_warp: int,
    line_bytes: int,
) -> list[WarpTrace]:
    """Trace the warps in ``warps`` in lockstep; returns their traces in
    warp order.

    Warp *w*'s trace depends on *w* alone — its block, thread id,
    address stream and local lines come from the absolute warp number —
    not on which warps are traced with it, which is what makes
    extending a cached list sound.  An error raised while tracing
    propagates, and no trace is returned.
    """
    # A slice of warps follows a diverged address stream, modelling
    # the irregular tail of graph/data-mining workloads.  Warps are
    # grouped by their traits, so each group computes lines in one call.
    irregular = replace(
        traits, global_lane_stride=max(line_bytes, traits.global_lane_stride)
    )
    by_traits: dict[MemoryTraits, list[int]] = {}
    for position, w in enumerate(warps):
        drawn = ((w * 2654435761) % 97) / 97.0 < traits.irregularity
        by_traits.setdefault(irregular if drawn else traits, []).append(position)

    groups = []
    for warp_traits, positions in by_traits.items():
        numbers = [warps[p] for p in positions]
        groups.append(
            _Group(
                kernel,
                [(w % warps_per_block) * 32 for w in numbers],
                [w // warps_per_block % max(1, launch.grid_blocks) for w in numbers],
                [{} for _ in numbers],
                [{} for _ in numbers],
                [{} for _ in numbers],
                # Local memory is interleaved per thread by the
                # hardware: one warp's access to slot ``s`` is one
                # (warp-private) cache line at slot-major, warp-minor
                # layout, ``(s // 4) * 8192 + w * line_bytes``.
                _GroupTrace(
                    positions,
                    [w * line_bytes for w in numbers],
                    warp_traits,
                    line_bytes,
                    max_events_per_warp,
                ),
            )
        )

    traces: list[WarpTrace | None] = [None] * len(warps)
    while groups:
        group = groups.pop()
        truncated = False
        try:
            outcome = interp._run_group(group, launch)
            # A barrier does not synchronise traced warps (each has its
            # own memory): the SM simulator enforces the rendezvous.
            while outcome is _AT_BARRIER:
                outcome = interp._run_group(group, launch)
        except _TraceLimit:
            # Every warp of a group has executed the same number of
            # instructions, so the whole group reaches the limit.
            outcome, truncated = None, True
        if outcome is not None:
            groups.extend(outcome)  # a split: both halves run on
            continue
        for position, trace in group.trace.finish(truncated):
            traces[position] = trace
    return traces


class _GroupTrace:
    """The flat arrays of a group of warps traced in lockstep.

    ``codes`` and ``spaces`` are the group's (its warps executed the
    same instructions); ``mem_at`` lists the positions of its line-
    touching occurrences, and ``counts`` and ``lines`` hold, per warp,
    each such occurrence's line count and the lines themselves.
    ``positions`` are the warps' places in the traced range.
    """

    __slots__ = (
        "positions", "local_bases", "traits", "line_bytes", "limit",
        "codes", "spaces", "mem_at", "counts", "lines",
    )

    def __init__(self, positions, local_bases, traits, line_bytes, limit):
        self.positions = positions
        self.local_bases = local_bases
        self.traits = traits
        self.line_bytes = line_bytes
        self.limit = limit
        self.codes: list[int] = []
        self.spaces: list[int] = []
        self.mem_at: list[int] = []
        self.counts: list[list[int]] = [[] for _ in positions]
        self.lines: list[list[int]] = [[] for _ in positions]

    def add(
        self,
        inst: Instruction,
        unit: FuncUnit | None,
        addresses: list[int] | None,
    ) -> None:
        """Record one instruction: its ``unit`` for a non-memory one, or
        each warp's address for a memory one."""
        codes = self.codes
        if len(codes) >= self.limit:
            raise _TraceLimit()
        if addresses is None:
            codes.append(_UNIT_CODE[unit])
            self.spaces.append(FLAT_SP_OTHER)
            return
        space = inst.space
        if space is MemSpace.SHARED:
            # Shared accesses issue as SMEM-unit, non-memory occurrences.
            codes.append(FLAT_SMEM)
            self.spaces.append(FLAT_SP_OTHER)
            return
        self.mem_at.append(len(codes))
        codes.append(FLAT_MEM)
        if space is MemSpace.LOCAL:
            self.spaces.append(FLAT_SP_LOCAL)
            for counts, lines, address, base in zip(
                self.counts, self.lines, addresses, self.local_bases
            ):
                counts.append(1)
                lines.append((address // 4) * 8192 + base)
            return
        # Global or param: any other space raises in the interpreter
        # right after this, and the trace is dropped.
        self.spaces.append(FLAT_SP_GLOBAL)
        touched = warp_lines(
            addresses, space, self.traits, line_bytes=self.line_bytes
        )
        for counts, lines, warp in zip(self.counts, self.lines, touched):
            counts.append(len(warp))
            lines.extend(warp)

    def select(self, positions: list[int]) -> "_GroupTrace":
        """The record of the warps at ``positions`` (of this group), for
        a half of a split; the group's codes so far are copied."""
        half = _GroupTrace.__new__(_GroupTrace)
        half.positions = [self.positions[i] for i in positions]
        half.local_bases = [self.local_bases[i] for i in positions]
        half.traits, half.line_bytes = self.traits, self.line_bytes
        half.limit = self.limit
        half.codes = self.codes[:]
        half.spaces = self.spaces[:]
        half.mem_at = self.mem_at[:]
        half.counts = [self.counts[i] for i in positions]
        half.lines = [self.lines[i] for i in positions]
        return half

    def finish(self, truncated: bool):
        """``(position, WarpTrace)`` of each warp of the group."""
        size = len(self.codes)
        for position, mem_counts, lines in zip(
            self.positions, self.counts, self.lines
        ):
            counts = [0] * size
            for at, count in zip(self.mem_at, mem_counts):
                counts[at] = count
            yield position, WarpTrace(
                flat=(self.codes, counts, self.spaces, lines),
                truncated=truncated,
            )
