"""The SM timing simulator's event loop (the body of ``SMSimulator.run``).

Each warp's trace is read as the four flat arrays the tracer records
(:class:`repro.sim.trace.WarpTrace`: unit codes, line counts, space
codes, touched lines).  Per trace and cache geometry, every line's tag
and L1/L2 set index are hashed up front, so the loop is list indexing
plus scheduling, with memory modelled inline:

* an MSHR window of ``max_outstanding_memory`` requests (a request
  past it waits for the earliest completion);
* LRU set-associative L1 and L2 tag arrays; local (spill) traffic is
  always L1-cached, global traffic only where the architecture's L1
  caches globals, and everything else goes straight to L2;
* DRAM serving one transaction per ``dram_service_interval`` cycles.

The next warp to issue is the runnable one with the smallest
``(ready, warp index)``, as if one heap held them all.  They are held
in two queues:

* a FIFO of ALU wake-ups.  After an ALU issue a warp is ready at the
  issue's start plus a run constant, and issue starts never decrease
  (every issue cost is positive, as ``MemoryTraits`` requires of
  ``divergence``), so these ready times come out in order.  A wake-up
  joins the FIFO only when its ready time is strictly above the last
  one appended, which keeps the FIFO sorted by ``(ready, warp index)``;
* a heap of every other wake-up: memory completions, SMEM/SFU/CTRL
  issues, barrier releases, and an ALU wake-up tied with the last one
  appended (the lower warp index must issue first, whichever came
  first).

The loop issues from the smaller of the two heads, so the ALU work that
makes up most issues takes a deque append and pop instead of a trip
through the heap.

The pure event loop this one replaced stays in the test suite
(``tests/sim/reference_sm.py``) as the oracle: every ``SMResult``
field must equal its result.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from heapq import heappop, heappush

from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.trace import (
    FLAT_ALU as _ALU,
    FLAT_BARRIER as _BARRIER,
    FLAT_CTRL as _CTRL,
    FLAT_MEM as _MEM,
    FLAT_SFU as _SFU,
    FLAT_SMEM as _SMEM,
    FLAT_SP_GLOBAL as _SP_GLOBAL,
    FLAT_SP_LOCAL as _SP_LOCAL,
    WarpTrace,
)

# Unit codes (the flat encoding of the ``FuncUnit`` ladder) and space
# codes (what decides L1 participation) are defined in trace.py, whose
# tracer emits the arrays:
#   _ALU/_MEM/_SMEM/_SFU/_CTRL/_BARRIER;
#   _SP_GLOBAL (L1 only when arch.l1_caches_global), _SP_LOCAL (spill
#   traffic: always L1), anything else straight to L2.


def _line_tables(trace: WarpTrace, lines: list[int], line_bytes: int,
                 l1_sets: int, l2_sets: int):
    """Per-occurrence (tags, l1 indices, l2 indices) for a warp's lines.

    The set index is :meth:`SetAssociativeCache._set_index`'s hash.
    Memoized per cache geometry on the trace object.
    """
    key = (line_bytes, l1_sets, l2_sets)
    memo = getattr(trace, "_flat_lines", None)
    if memo is None:
        memo = {}
        trace._flat_lines = memo
    tables = memo.get(key)
    if tables is None:
        tags = [line // line_bytes for line in lines]
        hashed = [
            (tag ^ (tag >> 7) ^ (tag >> 13) ^ (tag >> 19)) * 2654435761 >> 8
            for tag in tags
        ]
        tables = memo[key] = (
            tags,
            [h % l1_sets for h in hashed],
            [h % l2_sets for h in hashed],
        )
    return tables


def run_flat(sim, traces: list[WarpTrace], warps_per_block: int):
    """The body of ``SMSimulator.run`` for a non-empty ``traces``.

    Returns ``(cycles, instructions, MemoryStats, issue_stalls,
    barriers)``; the caller wraps it in ``SMResult``.
    """
    arch = sim.arch
    l1 = SetAssociativeCache(
        arch.l1_cache_bytes(sim.cache_config),
        arch.cache_line_bytes,
        arch.l1_associativity,
    )
    l2 = SetAssociativeCache(
        arch.l2_bytes_per_sm,
        arch.cache_line_bytes,
        arch.l2_associativity,
    )
    l1_ways, l2_ways = l1._sets, l2._sets
    l1_assoc, l2_assoc = l1.associativity, l2.associativity
    l1_latency, l2_latency = arch.l1_latency, arch.l2_latency
    dram_latency = arch.dram_latency
    dram_interval = arch.dram_service_interval
    l1_global = arch.l1_caches_global
    mshr_limit = arch.max_outstanding_memory
    mshr_cap = 4 * mshr_limit

    issue_interval = 1.0 / arch.issue_width
    alu_latency = max(1.0, arch.alu_latency / sim.ilp)
    alu_cost = issue_interval * sim.traits.divergence
    # (latency, issue cost) of the other fixed-latency units.
    fixed_units = {
        _SMEM: (arch.shared_latency, issue_interval),
        _SFU: (max(1.0, arch.sfu_latency / sim.ilp), issue_interval * 4),
        _CTRL: (1, issue_interval),
    }

    nwarps = len(traces)
    wpb = max(1, warps_per_block)
    groups = [list(range(b, min(b + wpb, nwarps))) for b in range(0, nwarps, wpb)]
    group_of = [groups[i // wpb] for i in range(nwarps)]

    # Per warp: its unit codes, and what a memory instruction reads
    # (line counts, space codes, line tables).
    w_codes: list[list[int]] = []
    w_mem: list[tuple] = []
    for trace in traces:
        codes, counts, spaces, lines = trace.flat
        w_codes.append(codes)
        w_mem.append(
            (counts, spaces)
            + _line_tables(
                trace, lines, arch.cache_line_bytes, l1.num_sets, l2.num_sets
            )
        )
    nev = [len(codes) for codes in w_codes]

    pc = [0] * nwarps
    at_bar = [False] * nwarps
    bar_arrival = [0.0] * nwarps
    cursor = [0] * nwarps  # next line-occurrence index per warp

    # Memory-subsystem state: MSHR list kept *sorted* (the reference
    # keeps insertion order, but every observable — the admit decision,
    # min in flight, the size-capped truncation — depends only on the
    # multiset, so a sorted list is behaviourally identical and cheaper).
    in_flight: list[int] = []
    dram_free = 0
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    dram_tx = stalled = 0

    issue_clock = 0.0
    issue_stalls = 0.0
    barriers = 0
    finish = 0.0

    # Every non-empty warp is ready at 0: sorted, so already a heap.
    heap: list[tuple[float, int]] = [(0.0, i) for i in range(nwarps) if nev[i]]
    fifo: deque[tuple[float, int]] = deque()
    fifo_append, fifo_popleft = fifo.append, fifo.popleft
    fifo_last = -1.0  # ready time of the last ALU wake-up appended
    current = -1  # the warp whose codes are bound

    while True:
        if fifo:
            if heap and heap[0] < fifo[0]:
                ready, index = heappop(heap)
            else:
                ready, index = fifo_popleft()
        elif heap:
            ready, index = heappop(heap)
        else:
            break
        if index != current:
            current = index
            codes = w_codes[index]
            n = nev[index]
        if ready > issue_clock:
            issue_stalls += ready - issue_clock
            start = ready
        else:
            start = issue_clock
        p = pc[index]
        code = codes[p]
        p += 1
        pc[index] = p

        if code == _ALU:
            issue_clock = start + alu_cost
            ready = start + alu_latency
            if p < n:
                if ready > fifo_last:
                    fifo_append((ready, index))
                    fifo_last = ready
                else:
                    heappush(heap, (ready, index))
                continue
        elif code == _MEM:
            counts, spaces, tags, l1i, l2i = w_mem[index]
            count = counts[p - 1]
            if count:
                now = int(start)
                # Retire completed requests once: every completion this
                # instruction records is later than ``now`` (the L2 and
                # DRAM latencies are at least a cycle).
                drop = bisect_right(in_flight, now)
                if drop:
                    del in_flight[:drop]
                space = spaces[p - 1]
                use_l1 = space == _SP_LOCAL or (space == _SP_GLOBAL and l1_global)
                latest = now
                cur = cursor[index]
                cursor[index] = cur + count
                for k in range(cur, cur + count):
                    tag = tags[k]
                    # MSHR admit: stall when the outstanding window is full.
                    if len(in_flight) < mshr_limit:
                        admitted = now
                    else:
                        stalled += 1
                        admitted = in_flight[0]
                    if use_l1:
                        ways = l1_ways[l1i[k]]
                        if tag in ways:
                            ways.remove(tag)
                            ways.append(tag)
                            l1_hits += 1
                            done = admitted + l1_latency
                            if done > latest:
                                latest = done
                            continue
                        ways.append(tag)
                        if len(ways) > l1_assoc:
                            del ways[0]
                        l1_misses += 1
                    ways = l2_ways[l2i[k]]
                    if tag in ways:
                        ways.remove(tag)
                        ways.append(tag)
                        l2_hits += 1
                        done = admitted + l2_latency
                    else:
                        ways.append(tag)
                        if len(ways) > l2_assoc:
                            del ways[0]
                        l2_misses += 1
                        dram_tx += 1
                        issue = admitted if admitted >= dram_free else dram_free
                        dram_free = issue + dram_interval
                        done = issue + dram_latency
                    insort(in_flight, done)
                    if len(in_flight) > mshr_cap:
                        del in_flight[:-mshr_limit]
                    if done > latest:
                        latest = done
                ready = float(latest)
                if ready < start:
                    ready = start
                issue_clock = start + issue_interval * count
            else:
                ready = start
                issue_clock = start + issue_interval
        elif code == _BARRIER:
            barriers += 1
            at_bar[index] = True
            bar_arrival[index] = start
            issue_clock = start + issue_interval
            group = group_of[index]
            if all(at_bar[j] or pc[j] >= nev[j] for j in group):
                ready = max(bar_arrival[j] for j in group if at_bar[j]) + 1
                for j in group:
                    if at_bar[j]:
                        at_bar[j] = False
                        if pc[j] < nev[j]:
                            heappush(heap, (ready, j))
                        elif ready > finish:
                            finish = ready
            continue
        else:
            latency, cost = fixed_units[code]
            ready = start + latency
            issue_clock = start + cost

        if p < n:
            heappush(heap, (ready, index))
            continue

        # The warp is done.  It may be the last thing its block's
        # barrier was waiting on (e.g. a truncated trace); a released
        # warp that is itself done (its last instruction was the
        # barrier) leaves ``finish`` as it is, as in the reference.
        if ready > finish:
            finish = ready
        group = group_of[index]
        waiting = [j for j in group if at_bar[j]]
        if waiting and all(at_bar[j] or pc[j] >= nev[j] for j in group):
            release = max(bar_arrival[j] for j in waiting)
            release = (release if release >= ready else ready) + 1
            for j in waiting:
                at_bar[j] = False
                if pc[j] < nev[j]:
                    heappush(heap, (release, j))

    cycles = int(finish if finish >= issue_clock else issue_clock) + 1
    stats = MemoryStats(
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        dram_transactions=dram_tx,
        stalled_requests=stalled,
    )
    return cycles, sum(pc), stats, int(issue_stalls), barriers
