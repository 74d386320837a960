"""The SM timing simulator's event loop (the body of ``SMSimulator.run``).

Each warp's trace is read as the four flat arrays the tracer records
(:class:`repro.sim.trace.WarpTrace`: unit codes, line counts, space
codes, touched lines).  Per trace and cache geometry, every line's tag
and L1/L2 set index are hashed up front and issue costs tabled, so the
loop is list indexing plus heap scheduling, with memory modelled
inline:

* an MSHR window of ``max_outstanding_memory`` requests (a request
  past it waits for the earliest completion);
* LRU set-associative L1 and L2 tag arrays; local (spill) traffic is
  always L1-cached, global traffic only where the architecture's L1
  caches globals, and everything else goes straight to L2;
* DRAM serving one transaction per ``dram_service_interval`` cycles.

The pure event loop this one replaced stays in the test suite
(``tests/sim/reference_sm.py``) as the oracle: every ``SMResult``
field must equal its result.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heapify, heappop, heappush

from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.trace import (
    FLAT_BARRIER as _BARRIER,
    FLAT_CTRL as _CTRL,
    FLAT_MEM as _MEM,
    FLAT_SFU as _SFU,
    FLAT_SMEM as _SMEM,
    FLAT_SP_GLOBAL as _SP_GLOBAL,
    FLAT_SP_LOCAL as _SP_LOCAL,
    FLAT_SP_SHARED as _SP_SHARED,
    WarpTrace,
)

# Unit codes (the flat encoding of the ``FuncUnit`` ladder; every code
# not named below issues as ALU work) and space codes (what decides L1
# participation) are defined in trace.py, whose tracer emits the arrays:
#   _MEM/_SMEM/_SFU/_CTRL/_BARRIER;
#   _SP_GLOBAL (L1 only when arch.l1_caches_global), _SP_LOCAL (spill
#   traffic: always L1), _SP_SHARED (shared space routed through a MEM
#   occurrence: fixed latency), anything else straight to L2.


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
    line_bytes = arch.cache_line_bytes
    l1_ways, l2_ways = l1._sets, l2._sets
    l1_assoc, l2_assoc = l1.associativity, l2.associativity
    l1_latency, l2_latency = arch.l1_latency, arch.l2_latency
    dram_latency = arch.dram_latency
    dram_interval = arch.dram_service_interval
    shared_latency = arch.shared_latency
    l1_global = arch.l1_caches_global
    mshr_limit = arch.max_outstanding_memory
    mshr_cap = 4 * mshr_limit

    issue_interval = 1.0 / arch.issue_width
    alu_latency = max(1.0, arch.alu_latency / sim.ilp)
    sfu_latency = max(1.0, arch.sfu_latency / sim.ilp)
    sfu_cost = issue_interval * 4
    alu_cost = issue_interval * sim.traits.divergence
    swap_interval = sim.swap_interval
    swap_latency = sim.swap_latency

    nwarps = len(traces)
    wpb = max(1, warps_per_block)
    block_of = [i // wpb for i in range(nwarps)]
    blocks: dict[int, list[int]] = {}
    for i in range(nwarps):
        blocks.setdefault(block_of[i], []).append(i)

    # Per-warp flat arrays and precomputed line tables.
    w_codes: list[list[int]] = []
    w_counts: list[list[int]] = []
    w_spaces: list[list[int]] = []
    w_costs: list[list[float]] = []
    w_tags: list = []
    w_l1i: list = []
    w_l2i: list = []
    nev: list[int] = []
    cost_key = (issue_interval, sfu_cost, alu_cost)
    for trace in traces:
        codes, counts, spaces, lines = trace.flat
        tags, l1i, l2i = _line_tables(
            trace, lines, line_bytes, l1.num_sets, l2.num_sets
        )
        # Issue costs depend only on the event stream and three floats,
        # so they are memoized per trace like the line tables (sweeps
        # re-simulate the same traces many times).
        cost_memo = getattr(trace, "_flat_costs", None)
        if cost_memo is None:
            cost_memo = {}
            trace._flat_costs = cost_memo
        costs = cost_memo.get(cost_key)
        if costs is None:
            costs = [
                issue_interval * max(1, counts[e])
                if codes[e] == _MEM
                else (sfu_cost if codes[e] == _SFU else alu_cost)
                for e in range(len(codes))
            ]
            cost_memo[cost_key] = costs
        w_codes.append(codes)
        w_counts.append(counts)
        w_spaces.append(spaces)
        w_costs.append(costs)
        w_tags.append(tags)
        w_l1i.append(l1i)
        w_l2i.append(l2i)
        nev.append(len(codes))

    # Mutable per-warp state (parallel arrays instead of _Warp objects).
    pc = [0] * nwarps
    readys = [0.0] * nwarps
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
    dram_tx = stalled = shared_accesses = 0

    issue_clock = 0.0
    instructions = 0
    issue_stalls = 0.0
    barriers = 0
    finish = 0.0

    heap: list[tuple[float, int]] = [(0.0, i) for i in range(nwarps)]
    heapify(heap)

    while heap:
        ready, index = heappop(heap)
        p = pc[index]
        if p >= nev[index] or at_bar[index] or readys[index] != ready:
            continue  # stale heap entry

        # Inner loop: keep issuing for this warp while it stays the
        # lexicographic minimum of the ready heap — the entry we would
        # push would pop right back, so skipping the round-trip issues
        # the exact same event sequence.
        while True:
            start = issue_clock if issue_clock >= ready else ready
            if start > issue_clock:
                issue_stalls += start - issue_clock

            codes = w_codes[index]
            code = codes[p]

            if code == _BARRIER:
                barriers += 1
                pc[index] = p + 1
                at_bar[index] = True
                bar_arrival[index] = start
                issue_clock = start + issue_interval
                instructions += 1
                group = blocks[block_of[index]]
                if all(at_bar[j] or pc[j] >= nev[j] for j in group):
                    release = max(
                        bar_arrival[j] for j in group if at_bar[j]
                    )
                    ready_after = release + 1
                    for j in group:
                        if at_bar[j]:
                            at_bar[j] = False
                            readys[j] = ready_after
                            if pc[j] < nev[j]:
                                heappush(heap, (ready_after, j))
                            elif ready_after > finish:
                                finish = ready_after
                break

            if code == _MEM:
                cost = w_costs[index][p]
                count = w_counts[index][p]
                completion = start
                if count:
                    now = int(start)
                    space = w_spaces[index][p]
                    cur = cursor[index]
                    cursor[index] = cur + count
                    if space == _SP_SHARED:
                        shared_accesses += count
                        done = float(now + shared_latency)
                        if done > completion:
                            completion = done
                    else:
                        use_l1 = space == _SP_LOCAL or (
                            space == _SP_GLOBAL and l1_global
                        )
                        tags = w_tags[index]
                        l1i = w_l1i[index]
                        l2i = w_l2i[index]
                        for k in range(cur, cur + count):
                            tag = tags[k]
                            # MSHR admit: drop retired entries, stall
                            # when the outstanding window is full.
                            drop = bisect_right(in_flight, now)
                            if drop:
                                del in_flight[:drop]
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
                                    done = float(admitted + l1_latency)
                                    if done > completion:
                                        completion = done
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
                                issue = (
                                    admitted
                                    if admitted >= dram_free
                                    else dram_free
                                )
                                dram_free = issue + dram_interval
                                done = issue + dram_latency
                            insort(in_flight, done)
                            if len(in_flight) > mshr_cap:
                                del in_flight[:-mshr_limit]
                            done_f = float(done)
                            if done_f > completion:
                                completion = done_f
                readys[index] = completion
            elif code == _SMEM:
                readys[index] = start + shared_latency
                cost = issue_interval
            elif code == _SFU:
                readys[index] = start + sfu_latency
                cost = w_costs[index][p]
            elif code == _CTRL:
                readys[index] = start + 1
                cost = issue_interval
            else:  # _ALU
                readys[index] = start + alu_latency
                cost = w_costs[index][p]

            # Oversubscription swap cost — placed exactly where the
            # reference loop applies it (after the unit ladder, before
            # the issue clock advances) so floats stay byte-identical.
            if swap_interval and (p + 1) % swap_interval == 0:
                readys[index] += swap_latency

            issue_clock = start + cost
            instructions += 1
            pc[index] = p + 1
            if p + 1 >= nev[index]:
                warp_ready = readys[index]
                if warp_ready > finish:
                    finish = warp_ready
                # A warp finishing (e.g. a truncated trace) may be the
                # last thing its block's barrier was waiting on.
                group = blocks[block_of[index]]
                waiting = [j for j in group if at_bar[j]]
                if waiting and all(
                    at_bar[j] or pc[j] >= nev[j] for j in group
                ):
                    release = max(bar_arrival[j] for j in waiting)
                    ready_after = (
                        release if release >= warp_ready else warp_ready
                    ) + 1
                    for j in waiting:
                        at_bar[j] = False
                        readys[j] = ready_after
                        heappush(heap, (ready_after, j))
                break
            ready = readys[index]
            if heap:
                head = heap[0]
                if ready > head[0] or (
                    ready == head[0] and index > head[1]
                ):
                    # Another warp would issue first: take the usual
                    # heap round-trip.
                    heappush(heap, (ready, index))
                    break
            p += 1

    cycles = int(finish if finish >= issue_clock else issue_clock) + 1
    stats = MemoryStats(
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        dram_transactions=dram_tx,
        shared_accesses=shared_accesses,
        stalled_requests=stalled,
    )
    return cycles, instructions, stats, int(issue_stalls), barriers
