"""Memory-hierarchy timing model: L1/L2 caches and DRAM bandwidth.

The occupancy↔performance trade-off the paper tunes comes from three
mechanisms, which the SM loop (:mod:`repro.sim.flat`) applies with the
cache arrays and counters defined here:

* **latency**: an L1 hit costs tens of cycles, DRAM hundreds — few
  resident warps cannot hide the difference;
* **cache contention**: the L1 is shared by every resident warp, so
  raising occupancy shrinks each warp's effective cache slice (real
  set-associative LRU arrays, not a probability knob);
* **bandwidth**: DRAM serves at most one transaction per
  ``dram_service_interval`` cycles per SM, so many memory-hungry warps
  saturate and queue.

Per paper Section 4.1, the L1/shared split is configurable (Table 3's
small-cache = 16KB L1 vs large-cache = 48KB L1), and per Section 4.2 the
Fermi L1 caches global *and* local traffic while Kepler's caches local
(spill) traffic only — which is why downward tuning pays off more on the
C2075.
"""

from __future__ import annotations

from dataclasses import dataclass


class SetAssociativeCache:
    """A timing-only set-associative LRU cache (no data, just tags)."""

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        associativity: int,
        hash_sets: bool = True,
    ) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = max(1, size_bytes // line_bytes)
        self.associativity = min(associativity, num_lines)
        self.num_sets = max(1, num_lines // self.associativity)
        self.line_bytes = line_bytes
        # GPU caches hash the set index so power-of-two strides (the
        # norm in GPU address arithmetic) don't collapse onto one set.
        self.hash_sets = hash_sets
        # Each set: list of tags, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_index(self, line: int) -> int:
        if not self.hash_sets:
            return line % self.num_sets
        folded = line ^ (line >> 7) ^ (line >> 13) ^ (line >> 19)
        return (folded * 2654435761 >> 8) % self.num_sets

    def access(self, address: int) -> bool:
        """Touch the line containing ``address``; True on hit."""
        line = address // self.line_bytes
        index = self._set_index(line)
        tag = line
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class MemoryStats:
    """Aggregate counters for one simulation."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_transactions: int = 0
    shared_accesses: int = 0
    stalled_requests: int = 0

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0
