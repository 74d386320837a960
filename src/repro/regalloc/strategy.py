"""Allocation strategies: where register pressure goes.

Orion's upward tuning shrinks the per-thread register budget, and the
squeezed-out values have to live *somewhere*.  The paper hardwires one
answer — thread-private local memory, cached by L1 — and this module
registers a second with a different occupancy/latency trade-off:

* **local-spill** — the reference behaviour.  Spill slots live in a
  per-thread local-memory frame (off-chip, L1-cached).  Cheap in
  on-chip resources, expensive per access on a cache miss.
* **smem-spill** — RegDem-style (arXiv:1907.02894) shared-memory
  register spilling.  Every spill slot is promoted into a per-thread
  frame carved out of the block's shared memory: accesses hit at the
  fixed shared-memory latency and never touch DRAM, but the frame
  scales with the block size and eats the very resource that bounds
  occupancy.

A strategy owns only the spill-target decision inside the allocator;
occupancy is the hardware's Equation 1 under either.  Everything
downstream — candidate generation, fingerprints, cache keys, bench
reports — carries the strategy *id* so results never cross strategies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: The reference strategy: the paper's behaviour.
DEFAULT_STRATEGY_ID = "local-spill"

#: Environment knob consumed by :func:`default_strategy_id` — lets CI run
#: the whole tier-1 suite under a non-default strategy without touching
#: every call site.
STRATEGY_ENV = "ORION_STRATEGY"


@dataclass(frozen=True)
class SpillStrategy:
    """One registered strategy: an id and its one dial.

    ``spills_to_shared`` flips the spill target from local memory to a
    per-thread shared-memory frame.
    """

    id: str
    spills_to_shared: bool = False


LOCAL_SPILL = SpillStrategy(id="local-spill")
SMEM_SPILL = SpillStrategy(id="smem-spill", spills_to_shared=True)

#: Registry, mirroring ``repro.sim.backend.BACKENDS``; the reference
#: strategy comes first.
STRATEGIES: dict[str, SpillStrategy] = {
    strategy.id: strategy for strategy in (LOCAL_SPILL, SMEM_SPILL)
}

#: Pseudo-strategy accepted by the CLI / CompileOptions: enumerate
#: candidates under every registered strategy and let the dynamic
#: tuner pick per kernel.
MIXED_ID = "mixed"


def default_strategy_id() -> str:
    """The session default: ``$ORION_STRATEGY`` or ``local-spill``.

    Only *entry points* (CompileOptions, the CLI) consult this; inner
    layers default to the explicit reference strategy so unit tests of
    allocator internals stay stable under the CI strategy matrix.
    """
    value = os.environ.get(STRATEGY_ENV, "").strip()
    if not value:
        return DEFAULT_STRATEGY_ID
    if value != MIXED_ID and value not in STRATEGIES:
        raise ValueError(
            f"{STRATEGY_ENV}={value!r}: unknown strategy "
            f"(choices: {', '.join(sorted(STRATEGIES))}, {MIXED_ID})"
        )
    return value


def get_strategy(strategy: str | SpillStrategy | None) -> SpillStrategy:
    """Resolve a strategy id (or pass an instance through).

    ``None`` resolves to the reference ``local-spill`` strategy — *not*
    the environment default — so library internals are deterministic
    regardless of ``ORION_STRATEGY``.
    """
    if strategy is None:
        return STRATEGIES[DEFAULT_STRATEGY_ID]
    if isinstance(strategy, str):
        try:
            return STRATEGIES[strategy]
        except KeyError:
            raise ValueError(
                f"unknown allocation strategy {strategy!r} "
                f"(choices: {', '.join(sorted(STRATEGIES))})"
            ) from None
    return strategy


def strategy_ids(selector: str | None) -> tuple[str, ...]:
    """Expand a CLI/CompileOptions selector into concrete strategy ids.

    ``mixed`` expands to every registered strategy (reference first, so
    candidate ordering and fail-safe selection stay anchored to the
    paper's behaviour); anything else must name one registered
    strategy.
    """
    if selector is None:
        selector = default_strategy_id()
    if selector == MIXED_ID:
        return tuple(STRATEGIES)
    get_strategy(selector)  # validate
    return (selector,)
