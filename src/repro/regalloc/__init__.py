"""On-chip memory allocation: Fig. 4 colouring, spilling, shared-memory
promotion, and the compressible stack (paper Section 3.2)."""

from repro.regalloc.allocator import (
    AllocationOutcome,
    BudgetError,
    allocate_module,
    minimal_budget,
)
from repro.regalloc.chaitin import ColoringResult, color_graph
from repro.regalloc.coalesce import CoalesceReport, coalesce_moves
from repro.regalloc.matching import (
    assignment_weight,
    max_weight_assignment,
    min_cost_assignment,
)
from repro.regalloc.shared_assign import SharedPromotion, promote_spills_to_shared
from repro.regalloc.spill import SpillState, insert_spill_code, spill_traffic
from repro.regalloc.strategy import (
    DEFAULT_STRATEGY_ID,
    LOCAL_SPILL,
    SMEM_SPILL,
    SOFT_LIMIT,
    STRATEGIES,
    AllocationStrategy,
    SpillStrategy,
    default_strategy_id,
    get_strategy,
    strategy_ids,
)
from repro.regalloc.stack import (
    Cluster,
    InterprocResult,
    StackError,
    build_clusters,
    count_total_moves,
    kernel_max_live,
    movement_weight,
    optimal_layout,
    packed_height,
    plan_interprocedural,
    rewrite_module,
)

__all__ = [
    "AllocationOutcome",
    "AllocationStrategy",
    "BudgetError",
    "Cluster",
    "CoalesceReport",
    "coalesce_moves",
    "ColoringResult",
    "DEFAULT_STRATEGY_ID",
    "InterprocResult",
    "LOCAL_SPILL",
    "SMEM_SPILL",
    "SOFT_LIMIT",
    "STRATEGIES",
    "SharedPromotion",
    "SpillState",
    "SpillStrategy",
    "StackError",
    "allocate_module",
    "default_strategy_id",
    "get_strategy",
    "strategy_ids",
    "assignment_weight",
    "build_clusters",
    "color_graph",
    "count_total_moves",
    "insert_spill_code",
    "kernel_max_live",
    "max_weight_assignment",
    "min_cost_assignment",
    "minimal_budget",
    "movement_weight",
    "optimal_layout",
    "packed_height",
    "plan_interprocedural",
    "promote_spills_to_shared",
    "rewrite_module",
    "spill_traffic",
]
