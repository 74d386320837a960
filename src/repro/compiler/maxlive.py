"""The *max-live* metric (paper Section 3.3).

"We use a metric called max-live, which is equal to the number of
registers necessary to hold all simultaneously live variables."  The
compile-time tuner compares it against the number of registers per
thread at full occupancy (32 on Kepler: 65536 regs / 2048 threads) to
pick the tuning direction: a kernel whose max-live exceeds the
threshold starts at low occupancy and tunes *upward*; one below it
already runs at maximum occupancy and can only tune *downward*.

For kernels with calls the metric follows the deepest chain the
compressible stack must hold: at a call site the caller keeps its live
values packed below the callee's window.  That whole-tree metric,
:func:`~repro.regalloc.stack.kernel_max_live`, lives with the
compressible stack in :mod:`repro.regalloc`, whose minimal-budget
search starts from it.
"""

from __future__ import annotations

from repro.ir.function import Module
from repro.regalloc.allocator import PreparedModule, prepare


def tuning_direction(
    module: Module | PreparedModule,
    kernel_name: str,
    full_occupancy_registers: int,
) -> str:
    """Fig. 8 lines 1–4: "increasing" iff max-live >= the threshold."""
    if prepare(module, kernel_name).max_live() >= full_occupancy_registers:
        return "increasing"
    return "decreasing"
