"""The Orion compiler: occupancy realisation, Fig. 8 tuning, and the
multi-version binary (paper Sections 3.2–3.3 and 4)."""

from repro.compiler.maxlive import function_max_live, tuning_direction
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import (
    CompileOptions,
    compile_binary,
    front_end,
    nvcc_baseline,
)
from repro.compiler.realize import (
    KernelVersion,
    RealizeError,
    realize_occupancy,
    repad_version,
)
from repro.compiler.static_select import (
    memory_instruction_distance,
    static_selection,
    warps_needed,
)
from repro.compiler.tuning import (
    TuningPlan,
    compile_time_tuning,
    conservative_level,
    original_version,
)
from repro.regalloc.stack import kernel_max_live

__all__ = [
    "CompileOptions",
    "KernelVersion",
    "MultiVersionBinary",
    "RealizeError",
    "TuningPlan",
    "compile_binary",
    "compile_time_tuning",
    "conservative_level",
    "front_end",
    "function_max_live",
    "kernel_max_live",
    "memory_instruction_distance",
    "nvcc_baseline",
    "original_version",
    "realize_occupancy",
    "repad_version",
    "static_selection",
    "tuning_direction",
    "warps_needed",
]
