"""Execution substrate: functional interpreter plus the timing/energy
simulator standing in for the paper's GTX680 and Tesla C2075."""

from repro.sim.analytical import (
    AnalyticalEstimate,
    KernelProfile,
    estimate_cycles,
    profile_kernel,
    rank_occupancy_levels,
)
from repro.sim.backend import (
    BACKENDS,
    AnalyticalBackend,
    ExecutionBackend,
    FunctionalBackend,
    MeasurementRequest,
    MeasurementResult,
    TimingBackend,
    get_backend,
)
from repro.sim.energy import EnergyReport, gpu_power, kernel_energy
from repro.sim.gpu import KernelTiming, LaunchError, simulate_kernel
from repro.sim.interp import InterpError, Interpreter, LaunchConfig, run_kernel
from repro.sim.memory import MemoryStats, SetAssociativeCache
from repro.sim.sm import SMResult, SMSimulator
from repro.sim.trace import (
    MemoryTraits,
    WarpTrace,
    generate_warp_traces,
    warp_lines,
)

__all__ = [
    "AnalyticalBackend",
    "AnalyticalEstimate",
    "BACKENDS",
    "EnergyReport",
    "ExecutionBackend",
    "FunctionalBackend",
    "KernelProfile",
    "MeasurementRequest",
    "MeasurementResult",
    "TimingBackend",
    "estimate_cycles",
    "get_backend",
    "profile_kernel",
    "rank_occupancy_levels",
    "InterpError",
    "Interpreter",
    "KernelTiming",
    "LaunchConfig",
    "LaunchError",
    "MemoryStats",
    "MemoryTraits",
    "SetAssociativeCache",
    "SMResult",
    "SMSimulator",
    "WarpTrace",
    "generate_warp_traces",
    "gpu_power",
    "kernel_energy",
    "run_kernel",
    "simulate_kernel",
    "warp_lines",
]
