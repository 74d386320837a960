"""The Orion runtime: Fig. 9 dynamic adaptation, kernel splitting and
the execution engine (pluggable backends, tuning sessions, measurement
cache), paper Section 3.4.  The engine's telemetry events
and hub live in :mod:`repro.obs.telemetry`."""

from repro.runtime.adaptation import DynamicTuner, TrialRecord
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import (
    ExecutionReport,
    IterationRecord,
    TuningSession,
    Workload,
    iteration_launches,
    scaled_launch,
)
from repro.runtime.splitting import (
    SplitLaunch,
    pieces_for_tuning,
    split_launch,
    splittable,
)

__all__ = [
    "DynamicTuner",
    "ExecutionEngine",
    "ExecutionReport",
    "IterationRecord",
    "SplitLaunch",
    "TrialRecord",
    "TuningSession",
    "Workload",
    "iteration_launches",
    "pieces_for_tuning",
    "scaled_launch",
    "split_launch",
    "splittable",
]
