"""Per-workload tuning sessions (the unit the engine schedules).

A :class:`TuningSession` owns everything specific to one workload: the
multi-version binary, the Fig. 9 :class:`~repro.runtime.adaptation.DynamicTuner`,
and the iteration state (records, running total, convergence point).
It decides *what* to run each iteration; the
:class:`~repro.runtime.engine.ExecutionEngine` decides *how* it is
measured (which backend, which cache) and schedules many sessions
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.realize import KernelVersion
from repro.runtime.adaptation import DynamicTuner
from repro.runtime.splitting import pieces_for_tuning, split_launch, splittable
from repro.sim.interp import LaunchConfig
from repro.sim.trace import MemoryTraits


@dataclass
class Workload:
    """A kernel's dynamic execution profile."""

    launch: LaunchConfig
    iterations: int = 1
    traits: MemoryTraits = field(default_factory=MemoryTraits)
    ilp: float = 1.0
    max_events_per_warp: int = 6000
    #: Per-iteration relative work (e.g. bfs frontier sizes).  When set,
    #: iteration ``i`` launches ``round(grid_blocks * work_profile[i])``
    #: blocks and the tuner compares work-normalised runtimes — the
    #: paper's future-work fix for iteration-varying kernels.
    work_profile: list[float] | None = None

    def work_at(self, iteration: int) -> float:
        if not self.work_profile:
            return 1.0
        return self.work_profile[iteration % len(self.work_profile)]


@dataclass
class IterationRecord:
    iteration: int
    label: str
    cycles: int


@dataclass
class ExecutionReport:
    """What happened across the whole workload."""

    total_cycles: int
    final_version: KernelVersion
    records: list[IterationRecord]
    iterations_to_converge: int | None
    was_split: bool = False

    @property
    def final_label(self) -> str:
        return self.final_version.label


def scaled_launch(launch: LaunchConfig, work: float) -> LaunchConfig:
    """The launch for one iteration doing ``work`` × the nominal blocks."""
    if work == 1.0:
        return launch
    return LaunchConfig(
        grid_blocks=max(1, round(launch.grid_blocks * work)),
        block_size=launch.block_size,
        params=dict(launch.params),
    )


def iteration_launches(
    binary: MultiVersionBinary, workload: Workload
) -> tuple[list[LaunchConfig], bool]:
    """The per-iteration launches of a workload (split if needed).

    An application loop supplies natural iterations; a single big
    launch of a tunable kernel is *split* (Section 3.4) so the tuner
    gets one trial per candidate.
    """
    if workload.iterations > 1:
        return [workload.launch] * workload.iterations, False
    if binary.can_tune and splittable(workload.launch):
        pieces = pieces_for_tuning(workload.launch, binary.version_count())
        if pieces > 1:
            return (
                [piece.launch for piece in split_launch(workload.launch, pieces)],
                True,
            )
    return [workload.launch], False


class TuningSession:
    """One workload being tuned: binary + tuner + iteration state."""

    def __init__(
        self,
        binary: MultiVersionBinary,
        workload: Workload,
        name: str | None = None,
        slowdown_tolerance: float = 0.02,
    ) -> None:
        self.binary = binary
        self.workload = workload
        self.name = name or binary.kernel_name
        self.tuner = DynamicTuner(binary, slowdown_tolerance)
        self.records: list[IterationRecord] = []
        self.total_cycles = 0
        self.converge_at: int | None = 0 if self.tuner.converged else None
        self.report: ExecutionReport | None = None
        #: label of the stored winner this session warm-started from
        #: (``None``: cold — the tuner walked candidates normally)
        self.warm_started_from: str | None = None
        #: traceback text when the engine isolated a failure in this
        #: session (see ``ExecutionEngine.run_many``)
        self.error: str | None = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.report is not None

    def warm_start(self, winner_label: str) -> bool:
        """Pre-converge the tuner to a stored winner, if it still exists.

        Returns ``False`` (and changes nothing) when no version of this
        binary carries ``winner_label`` — a stale store entry must never
        force a version the binary cannot launch.
        """
        if self.tuner.converged:
            return False
        for version in (*self.binary.versions, *self.binary.failsafe):
            if version.label == winner_label:
                self.tuner.force_final(version)
                self.converge_at = 0
                self.warm_started_from = winner_label
                return True
        return False

    def iteration_launches(self) -> tuple[list[LaunchConfig], bool]:
        return iteration_launches(self.binary, self.workload)

    def record(self, iteration: int, label: str, cycles: int) -> None:
        self.records.append(
            IterationRecord(iteration=iteration, label=label, cycles=cycles)
        )
        self.total_cycles += cycles

    def finalize(self, was_split: bool) -> ExecutionReport:
        final = self.tuner.final_version or self.tuner.next_version()
        self.report = ExecutionReport(
            total_cycles=self.total_cycles,
            final_version=final,
            records=self.records,
            iterations_to_converge=self.converge_at,
            was_split=was_split,
        )
        self._count_finalize()
        return self.report

    def _count_finalize(self) -> None:
        """Charge convergence behaviour to the metrics registry."""
        from repro.obs.metrics import get_registry

        registry = get_registry()
        converged = self.converge_at is not None
        registry.counter(
            "orion_sessions_total", "Finalized tuning sessions."
        ).inc(converged="yes" if converged else "no")
        if converged:
            registry.histogram(
                "orion_tuner_iterations_to_convergence",
                "Iterations a session's tuner needed to converge.",
            ).observe(self.converge_at)
