"""Work-normalised tuning (the paper's future-work fix for bfs).

Paper Section 4.2: "bfs does different amounts of work in each
iteration, making it difficult to compare consecutive invocations ...
we may be able to improve tuning for such cases by calculating the
amount of work at each iteration and applying a multiplicative factor
to the runtime."  This implements and tests exactly that.
"""

import pytest

from repro.arch import GTX680
from repro.runtime.adaptation import DynamicTuner
from repro.runtime.engine import ExecutionEngine
from repro.runtime.session import TuningSession, Workload
from repro.sim import LaunchConfig

from tests.runtime.test_adaptation import make_binary


class TestTunerNormalization:
    def test_growing_work_without_normalization_mistunes(self):
        """A growing frontier makes every next version look slower."""
        binary = make_binary([16, 32, 48], direction="increasing")
        tuner = DynamicTuner(binary)
        # True per-work cost improves (100 -> 90 -> 80) but raw runtimes
        # grow because iterations do 1x, 2x, 3x work.
        tuner.next_version(); tuner.report(100.0)
        tuner.next_version(); tuner.report(180.0)
        assert tuner.converged
        assert tuner.final_version.label == "v16"  # wrong: stopped early

    def test_growing_work_with_normalization_tunes_correctly(self):
        binary = make_binary([16, 32, 48], direction="increasing")
        tuner = DynamicTuner(binary)
        tuner.next_version(); tuner.report(100.0, work=1.0)
        tuner.next_version(); tuner.report(180.0, work=2.0)
        tuner.next_version(); tuner.report(240.0, work=3.0)
        assert tuner.converged
        assert tuner.final_version.label == "v48"

    def test_shrinking_work_downward_exposes_true_slowdown(self):
        """Raw runtimes fall only because the frontier halves; per-work
        cost doubles at the next version — normalisation must catch it."""
        binary = make_binary([48, 32, 16], direction="decreasing")
        tuner = DynamicTuner(binary)
        tuner.next_version(); tuner.report(100.0, work=1.0)
        tuner.next_version(); tuner.report(75.0, work=0.5)
        assert tuner.converged
        assert tuner.final_version.label == "v48"

    def test_history_stores_normalised_runtimes(self):
        binary = make_binary([16, 32])
        tuner = DynamicTuner(binary)
        tuner.next_version()
        tuner.report(100.0, work=2.0)
        assert tuner.history[0].runtime == 50.0

    def test_invalid_work_rejected(self):
        binary = make_binary([16, 32])
        tuner = DynamicTuner(binary)
        tuner.next_version()
        with pytest.raises(ValueError):
            tuner.report(10.0, work=0.0)


class TestWorkloadProfile:
    def test_work_at_cycles_through_profile(self):
        workload = Workload(
            launch=LaunchConfig(grid_blocks=8),
            iterations=4,
            work_profile=[1.0, 0.5],
        )
        assert workload.work_at(0) == 1.0
        assert workload.work_at(1) == 0.5
        assert workload.work_at(2) == 1.0

    def test_no_profile_means_unit_work(self):
        workload = Workload(launch=LaunchConfig(grid_blocks=8))
        assert workload.work_at(7) == 1.0

    def test_empty_profile_means_unit_work(self):
        workload = Workload(launch=LaunchConfig(grid_blocks=8), work_profile=[])
        assert workload.work_at(3) == 1.0

    @pytest.mark.parametrize("work", [0.0, -1.0, float("nan"), float("inf")])
    def test_profile_entries_must_be_finite_and_positive(self, work):
        with pytest.raises(
            ValueError, match="work_profile entries must be finite and positive"
        ):
            Workload(launch=LaunchConfig(grid_blocks=8), work_profile=[1.0, work])


@pytest.mark.parametrize(
    "name, value",
    [
        ("iterations", 0),
        ("iterations", -3),
        ("max_events_per_warp", 0),
        ("grid_blocks", 0),
        ("grid_blocks", -2),
        ("block_size", 0),
    ],
)
def test_workload_counts_must_be_at_least_one(name, value):
    """An out-of-range count would run another workload than the one
    asked for: iterations 0 would be split into a tune of several
    iterations, and grid_blocks 0 would still launch blocks."""
    if name in ("grid_blocks", "block_size"):
        launch, fields = LaunchConfig(**{name: value}), {}
    else:
        launch, fields = LaunchConfig(grid_blocks=8), {name: value}
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        Workload(launch=launch, **fields)


class TestEndToEnd:
    def test_varying_grid_still_converges(self):
        """bfs-style shrinking frontier: tuner still locks a version."""
        from repro.compiler import CompileOptions, compile_binary
        from tests.helpers import module_from_asm

        module = module_from_asm(
            """
            .module m
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                S2R %v1, %ctaid
                S2R %v2, %ntid
                IMAD %v3, %v1, %v2, %v0
                SHL %v4, %v3, 7
                LD.global %v5, [%v4]
                FADD %v6, %v5, 1.0
                ST.global [%v4], %v6
                EXIT
            .end
            """
        )
        binary = compile_binary(module, "k", CompileOptions(arch=GTX680))
        workload = Workload(
            launch=LaunchConfig(grid_blocks=64, block_size=256),
            iterations=8,
            work_profile=[1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2],
            max_events_per_warp=500,
        )
        report = ExecutionEngine(GTX680).run(TuningSession(binary, workload))
        assert report.final_version is not None
        assert len(report.records) == 8
        # Later iterations launch fewer blocks.
        assert report.records[-1].cycles <= report.records[0].cycles
