"""Benchmark-suite structural tests (Table 2 properties + validity)."""

import pytest

from repro.bench.kernels import (
    BENCHMARKS,
    downward_benchmarks,
    figure5_benchmarks,
    table2_benchmarks,
    upward_benchmarks,
)
from repro.ir.callgraph import count_static_calls
from repro.regalloc import minimal_budget
from repro.sim.interp import LaunchConfig, run_kernel


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_kernel_builds_and_validates(name):
    module = BENCHMARKS[name].build()
    module.validate()
    assert module.kernel() is not None


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_kernel_executes_functionally(name):
    """Every benchmark must run end to end in the interpreter."""
    module = BENCHMARKS[name].build()
    launch = LaunchConfig(grid_blocks=1, block_size=32)
    memory = {i * 4: float(i % 7 + 1) for i in range(4096)}
    out = run_kernel(module, launch, global_memory=memory)
    assert out  # it stored something


@pytest.mark.parametrize(
    "spec", table2_benchmarks(), ids=lambda s: s.name
)
def test_table2_registers(spec):
    module = spec.build()
    measured, _ = minimal_budget(module, module.kernel().name, upper_bound=96)
    assert measured == spec.paper_regs


@pytest.mark.parametrize(
    "spec", table2_benchmarks(), ids=lambda s: s.name
)
def test_table2_calls_and_smem(spec):
    module = spec.build()
    assert count_static_calls(module, module.kernel().name) == spec.paper_calls
    assert (module.kernel().shared_bytes > 0) == spec.paper_smem


class TestGroups:
    def test_twelve_table2_benchmarks(self):
        assert len(table2_benchmarks()) == 12

    def test_seven_upward(self):
        names = {s.name for s in upward_benchmarks()}
        assert names == {
            "cfd", "dxtc", "FDTD3d", "hotspot", "imageDenoising",
            "particles", "recursiveGaussian",
        }

    def test_five_downward(self):
        names = {s.name for s in downward_benchmarks()}
        assert names == {"backprop", "bfs", "gaussian", "srad", "streamcluster"}

    def test_figure5_includes_heartwall(self):
        names = [s.name for s in figure5_benchmarks()]
        assert "heartwall" in names
        assert len(names) == 7

    def test_particles_not_dynamically_tunable(self):
        assert not BENCHMARKS["particles"].workload.can_tune

    def test_backprop_forced_to_original(self):
        assert BENCHMARKS["backprop"].force_original

    def test_iterative_workloads_can_tune(self):
        for name in ("cfd", "srad", "bfs"):
            assert BENCHMARKS[name].workload.can_tune


class TestDirections:
    @pytest.mark.parametrize("spec", upward_benchmarks(), ids=lambda s: s.name)
    def test_upward_group_exceeds_threshold(self, spec):
        """The Fig. 11 group has max-live >= the Kepler threshold (32)."""
        from repro.compiler import kernel_max_live

        module = spec.build()
        assert kernel_max_live(module, module.kernel().name) >= 32

    @pytest.mark.parametrize("spec", downward_benchmarks(), ids=lambda s: s.name)
    def test_downward_group_below_threshold(self, spec):
        from repro.compiler import kernel_max_live

        module = spec.build()
        assert kernel_max_live(module, module.kernel().name) < 32
