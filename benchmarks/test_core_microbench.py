"""Microbenchmarks of the compiler's core algorithms.

Unlike the figure/table files (which regenerate paper artifacts with a
single pedantic round), these exercise the hot algorithmic kernels with
real repetition so pytest-benchmark's statistics mean something — a
performance-regression net for the allocator's building blocks.
"""

import random

import pytest

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.ir.cfg import CFG
from repro.ir.interference import build_interference
from repro.ir.liveness import analyze_liveness
from repro.ir.ssa import construct_ssa, destruct_ssa
from repro.regalloc import matching
from repro.regalloc.chaitin import color_graph
from repro.regalloc.matching import min_cost_assignment
from repro.sim.gpu import _cached_traces
from repro.sim.interp import LaunchConfig
from repro.sim.sm import SMSimulator
from repro.sim.trace import generate_warp_traces


@pytest.fixture(scope="module")
def cfd_module():
    return BENCHMARKS["cfd"].build()


@pytest.fixture(scope="module")
def cfd_destructed():
    module = BENCHMARKS["cfd"].build()
    fn = module.kernel()
    construct_ssa(fn, allow_undef=True)
    destruct_ssa(fn)
    return fn


def test_bench_ssa_construction(benchmark, cfd_module):
    # allow_undef mirrors the compiler: cfd's loop accumulator is only
    # defined when the loop body runs (a legal nvcc pattern).
    def run():
        fn = cfd_module.kernel().copy()
        construct_ssa(fn, allow_undef=True)
        return fn

    fn = benchmark(run)
    assert fn.instructions()


def test_bench_liveness(benchmark, cfd_destructed):
    info = benchmark(analyze_liveness, cfd_destructed)
    assert info.max_live > 0


def test_bench_interference_graph(benchmark, cfd_destructed):
    graph = benchmark(build_interference, cfd_destructed)
    assert len(graph) > 50


def test_bench_chaitin_coloring(benchmark, cfd_destructed):
    graph = build_interference(cfd_destructed)

    result = benchmark(color_graph, graph, 64)
    assert not result.spilled


def test_bench_kuhn_munkres_40x40(benchmark):
    rng = random.Random(7)
    cost = [[float(rng.randint(0, 1000)) for _ in range(40)] for _ in range(40)]
    assign = benchmark(min_cost_assignment, cost)
    assert len(set(assign)) == 40


def test_bench_cfg_and_dominators(benchmark, cfd_module):
    fn = cfd_module.kernel()
    cfg = benchmark(CFG, fn)
    assert cfg.rpo


def test_bench_trace_generation(benchmark):
    module = BENCHMARKS["srad"].build()
    launch = LaunchConfig(grid_blocks=8, block_size=256)

    traces = benchmark.pedantic(
        generate_warp_traces,
        args=(module, "kernel", launch, 8),
        kwargs={"max_events_per_warp": 800},
        rounds=3,
        iterations=1,
    )
    assert len(traces) == 8


def test_bench_sm_simulation(benchmark):
    """Simulator wave on the trace cache's traces, which equal the
    uncached tracer's."""
    module = BENCHMARKS["srad"].build()
    launch = LaunchConfig(grid_blocks=8, block_size=256)
    traces = _cached_traces(module, "kernel", launch, 16, None, 800, 128)
    assert traces == generate_warp_traces(
        module, "kernel", launch, 16, max_events_per_warp=800
    )
    sim = SMSimulator(GTX680)

    def run():
        return sim.run(list(traces), warps_per_block=8)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.cycles > 0


# ----------------------------------------------------------------------
# One microbench per hot seam (here the matcher's solve), so a future
# regression localizes to it instead of the whole suite.
# ----------------------------------------------------------------------
def test_bench_matcher_solve_cfd_largest(benchmark, monkeypatch):
    """The largest matrix of a cfd/GTX680 compile: the zero-cost search."""
    seen = []

    def spy(cost):
        seen.append([list(row) for row in cost])
        return min_cost_assignment(cost)

    monkeypatch.setattr(matching, "min_cost_assignment", spy)
    spec = BENCHMARKS["cfd"]
    module = spec.build()
    compile_binary(
        module,
        module.kernel().name,
        CompileOptions(
            arch=GTX680,
            block_size=spec.workload.block_size,
            can_tune=spec.workload.can_tune,
        ),
        use_cache=False,
    )
    cost = max(seen, key=lambda c: len(c) * len(c[0]))
    assert matching._zero_cost_search(cost) is not None
    assign = benchmark(min_cost_assignment, cost)
    assert assign == matching._kuhn_munkres(cost)
