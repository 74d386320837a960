"""A cold compile prepares its source once for all its allocations.

Each candidate occupancy allocates the same source, and SSA form and the
max-live liveness do not depend on the budget.  The spies below count
the calls behind them over one cold compile of cfd for GTX680, which
allocates five times.
"""

from collections import Counter

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.ir.callgraph import CallGraph
from repro.obs.metrics import get_registry, reset_registry
from repro.obs.spans import span_timings
from repro.regalloc import allocator, stack


def test_cold_compile_prepares_each_function_once(monkeypatch):
    calls = Counter()
    sources = []

    def spy(kind, real):
        def wrapper(fn, *args, **kwargs):
            calls[kind, fn.name] += 1
            if kind == "liveness":
                sources.append(fn)
            return real(fn, *args, **kwargs)

        return wrapper

    for name in ("construct_ssa", "destruct_ssa"):
        monkeypatch.setattr(allocator, name, spy(name, getattr(allocator, name)))
    monkeypatch.setattr(
        stack, "analyze_liveness", spy("liveness", stack.analyze_liveness)
    )

    spec = BENCHMARKS["cfd"]
    module = spec.build()
    kernel = module.kernel().name
    options = CompileOptions(
        arch=GTX680,
        block_size=spec.workload.block_size,
        can_tune=spec.workload.can_tune,
        strategy="local-spill",
    )
    reset_registry()
    try:
        compile_binary(module, kernel, options, use_cache=False)
        samples = {
            family["name"]: [s["value"] for s in family["samples"]]
            for family in get_registry().snapshot()["metrics"]
        }
        timings = span_timings()
    finally:
        reset_registry()

    assert samples["orion_allocations_total"] == [5]
    reachable = sorted(CallGraph(module).reachable(kernel))
    assert len(reachable) > 1
    for kind in ("construct_ssa", "destruct_ssa", "liveness"):
        assert {
            name: calls[kind, name] for name in reachable
        } == dict.fromkeys(reachable, 1), kind
    # Max-live reads the source functions, not the SSA form.
    assert all(fn is module.functions[fn.name] for fn in sources)
    assert timings["prepare"]["calls"] == 1
