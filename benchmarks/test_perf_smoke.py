"""Compilation-speed smoke test over the full benchmark suite.

Guards the fast-compilation layer two ways:

* the whole ``bench/kernels.py`` suite compiles inside a wall-clock
  budget (the bitset dataflow + incremental colouring rewrite brought a
  cold pass from minutes to seconds — the budget catches an order-of-
  magnitude regression, not noise);
* a second pass over the same inputs is served by the compile cache
  (hit rate > 0, every compile a hit) and returns byte-identical fat
  binaries.

The measured timings are printed and written under the test's
``tmp_path``; they describe one machine, so the tree keeps none.
"""

from __future__ import annotations

import time

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.perf.cache import CompileCache

#: Generous CI allowance; a warm laptop does the cold pass in ~15s.
COLD_BUDGET_SECONDS = 240.0


def _options(spec) -> CompileOptions:
    return CompileOptions(
        arch=GTX680,
        block_size=spec.workload.block_size,
        can_tune=spec.workload.can_tune,
    )


def _compile_suite(cache: CompileCache) -> dict[str, bytes]:
    binaries = {}
    for name, spec in sorted(BENCHMARKS.items()):
        module = spec.build()
        binary = compile_binary(
            module, module.kernel().name, _options(spec), cache=cache
        )
        binaries[name] = binary.to_bytes()
    return binaries


def test_suite_cold_and_warm(tmp_path):
    cache = CompileCache()  # isolated: no disk tier, fresh counters

    start = time.perf_counter()
    cold = _compile_suite(cache)
    cold_seconds = time.perf_counter() - start
    assert cold_seconds < COLD_BUDGET_SECONDS, (
        f"cold compile pass took {cold_seconds:.1f}s "
        f"(budget {COLD_BUDGET_SECONDS:.0f}s)"
    )
    assert cache.stats.hits == 0
    assert cache.stats.misses == len(BENCHMARKS)

    start = time.perf_counter()
    warm = _compile_suite(cache)
    warm_seconds = time.perf_counter() - start
    assert warm == cold  # cache returns exactly what was compiled
    assert cache.stats.hit_rate > 0
    assert cache.stats.hits == len(BENCHMARKS)  # every warm compile hit
    assert warm_seconds < cold_seconds

    timings = (
        f"cold pass: {cold_seconds:.2f}s for {len(BENCHMARKS)} benchmarks\n"
        f"warm pass: {warm_seconds:.2f}s "
        f"(cache hit rate {100 * cache.stats.hit_rate:.0f}%)"
    )
    path = tmp_path / "perf_smoke.txt"
    path.write_text(timings + "\n")
    print(f"\n{timings}\n[saved to {path}]")
