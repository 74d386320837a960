"""What the benchmark measures: workloads and metrics, with meanings.

``BENCHMARK.json`` at the repository root has a fixed set of fields
(metric name, unit, better direction and bound; workload name and why).
This module carries the rest: what each end-to-end metric means on each
workload, and which end-to-end metric and workload each per-layer
metric is expected to move.  ``tests/test_catalog.py`` keeps the two in
step.
"""

from __future__ import annotations

WORKLOADS = {
    "compile": (
        "cold compile of the 14 benchmark kernels for GTX680 and C2075: "
        "compiler, regalloc and ir do all the work, nothing is simulated"
    ),
    "tune": (
        "one timing-backend tuning session per precompiled binary, "
        "measurement and trace caches cold: sim and runtime do all the "
        "work, the compiler none"
    ),
    "service": (
        "2 closed-loop clients on a 3-daemon ring sharing one CPU, "
        "analytical backend, 1 in 5 requests a fresh tuning key: frame "
        "I/O, decode, store, forwarding and replication"
    ),
}

#: what the seed chooses on each workload (the program only ever sees
#: the inputs generated from it)
SEEDING = {
    "compile": "order of the 28 (kernel, GPU) compiles in every pass",
    "tune": "order of the 28 sessions in every pass",
    "service": (
        "per-client request plans: the order binaries are dealt in, "
        "which request of each five carries a fresh key, and which "
        "known key each repeat sends"
    ),
}

# name, unit, better, bound, meaning per workload.  Every time is scaled
# to the reference host by the gauge read around it
# (perfbench/hostspeed.py); the unscaled figures are printed beside them.
END_TO_END = [
    (
        "setup_s", "s", "lower", 0.25,
        {
            "compile": "build the 28 compile inputs (median of 5 set-ups; "
                       "scaled)",
            "tune": "cold-compile the 28 binaries (one set-up: it is a "
                    "whole compile pass; each compile scaled)",
            "service": "compile the 14 GTX680 binaries, start the ring, "
                       "tune each binary's base shape once (each compile "
                       "and phase scaled)",
        },
    ),
    (
        "peak_rss_mb", "MB", "lower", 0.15,
        {
            "compile": "peak RSS of the benchmark process",
            "tune": "peak RSS of the benchmark process",
            "service": "peak RSS of the largest daemon",
        },
    ),
    (
        "ops_per_s", "1/s", "higher", 0.25,
        {
            "compile": "kernel compiles per second in the median pass "
                       "(28 / compile_s, compile_s the sum of the pass's "
                       "scaled compiles)",
            "tune": "tuning sessions per second in the median pass "
                    "(28 / tune_s, tune_s the sum of the pass's scaled "
                    "sessions)",
            "service": "completed requests per scaled second of the "
                       "window (service_rps)",
        },
    ),
    (
        "op_ms.p50", "ms", "lower", 0.25,
        {
            "compile": "compile_kernel_ms.p50, scaled",
            "tune": "tune_kernel_ms.p50 (decode + session), scaled",
            "service": "request latency p50, warm and cold together, "
                       "scaled",
        },
    ),
    (
        "op_ms.p90", "ms", "lower", 0.25,
        {
            "compile": "compile_kernel_ms.p90, scaled",
            "tune": "tune_kernel_ms.p90 (decode + session), scaled",
            "service": "request latency p90, warm and cold together, "
                       "scaled",
        },
    ),
]

C, T, S = "compile", "tune", "service"
_COMPILE = f"ops_per_s and op_ms.* on {C}; setup_s on {T} and {S}"
_TUNE = f"ops_per_s and op_ms.* on {T}; nothing on {C}"
_WARM = f"op_ms.p50 and ops_per_s on {S} (warm requests)"
_COLD = f"op_ms.p90 and ops_per_s on {S} (cold requests)"
_BOTH = f"op_ms.* and ops_per_s on {S} (warm and cold requests)"

# name, unit, better, expected effect
PER_LAYER = [
    ("regalloc.minimal_budget.s", "s", "lower", _COMPILE),
    ("regalloc.minimal_budget.probes", "count", "lower", _COMPILE),
    ("regalloc.allocate.calls", "count", "lower", _COMPILE),
    ("regalloc.allocate.self_s", "s", "lower", _COMPILE),
    ("regalloc.allocate.budget_errors", "count", "lower", _COMPILE),
    ("compiler.realize.calls", "count", "lower", _COMPILE),
    ("compiler.realize.infeasible", "count", "lower", _COMPILE),
    ("regalloc.color.calls", "count", "lower", _COMPILE),
    ("regalloc.color.self_s", "s", "lower", _COMPILE),
    ("regalloc.color.spill_rounds", "count", "lower", _COMPILE),
    ("regalloc.coalesce.self_s", "s", "lower", _COMPILE),
    ("regalloc.spill.self_s", "s", "lower", _COMPILE),
    ("regalloc.stack.self_s", "s", "lower", _COMPILE),
    ("regalloc.match.calls", "count", "lower", _COMPILE),
    ("regalloc.match.self_s", "s", "lower", _COMPILE),
    ("ir.ssa.self_s", "s", "lower", _COMPILE),
    ("ir.interference.calls", "count", "lower", _COMPILE),
    ("ir.interference.self_s", "s", "lower", _COMPILE),
    ("ir.verify.calls", "count", "lower", _COMPILE),
    ("ir.verify.self_s", "s", "lower", _COMPILE),
    ("isa.encode.self_s", "s", "lower", _COMPILE),
    ("compile.other_s", "s", "lower", _COMPILE),
    ("isa.decode.self_s", "s", "lower", f"{_TUNE}; {_BOTH}"),
    ("runtime.measure.calls", "count", "lower", _TUNE),
    ("runtime.session.self_s", "s", "lower", _TUNE),
    ("perf.measure_cache.hit_ratio", "ratio", "higher", _TUNE),
    ("perf.measure_cache.lookups", "count", "lower", _TUNE),
    ("sim.backend.calls", "count", "lower", _TUNE),
    ("sim.backend.self_s", "s", "lower", _TUNE),
    ("sim.trace_gen.self_s", "s", "lower", _TUNE),
    ("sim.trace_gen.warps", "count", "lower", _TUNE),
    ("sim.trace_gen.us_per_warp", "us", "lower", _TUNE),
    ("sim.sm_loop.self_s", "s", "lower", _TUNE),
    ("sim.sm_loop.instructions", "count", "lower", _TUNE),
    ("sim.sm_loop.ns_per_instruction", "ns", "lower", _TUNE),
    ("sim.memory.l1_hit_ratio", "ratio", "higher", _TUNE),
    ("sim.memory.l1_accesses", "count", "lower", _TUNE),
    ("sim.memory.dram_transactions", "count", "lower", _TUNE),
    ("tune.other_s", "s", "lower", _TUNE),
    ("service.client.encode_s", "s", "lower", _BOTH),
    ("service.client.retries", "count", "lower", _BOTH),
    ("service.client.failovers", "count", "lower", _BOTH),
    ("service.frame_io.s", "s", "lower", _BOTH),
    ("service.decode.calls", "count", "lower", _BOTH),
    ("service.decode.self_s", "s", "lower", _BOTH),
    ("service.key.self_s", "s", "lower", _BOTH),
    ("service.store.get.calls", "count", "lower", _WARM),
    ("service.store.get.self_s", "s", "lower", _WARM),
    ("service.store.hit_ratio", "ratio", "higher", _WARM),
    ("service.store.put.calls", "count", "lower", _COLD),
    ("service.store.put.self_s", "s", "lower", _COLD),
    ("service.store.wait_s", "s", "lower", _BOTH),
    ("service.forward.calls", "count", "lower", _BOTH),
    ("service.forward.s", "s", "lower", _BOTH),
    ("service.replicate.batches", "count", "lower",
     f"op_ms.p90 on {S}, only through contention"),
    ("service.replicate.ops", "count", "lower",
     f"op_ms.p90 on {S}, only through contention"),
    ("service.replicate.failed", "count", "lower",
     f"op_ms.p90 on {S}, only through contention"),
    ("service.tune_job.calls", "count", "lower", _COLD),
    ("service.tune_job.self_s", "s", "lower", _COLD),
    ("service.tune_job.wait_s", "s", "lower", _COLD),
    ("service.dedup_joins", "count", "higher", _COLD),
    ("service.daemon_exit_timeouts", "count", "lower",
     f"setup_s and run time on {S}; no timed metric"),
    ("bench.trace_overhead_ratio", "ratio", "lower",
     "nothing: the traced run's own cost, traced / untraced time"),
    ("bench.traced_s", "s", "lower",
     "nothing: base of bench.trace_overhead_ratio (pass time on compile "
     "and tune, window time per answered request on service)"),
    ("bench.untraced_s", "s", "lower",
     "nothing: base of bench.trace_overhead_ratio (the same, untraced)"),
]

#: per-layer counts that repeat exactly between two traced runs of one
#: seed, by workload (the rest are times, or depend on interleaving)
DETERMINISTIC = {
    "compile": (
        "regalloc.allocate.calls", "regalloc.minimal_budget.probes",
    ),
    "tune": (
        "sim.backend.calls", "sim.trace_gen.warps",
        "sim.sm_loop.instructions", "sim.memory.l1_hit_ratio",
        "sim.memory.l1_accesses", "sim.memory.dram_transactions",
    ),
}
