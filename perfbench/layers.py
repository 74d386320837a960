"""The layers the traced run wraps, and the per-layer metrics.

Each target names a function where its callers look it up; the
installer patches every binding of the same object (see
:meth:`perfbench.tracing.Patches.wrap`), so e.g. ``minimal_budget`` is
wrapped in ``repro.compiler.tuning`` as well as in
``repro.regalloc.allocator``.
"""

from __future__ import annotations

import itertools

from perfbench.catalog import PER_LAYER
from perfbench.tracing import (
    CONTEXT,
    Installation,
    Span,
    clock,
    nesting_problems,
    self_times,
)


def _spilled(result, args, kwargs):
    return {"spilled": bool(result.spilled)}


def _hit(result, args, kwargs):
    return {"hit": result is not None}


def _sm_result(result, args, kwargs):
    memory = result.memory
    return {
        "instructions": result.instructions,
        "l1_hits": memory.l1_hits,
        "l1_misses": memory.l1_misses,
        "dram": memory.dram_transactions,
    }


def _batch(result, args, kwargs):
    return {"ops": len(args[2])}


def _outcome(result, args, kwargs):
    return {"outcome": result[1]}


# (span name, "module:qualname", kind, probe); kind is "sync", "async"
# or "count"
TARGETS = [
    # -- compile side -------------------------------------------------
    ("regalloc.minimal_budget", "repro.regalloc.allocator:minimal_budget",
     "sync", None),
    ("regalloc.allocate", "repro.regalloc.allocator:allocate_module",
     "sync", None),
    ("compiler.realize", "repro.compiler.realize:realize_occupancy",
     "sync", None),
    ("regalloc.color", "repro.regalloc.chaitin:color_graph", "sync", _spilled),
    ("regalloc.coalesce", "repro.regalloc.coalesce:coalesce_moves",
     "sync", None),
    ("regalloc.spill", "repro.regalloc.spill:insert_spill_code", "sync", None),
    ("regalloc.spill", "repro.regalloc.shared_assign:promote_spills_to_shared",
     "sync", None),
    ("regalloc.stack", "repro.regalloc.stack:plan_interprocedural",
     "sync", None),
    ("regalloc.stack", "repro.regalloc.stack:rewrite_module", "sync", None),
    ("regalloc.match", "repro.regalloc.matching:max_weight_assignment",
     "sync", None),
    ("ir.ssa", "repro.ir.ssa:lift_to_virtual", "sync", None),
    ("ir.ssa", "repro.ir.ssa:construct_ssa", "sync", None),
    ("ir.ssa", "repro.ir.ssa:destruct_ssa", "sync", None),
    ("ir.interference", "repro.ir.interference:build_interference",
     "sync", None),
    ("ir.verify", "repro.ir.verify:assert_verified", "sync", None),
    ("isa.encode", "repro.isa.encoding:encode_module", "sync", None),
    # -- measure side -------------------------------------------------
    ("isa.decode",
     "repro.compiler.multiversion:MultiVersionBinary.from_bytes",
     "sync", None),
    ("runtime.session", "repro.runtime.engine:ExecutionEngine.run",
     "sync", None),
    ("runtime.measure", "repro.runtime.engine:ExecutionEngine.measure",
     "sync", None),
    ("perf.measure_cache", "repro.perf.measure_cache:MeasurementCache.get",
     "sync", _hit),
    ("sim.backend", "repro.sim.backend:TimingBackend.measure", "sync", None),
    ("sim.backend", "repro.sim.backend:AnalyticalBackend.measure",
     "sync", None),
    ("sim.backend", "repro.sim.backend:FunctionalBackend.measure",
     "sync", None),
    ("sim.trace_gen", "repro.sim.gpu:_cached_traces", "sync", None),
    ("sim.trace_gen", "repro.sim.trace:generate_warp_traces", "sync", None),
    ("sim.trace_gen.warp", "repro.sim.trace:_trace_warp", "count", None),
    ("sim.sm_loop", "repro.sim.sm:SMSimulator.run", "sync", _sm_result),
    # -- service side: daemon -----------------------------------------
    ("service.frame_io", "repro.service.protocol:read_frame", "async", None),
    ("service.frame_io", "repro.service.protocol:write_frame", "async", None),
    ("service.decode", "repro.service.daemon:decode_binary", "sync", None),
    ("service.key", "repro.service.fingerprint:tuning_key", "sync", None),
    ("service.key", "repro.service.fingerprint:kernel_fingerprint",
     "sync", None),
    ("service.store.get", "repro.service.store:TuningStore.get", "sync", _hit),
    ("service.store.put", "repro.service.store:TuningStore.put", "sync", None),
    ("service.forward", "repro.service.daemon:TuningDaemon._forward_to",
     "async", None),
    ("service.replicate", "repro.service.cluster:Replicator._ship",
     "async", _batch),
    ("service.tune", "repro.service.daemon:TuningDaemon._tune",
     "async", _outcome),
    # -- service side: client -----------------------------------------
    ("multiversion.to_bytes",
     "repro.compiler.multiversion:MultiVersionBinary.to_bytes", "sync", None),
    ("protocol.encode_frame", "repro.service.protocol:encode_frame",
     "sync", None),
    ("client.request", "repro.service.client:TuningClient.request",
     "sync", None),
    ("client.round_trip", "repro.service.client:TuningClient._round_trip",
     "sync", None),
    ("client.failover", "repro.service.client:_count_failover", "count", None),
]

#: modules whose import binds the targets' aliases; imported before
#: installing so every alias exists when the installer looks for it
MODULES = (
    "repro.compiler.pipeline",
    "repro.runtime.engine",
    "repro.service.daemon",
    "repro.service.client",
)


def install() -> Installation:
    """Wrap every target; returns the installation to uninstall later."""
    import importlib

    for name in MODULES:
        importlib.import_module(name)
    inst = Installation()
    rec, patches = inst.recorder, inst.patches
    for name, path, kind, probe in TARGETS:
        if kind == "sync":
            patches.wrap(path, lambda fn, n=name, p=probe: rec.timed(n, fn, p))
        elif kind == "async":
            patches.wrap(
                path, lambda fn, n=name, p=probe: rec.timed_async(n, fn, p)
            )
        else:
            patches.wrap(path, lambda fn, n=name: rec.counting(n, fn))
    _install_daemon_hooks(inst)
    return inst


def _install_daemon_hooks(inst: Installation) -> None:
    """Queueing spans and request ids across the daemon's executor hops.

    ``run_in_executor`` does not carry context variables, so the
    request id is handed to the worker explicitly (the daemon's own
    context is left untouched).
    """
    rec, patches = inst.recorder, inst.patches
    requests = itertools.count(1)
    admitted: dict[str, tuple[float, str]] = {}

    def dispatch(original):
        async def wrapper(self, payload):
            CONTEXT.set(f"request-{next(requests)}")
            return await original(self, payload)
        return wrapper

    def store_call(original):
        async def wrapper(self, fn, *args):
            submitted, request = clock(), CONTEXT.get()

            def run(*inner):
                rec.record_wait("service.store.wait", submitted, clock(), request)
                token = CONTEXT.set(request)
                try:
                    return fn(*inner)
                finally:
                    CONTEXT.reset(token)

            return await original(self, run, *args)
        return wrapper

    def admit(original):
        def wrapper(self, key, *args, **kwargs):
            admitted[key] = (clock(), CONTEXT.get())
            return original(self, key, *args, **kwargs)
        return wrapper

    def tune_job(original):
        timed = rec.timed("service.tune_job", original)

        def wrapper(self, key, *args, **kwargs):
            submitted, request = admitted.pop(key, (None, ""))
            if submitted is not None:
                rec.record_wait("service.tune_job.wait", submitted, clock(), request)
            token = CONTEXT.set(request)
            try:
                return timed(self, key, *args, **kwargs)
            finally:
                CONTEXT.reset(token)
        return wrapper

    daemon = "repro.service.daemon:TuningDaemon"
    patches.wrap(f"{daemon}._dispatch", dispatch)
    patches.wrap(f"{daemon}._store_call", store_call)
    patches.wrap(f"{daemon}._admit", admit)
    patches.wrap(f"{daemon}._tune_sync", tune_job)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
class _Tally:
    """Sums over one set of spans (already limited to the traced pass)."""

    def __init__(self, spans: list[Span]) -> None:
        self.own = self_times(spans)
        self._by_name: dict[str, list[Span]] = {}
        for span in spans:
            self._by_name.setdefault(span.name, []).append(span)

    def of(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def self_s(self, *names: str) -> float:
        return sum(self.own[s] for n in names for s in self.of(n))

    def elapsed(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def errors(self, name: str, error: str | None = None) -> int:
        return sum(
            1 for s in self.of(name)
            if s.error is not None and (error is None or s.error == error)
        )

    def extra(self, name: str, field: str) -> float:
        return sum((s.extra or {}).get(field, 0) for s in self.of(name))

    def all_self(self) -> float:
        return sum(self.own.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _inside(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(
    workload: str,
    bench: list[Span],
    daemons: list[Span],
    counts: dict[str, int],
    pass_s: float,
    untraced_s: float,
    exit_timeouts: int = 0,
) -> dict[str, float]:
    """Every per-layer metric of :data:`perfbench.catalog.PER_LAYER`.

    ``bench`` holds the benchmark process's spans from the traced pass
    (or window), ``daemons`` the ring's spans from the same window.
    ``pass_s`` is the traced pass's wall time and ``untraced_s`` that of
    the identical untraced pass made just before it.  A layer that did
    no work reports 0; a ratio with no base reports 0 (its base is a
    metric of its own).
    """
    every = _Tally(bench + daemons)
    client = _Tally(bench)
    ring = _Tally(daemons)
    lookups = every.calls("perf.measure_cache")
    warps = counts.get("sim.trace_gen.warp", 0)
    instructions = every.extra("sim.sm_loop", "instructions")
    l1_hits = every.extra("sim.sm_loop", "l1_hits")
    l1_accesses = l1_hits + every.extra("sim.sm_loop", "l1_misses")
    other = pass_s - client.all_self() if workload in ("compile", "tune") else 0.0
    store_gets = ring.calls("service.store.get")
    metrics = {
        "regalloc.minimal_budget.s": every.elapsed("regalloc.minimal_budget"),
        "regalloc.minimal_budget.probes": sum(
            1 for s in every.of("regalloc.allocate")
            if _inside(s, "regalloc.minimal_budget")
        ),
        "regalloc.allocate.calls": every.calls("regalloc.allocate"),
        "regalloc.allocate.self_s": every.self_s("regalloc.allocate"),
        "regalloc.allocate.budget_errors": every.errors(
            "regalloc.allocate", "BudgetError"
        ),
        "compiler.realize.calls": every.calls("compiler.realize"),
        "compiler.realize.infeasible": every.errors(
            "compiler.realize", "RealizeError"
        ),
        "regalloc.color.calls": every.calls("regalloc.color"),
        "regalloc.color.self_s": every.self_s("regalloc.color"),
        "regalloc.color.spill_rounds": every.extra("regalloc.color", "spilled"),
        "regalloc.coalesce.self_s": every.self_s("regalloc.coalesce"),
        "regalloc.spill.self_s": every.self_s("regalloc.spill"),
        "regalloc.stack.self_s": every.self_s("regalloc.stack"),
        "regalloc.match.calls": every.calls("regalloc.match"),
        "regalloc.match.self_s": every.self_s("regalloc.match"),
        "ir.ssa.self_s": every.self_s("ir.ssa"),
        "ir.interference.calls": every.calls("ir.interference"),
        "ir.interference.self_s": every.self_s("ir.interference"),
        "ir.verify.calls": every.calls("ir.verify"),
        "ir.verify.self_s": every.self_s("ir.verify"),
        "isa.encode.self_s": every.self_s("isa.encode"),
        "compile.other_s": other if workload == "compile" else 0.0,
        "isa.decode.self_s": every.self_s("isa.decode"),
        "runtime.measure.calls": every.calls("runtime.measure"),
        "runtime.session.self_s": every.self_s("runtime.session"),
        "perf.measure_cache.hit_ratio": _ratio(
            every.extra("perf.measure_cache", "hit"), lookups
        ),
        "perf.measure_cache.lookups": lookups,
        "sim.backend.calls": every.calls("sim.backend"),
        "sim.backend.self_s": every.self_s("sim.backend"),
        "sim.trace_gen.self_s": every.self_s("sim.trace_gen"),
        "sim.trace_gen.warps": warps,
        "sim.trace_gen.us_per_warp": _ratio(
            every.self_s("sim.trace_gen") * 1e6, warps
        ),
        "sim.sm_loop.self_s": every.self_s("sim.sm_loop"),
        "sim.sm_loop.instructions": instructions,
        "sim.sm_loop.ns_per_instruction": _ratio(
            every.self_s("sim.sm_loop") * 1e9, instructions
        ),
        "sim.memory.l1_hit_ratio": _ratio(l1_hits, l1_accesses),
        "sim.memory.l1_accesses": l1_accesses,
        "sim.memory.dram_transactions": every.extra("sim.sm_loop", "dram"),
        "tune.other_s": other if workload == "tune" else 0.0,
        "service.client.encode_s": client.self_s(
            "multiversion.to_bytes", "protocol.encode_frame"
        ),
        "service.client.retries": client.calls("client.round_trip")
        - client.calls("client.request"),
        "service.client.failovers": counts.get("client.failover", 0),
        "service.frame_io.s": ring.elapsed("service.frame_io"),
        "service.decode.calls": ring.calls("service.decode"),
        "service.decode.self_s": ring.self_s("service.decode"),
        "service.key.self_s": ring.self_s("service.key"),
        "service.store.get.calls": store_gets,
        "service.store.get.self_s": ring.self_s("service.store.get"),
        "service.store.hit_ratio": _ratio(
            ring.extra("service.store.get", "hit"), store_gets
        ),
        "service.store.put.calls": ring.calls("service.store.put"),
        "service.store.put.self_s": ring.self_s("service.store.put"),
        "service.store.wait_s": ring.elapsed("service.store.wait"),
        "service.forward.calls": ring.calls("service.forward"),
        "service.forward.s": ring.elapsed("service.forward"),
        "service.replicate.batches": ring.calls("service.replicate"),
        "service.replicate.ops": ring.extra("service.replicate", "ops"),
        "service.replicate.failed": ring.errors("service.replicate"),
        "service.tune_job.calls": ring.calls("service.tune_job"),
        "service.tune_job.self_s": ring.self_s("service.tune_job"),
        "service.tune_job.wait_s": ring.elapsed("service.tune_job.wait"),
        "service.dedup_joins": sum(
            1 for s in ring.of("service.tune")
            if (s.extra or {}).get("outcome") == "deduped"
        ),
        "service.daemon_exit_timeouts": exit_timeouts,
        "bench.trace_overhead_ratio": _ratio(pass_s, untraced_s),
        "bench.traced_s": pass_s,
        "bench.untraced_s": untraced_s,
    }
    missing = {name for name, *_ in PER_LAYER} ^ set(metrics)
    if missing:
        raise AssertionError(f"per-layer metrics out of step: {sorted(missing)}")
    return metrics


def traced_metrics(
    workload: str,
    inst: Installation,
    pass_s: float,
    untraced_s: float,
    result,
) -> dict[str, float]:
    """Per-layer metrics of one in-process traced pass.

    Checks the accounting on the way: the spans must nest, and the
    wrapped self times plus ``<workload>.other_s`` must add up to the
    traced pass's wall time with ``other_s`` non-negative — otherwise
    some seconds were counted twice.
    """
    spans = inst.recorder.finished()
    for problem in nesting_problems(spans):
        result.problems.append(f"span accounting: {problem}")
    metrics = layer_metrics(
        workload, spans, [], dict(inst.recorder.counts), pass_s, untraced_s
    )
    other = metrics[f"{workload}.other_s"]
    wrapped = sum(self_times(spans).values())
    outermost = sum(
        s.duration for s in spans if s.kind == "sync" and s.parent is None
    )
    if other < -1e-6 or abs(wrapped - outermost) > 1e-6:
        result.problems.append(
            f"span accounting: wrapped self time {wrapped:.6f} s (outermost "
            f"spans {outermost:.6f} s) + {workload}.other_s {other:.6f} s "
            f"!= pass {pass_s:.6f} s"
        )
    return metrics
