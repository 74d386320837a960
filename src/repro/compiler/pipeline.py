"""The Orion compiler driver: front end → middle end → back end.

Paper Section 4: "The front end is responsible for taking a GPU binary
file as input, converting it into assembly code, and analyzing the
assembly to extract a high level intermediate representation.  The
middle end ... obtains a single static assignment (SSA) form of the
code, extracts live ranges, performs resource allocation, updates the
control flow graph, and writes back to the assembly code.  The static
multi-kernel selection and generation is in the middle end.  The back
end converts the transformed assembly code back to binary code."

:func:`compile_binary` is that whole path: it accepts an ORAS binary
(or an in-memory module), runs the Fig. 8 compile-time tuning, and
returns the multi-version binary for the runtime.  The driver consults
the content-addressed compile cache (:mod:`repro.perf.cache`) first —
a hit deserializes the stored fat binary instead of re-running the
middle end — and wraps every stage in a :func:`repro.obs.spans.span`,
which charges the per-span call and seconds counters of the metrics
registry (``repro compile --timings`` prints them) and emits paired
``span_start``/``span_end`` telemetry when a hub is ambient.

:func:`nvcc_baseline` models the paper's comparison point: a quality
single-thread allocation (graph colouring under the 63-register cap)
that is *occupancy-oblivious* — no compressible-stack space or movement
optimisation, no shared-memory promotion, no occupancy search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.occupancy import calculate_occupancy
from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.realize import KernelVersion
from repro.compiler.tuning import compile_time_tuning
from repro.ir.function import Module
from repro.isa.encoding import CodecError, decode_module, encode_module
from repro.obs.spans import span
from repro.perf.cache import CompileCache, compile_cache_key, default_cache
from repro.regalloc.allocator import allocate_module
from repro.regalloc.strategy import default_strategy_id, strategy_ids


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of one compilation.

    Every field is part of the compile-cache key (the frozen repr is
    the fingerprint).

    ``strategy`` names an allocation strategy (where spilled registers
    live — see :mod:`repro.regalloc.strategy`) or ``"mixed"`` to
    enumerate candidates under every non-experimental strategy.  The
    default resolves ``$ORION_STRATEGY`` at construction time, so the
    resolved id (never the indirection) lands in the cache fingerprint.
    """

    arch: GpuArchitecture
    block_size: int = 256
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE
    can_tune: bool = True
    max_versions: int = 5
    strategy: str = field(default_factory=default_strategy_id)

    def __post_init__(self) -> None:
        strategy_ids(self.strategy)  # validate (raises on unknown ids)


def front_end(data: bytes | Module) -> Module:
    """Decode a binary (or accept an in-memory module) into IR."""
    if isinstance(data, Module):
        return data
    return decode_module(data)


def compile_binary(
    data: bytes | Module,
    kernel_name: str,
    options: CompileOptions,
    use_cache: bool = True,
    cache: CompileCache | None = None,
    verify: bool = False,
) -> MultiVersionBinary:
    """Full Orion compilation: candidate generation + fat binary.

    ``use_cache=False`` always runs the middle end (the pre-cache
    behaviour); otherwise ``cache`` (default: the process-wide
    :func:`repro.perf.default_cache`) is consulted first.
    ``verify`` gates the result (cache hits included) through
    :func:`verify_binary` — the allocation-soundness checks on every
    realized version, at every target occupancy.  It never changes the
    output bytes, so it is not part of the cache key.
    """
    if cache is None and use_cache:
        cache = default_cache()
    key: str | None = None
    if cache is not None:
        module_bytes = data if isinstance(data, bytes) else encode_module(data)
        key = compile_cache_key(module_bytes, kernel_name, options)
        with span("cache_lookup", kernel=kernel_name):
            payload = cache.lookup(key)
        if payload is not None:
            with span("cache_decode", kernel=kernel_name):
                try:
                    binary = MultiVersionBinary.from_bytes(payload)
                    binary.decode_modules()
                except CodecError:
                    # A truncated/corrupted entry (torn disk write, manual
                    # edit) is a miss, not an error; recompiling below
                    # overwrites it with a good payload.  Decoding every
                    # module here catches a corrupt version inside a
                    # well-framed entry too.
                    pass
                else:
                    if verify:
                        verify_binary(binary)
                    return binary
    with span("front_end", kernel=kernel_name):
        module = front_end(data)
    with span("tuning", kernel=kernel_name):
        plan = compile_time_tuning(
            module,
            kernel_name,
            options.arch,
            options.block_size,
            can_tune=options.can_tune,
            cache_config=options.cache_config,
            max_versions=options.max_versions,
            strategies=strategy_ids(options.strategy),
        )
    with span("pack", kernel=kernel_name):
        binary = MultiVersionBinary.from_plan(
            plan, options.arch.name, options.block_size
        )
        if cache is not None and key is not None:
            cache.store(key, binary.to_bytes())
    if verify:
        verify_binary(binary)
    return binary


def verify_binary(binary: MultiVersionBinary) -> None:
    """The pipeline's allocation-soundness gate.

    Re-verifies every realized :class:`KernelVersion` — candidates and
    fail-safe versions alike — at its own register budget, so a clobber
    introduced at any target occupancy is caught before the binary is
    handed to the runtime.  Versions arriving from the compile cache
    carry no :class:`InterprocResult`; the verifier then falls back to
    deriving frame bases from the code, which keeps the gate equally
    applicable to freshly-compiled and deserialized binaries.

    Raises :class:`repro.ir.verify.VerificationError` (a ``ValueError``)
    naming the offending version on the first unsound one.
    """
    from repro.ir.verify import VerificationError, VerifyIssue, verify_module

    with span("verify", kernel=binary.kernel_name):
        checked: set[int] = set()
        for version in (*binary.versions, *binary.failsafe):
            # Padded (downward-tuned) versions share the original's
            # module; one pass per distinct allocation is enough.
            if id(version.module) in checked:
                continue
            checked.add(id(version.module))
            issues = verify_module(
                version.module,
                physical=True,
                reg_budget=version.regs_per_thread,
                interproc=version.outcome.interproc,
            )
            _count_verify("fail" if issues else "pass")
            if issues:
                raise VerificationError([
                    VerifyIssue(
                        f"{version.label}/{issue.function}",
                        issue.block,
                        issue.index,
                        issue.message,
                    )
                    for issue in issues
                ])


def _count_verify(result: str) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_verifier_checks_total",
        "Allocation-soundness verifier passes over distinct allocations.",
    ).inc(result=result)


def nvcc_baseline(
    data: bytes | Module,
    kernel_name: str,
    arch: GpuArchitecture,
    block_size: int = 256,
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE,
) -> KernelVersion:
    """The occupancy-oblivious baseline the paper compares against."""
    module = front_end(data)
    # The hardware cap is only a ceiling: colouring takes the lowest
    # slots, so the reported register usage is nvcc's natural demand.
    outcome = allocate_module(
        module,
        kernel_name,
        arch.max_registers_per_thread,
        block_size=block_size,
        space_minimization=False,
        movement_minimization=False,
    )
    occ = calculate_occupancy(
        arch,
        block_size,
        outcome.registers_per_thread,
        outcome.shared_bytes_per_block,
        cache_config,
    )
    return KernelVersion(
        label="nvcc",
        target_warps=occ.active_warps,
        achieved_warps=occ.active_warps,
        occupancy=occ.occupancy,
        regs_per_thread=outcome.registers_per_thread,
        smem_per_block=outcome.shared_bytes_per_block,
        smem_padding=0,
        outcome=outcome,
        binary=encode_module(outcome.module),
    )
