"""Pluggable execution backends (the engine's measurement substrate).

The runtime engine never calls the simulator directly; it asks an
:class:`ExecutionBackend` to measure one *(kernel version, launch)*
pair and gets back a :class:`MeasurementResult`.  Decoupling policy
(the Fig. 9 tuner, the scheduler) from the execution substrate is the
Zorua-style split the ROADMAP asks for: every consumer of "how fast is
this version" — the dynamic tuner, the harness figures, the CLI — goes
through the same seam, so swapping the substrate never touches them.

Three backends ship:

* **timing** — the event-driven SM simulator
  (:func:`repro.sim.gpu.simulate_kernel`).  The reference substrate;
  every paper figure is generated through it.
* **analytical** — the Hong & Kim MWP/CWP closed-form model
  (:mod:`repro.sim.analytical`).  Orders of magnitude cheaper; gets the
  broad occupancy shape right and the fine structure wrong, which makes
  it a planning/screening backend, not a ground truth.
* **functional** — the interpreter (:func:`repro.sim.interp.run_kernel`).
  A correctness check, not a clock: ``cycles`` is a work proxy (threads
  launched, identical for every version of a kernel) and the result
  carries a checksum of global memory, so two versions of one kernel
  can be compared for semantic equivalence.

Backends are stateless and thread-safe: all inputs arrive in the
:class:`MeasurementRequest`, all outputs leave in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.arch.specs import CacheConfig, GpuArchitecture
from repro.compiler.realize import KernelVersion
from repro.sim.analytical import estimate_cycles, profile_kernel
from repro.sim.energy import gpu_power
from repro.sim.gpu import residency, simulate_kernel
from repro.sim.interp import LaunchConfig, run_kernel
from repro.sim.trace import MemoryTraits


@dataclass(frozen=True)
class MeasurementRequest:
    """Everything a backend needs to measure one launch of one version."""

    arch: GpuArchitecture
    version: KernelVersion
    launch: LaunchConfig
    cache_config: CacheConfig = CacheConfig.SMALL_CACHE
    traits: MemoryTraits = field(default_factory=MemoryTraits)
    ilp: float = 1.0
    max_events_per_warp: int = 6000
    #: pin the resident-warp count (occupancy sweeps); backends that
    #: have no notion of residency ignore it
    forced_warps: int | None = None


@dataclass
class MeasurementResult:
    """What a backend measured.  The common currency of the engine.

    ``stats`` holds backend-specific scalars (JSON-serialisable only,
    so results survive the measurement cache's disk tier).
    """

    backend: str
    cycles: int
    energy: float | None = None
    stats: dict[str, float | int | str] = field(default_factory=dict)
    #: set by the engine when the result came from the measurement
    #: cache rather than a backend invocation
    cached: bool = False

    def to_payload(self) -> dict:
        """JSON-safe form for the content-addressed measurement cache."""
        return {
            "backend": self.backend,
            "cycles": self.cycles,
            "energy": self.energy,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MeasurementResult":
        return cls(
            backend=payload["backend"],
            cycles=payload["cycles"],
            energy=payload["energy"],
            stats=dict(payload["stats"]),
            cached=True,
        )


@runtime_checkable
class ExecutionBackend(Protocol):
    """The substrate seam: measure one version under one launch."""

    name: str

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        ...


# ----------------------------------------------------------------------
def _record_invocation(name: str, result: MeasurementResult) -> None:
    """Charge one backend invocation (and its cycles) to the registry.

    A helper rather than a wrapping backend class so ``get_backend``
    keeps returning the concrete types callers isinstance-check.  Lazy
    import: :mod:`repro.obs` sits above the simulator in the import
    graph.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter(
        "orion_backend_invocations_total",
        "Backend measurements actually executed (cache misses).",
    ).inc(backend=name)
    registry.counter(
        "orion_backend_cycles_total",
        "Simulated cycles accumulated per backend.",
    ).inc(result.cycles, backend=name)


class TimingBackend:
    """The event-driven SM simulator — the reference substrate."""

    name = "timing"

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        version = request.version
        timing = simulate_kernel(
            request.arch,
            version.module,
            version.kernel_name,
            request.launch,
            regs_per_thread=version.regs_per_thread,
            smem_per_block=version.smem_per_block,
            cache_config=request.cache_config,
            traits=request.traits,
            ilp=request.ilp,
            max_events_per_warp=request.max_events_per_warp,
            forced_warps=request.forced_warps,
            strategy=version.strategy,
        )
        cycles = timing.total_cycles
        result = MeasurementResult(
            backend=self.name,
            cycles=cycles,
            energy=gpu_power(request.arch, timing.occupancy) * cycles,
            stats={
                "resident_warps": timing.resident_warps,
                "cycles_per_wave": timing.cycles_per_wave,
                "waves": timing.waves,
                "occupancy": timing.occupancy_fraction,
            },
        )
        _record_invocation(self.name, result)
        return result


class AnalyticalBackend:
    """The Hong & Kim MWP/CWP closed form — cheap, approximately right."""

    name = "analytical"

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        version = request.version
        occ, _, total_warps, resident = residency(
            request.arch,
            version.kernel_name,
            request.launch,
            version.regs_per_thread,
            version.smem_per_block,
            request.cache_config,
            request.forced_warps,
            version.strategy,
        )
        profile = profile_kernel(
            version.module, version.kernel_name, traits=request.traits
        )
        estimate = estimate_cycles(
            profile, request.arch, resident, total_warps, ilp=request.ilp
        )
        cycles = max(1, round(estimate.estimated_cycles))
        result = MeasurementResult(
            backend=self.name,
            cycles=cycles,
            energy=gpu_power(request.arch, occ) * cycles,
            stats={
                "resident_warps": resident,
                "mwp": estimate.mwp,
                "cwp": estimate.cwp,
                "cycles_per_warp": estimate.cycles_per_warp,
            },
        )
        _record_invocation(self.name, result)
        return result


class FunctionalBackend:
    """The interpreter as a backend — a correctness check, not a clock.

    ``cycles`` counts launched threads (identical across versions of a
    kernel, so a tuner driven by this backend degenerates to its
    lowest-occupancy preference — by design).  The interesting output
    is ``stats``: the number of global words written and an
    order-insensitive checksum of the final global memory, which must
    agree between any two semantically equivalent versions.
    """

    name = "functional"

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        version = request.version
        memory = run_kernel(
            version.module, request.launch, kernel_name=version.kernel_name
        )
        checksum = 0
        for address, value in memory.items():
            if isinstance(value, float):
                value = math.floor(value * 4096)
            checksum ^= hash((address, value))
        result = MeasurementResult(
            backend=self.name,
            cycles=max(1, request.launch.total_threads),
            energy=None,
            stats={
                "global_words": len(memory),
                "checksum": f"{checksum & 0xFFFFFFFFFFFFFFFF:016x}",
            },
        )
        _record_invocation(self.name, result)
        return result


# ----------------------------------------------------------------------
BACKENDS: dict[str, type] = {
    TimingBackend.name: TimingBackend,
    AnalyticalBackend.name: AnalyticalBackend,
    FunctionalBackend.name: FunctionalBackend,
}


def get_backend(backend: str | ExecutionBackend) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]()
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r} "
                f"(choose from {', '.join(sorted(BACKENDS))})"
            ) from None
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(f"not an execution backend: {backend!r}")
    return backend
