"""The differential-fuzzing oracle: verify, interpret, compare.

One *case* is one generated module pushed through the full pipeline:

* the original module is interpreted once to get the reference output;
* the module is compiled twice cold (two fresh
  :class:`~repro.perf.cache.CompileCache` instances) and once warm
  (a cache hit on the first cache); all three fat binaries must be
  byte-identical — the compile path and the serialization round-trip
  are deterministic;
* every realized version — candidates and fail-safes — must pass the
  allocation-soundness verifier at its own register budget and must
  produce exactly the reference global memory under the interpreter.

Exact equality (not approximate) is sound because allocation only moves
values between slots; it never reorders or rewrites arithmetic.

A non-default ``strategy`` adds the **strategy-differential** oracle:
the same module is compiled a second time under that allocation
strategy, every one of *its* versions must also verify and reproduce
the reference output exactly (where spilled values live must never
change what the kernel computes), and the two compiles must carry
distinct kernel fingerprints (a collision would let the tuning store
serve one strategy's winner to the other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.arch.specs import GTX680, GpuArchitecture
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.fuzz.generator import (
    PARAM_BASE_OFFSET,
    PARAM_BASE_VALUE,
    generate_module,
)
from repro.ir.verify import verify_module
from repro.obs.context import use_hub
from repro.obs.spans import span
from repro.obs.telemetry import EventKind
from repro.perf.cache import CompileCache
from repro.sim.interp import LaunchConfig, run_kernel

#: Small fixed launch: the interpreter dominates case runtime.
_LAUNCH = LaunchConfig(
    grid_blocks=1,
    block_size=8,
    params={PARAM_BASE_OFFSET: PARAM_BASE_VALUE},
)


def _initial_memory() -> dict[int, float]:
    return {i * 4: float(i % 7 + 1) for i in range(192)}


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle violation, reproducible from its seed alone."""

    seed: int
    shape: str
    #: "verifier" | "differential" | "determinism" | "store" |
    #: "strategy" | "crash"
    kind: str
    detail: str
    #: trace file of the failing run, when the run carried one — lets
    #: the reproduction line point at the span-level evidence
    trace: str | None = None
    #: non-default allocation strategy the failing run compiled under
    strategy: str = "local-spill"

    @property
    def repro(self) -> str:
        line = f"repro fuzz --seed {self.seed} --cases 1 --shape {self.shape}"
        if self.strategy != "local-spill":
            line += f" --strategy {self.strategy}"
        if self.trace:
            line += f"  # trace: {self.trace}"
        return line

    def __str__(self) -> str:
        return (
            f"[{self.kind}] seed={self.seed} shape={self.shape}: "
            f"{self.detail}\n    reproduce: {self.repro}"
        )


@dataclass
class FuzzReport:
    """Aggregate result of a fuzzing run."""

    cases: int
    shape: str
    failures: list[FuzzFailure] = field(default_factory=list)
    versions_checked: int = 0
    #: non-default strategy the run cross-checked against (oracle off
    #: when it is the reference ``local-spill``)
    strategy: str = "local-spill"

    @property
    def ok(self) -> bool:
        return not self.failures


def check_case(
    seed: int,
    shape: str = "mixed",
    arch: GpuArchitecture = GTX680,
    trace: str | None = None,
    store=None,
    strategy: str = "local-spill",
) -> tuple[list[FuzzFailure], int]:
    """Run the oracle on one generated case.

    Returns ``(failures, versions_checked)``.  A crash anywhere in the
    pipeline is itself a failure (kind ``"crash"``), never an exception
    out of the harness.  ``trace`` names the trace file the run writes
    to, so failures carry a pointer to their span-level evidence.

    ``store`` (a :class:`~repro.service.store.TuningStore`) adds the
    persistence oracle: the kernel fingerprint and tuning key must be
    identical across the case's two cold compiles (keys are the store's
    contract — an unstable key silently forfeits every warm start), and
    a record must round-trip through the real store file byte-exactly
    (kind ``"store"``).

    ``strategy`` (a non-default allocation-strategy id) adds the
    strategy-differential oracle: a second compile under that strategy
    whose every version must verify and match the reference output,
    and whose kernel fingerprint must differ from the base compile's
    (kind ``"strategy"`` on a collision).  The base compile is always
    pinned to ``local-spill`` so the reference half of the comparison
    is identical across CI shards regardless of ``ORION_STRATEGY``.
    """
    failures: list[FuzzFailure] = []

    def fail(kind: str, detail: str, *, failing: str = "local-spill") -> None:
        failures.append(
            FuzzFailure(seed, shape, kind, detail, trace=trace, strategy=failing)
        )

    with span("fuzz_case", seed=seed, shape=shape, strategy=strategy):
        return _check_case_body(
            seed, shape, arch, failures, fail, store, strategy
        )


def _check_versions(
    binary,
    expected,
    fail: Callable[..., None],
    failing: str,
) -> int:
    """Verifier + differential oracle over every version of one binary."""
    checked = 0
    for version in (*binary.versions, *binary.failsafe):
        checked += 1
        try:
            issues = verify_module(
                version.module,
                physical=True,
                reg_budget=version.regs_per_thread,
                interproc=version.outcome.interproc,
            )
            if issues:
                fail(
                    "verifier",
                    f"version {version.label}: " + "; ".join(map(str, issues)),
                    failing=failing,
                )
                continue
            actual = run_kernel(
                version.module, _LAUNCH, global_memory=_initial_memory()
            )
            if actual != expected:
                fail(
                    "differential",
                    _describe_divergence(version.label, expected, actual),
                    failing=failing,
                )
        except Exception as exc:  # noqa: BLE001
            fail(
                "crash",
                f"version {version.label}: {type(exc).__name__}: {exc}",
                failing=failing,
            )
    return checked


def _check_case_body(
    seed: int,
    shape: str,
    arch: GpuArchitecture,
    failures: list[FuzzFailure],
    fail: Callable[..., None],
    store=None,
    strategy: str = "local-spill",
) -> tuple[list[FuzzFailure], int]:
    try:
        module = generate_module(seed, shape)
        expected = run_kernel(module, _LAUNCH, global_memory=_initial_memory())
        options = CompileOptions(
            arch=arch, block_size=128, max_versions=4, strategy="local-spill"
        )

        cold = CompileCache()
        binary = compile_binary(
            module, "k", options, use_cache=True, cache=cold
        )
        payload = binary.to_bytes()
        again = compile_binary(
            module, "k", options, use_cache=True, cache=CompileCache()
        )
        if again.to_bytes() != payload:
            fail("determinism", "two cold compiles produced different bytes")
        warm = compile_binary(module, "k", options, use_cache=True, cache=cold)
        if warm.to_bytes() != payload:
            fail("determinism", "cache hit decoded to different bytes")
        if store is not None:
            _check_store_oracle(store, binary, again, arch, seed, fail)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        fail("crash", f"{type(exc).__name__}: {exc}")
        return failures, 0

    checked = _check_versions(binary, expected, fail, "local-spill")
    if strategy != "local-spill":
        checked += _check_strategy_oracle(
            module, expected, arch, strategy, binary, fail
        )
    return failures, checked


def _check_strategy_oracle(
    module,
    expected,
    arch: GpuArchitecture,
    strategy: str,
    base_binary,
    fail: Callable[..., None],
) -> int:
    """The strategy-differential half: compile again under ``strategy``."""
    from repro.service.fingerprint import kernel_fingerprint

    try:
        alt = compile_binary(
            module,
            "k",
            CompileOptions(
                arch=arch, block_size=128, max_versions=4, strategy=strategy
            ),
            use_cache=True,
            cache=CompileCache(),
        )
    except Exception as exc:  # noqa: BLE001
        fail("crash", f"{type(exc).__name__}: {exc}", failing=strategy)
        return 0
    checked = _check_versions(alt, expected, fail, strategy)
    # Spill-free kernels compile to the same module bytes under every
    # strategy; only the strategy tag keeps their fingerprints (and so
    # their tuning-store records) apart.  A collision here means the
    # store would hand one strategy's winner to the other.
    if alt.strategies() != base_binary.strategies() and kernel_fingerprint(
        alt
    ) == kernel_fingerprint(base_binary):
        fail(
            "strategy",
            f"kernel fingerprint collides between local-spill and "
            f"{strategy} compiles",
            failing=strategy,
        )
    return checked


def _check_store_oracle(
    store, binary, again, arch: GpuArchitecture, seed: int, fail
) -> None:
    """Fingerprint stability + store round-trip for one case."""
    from repro.runtime.session import Workload
    from repro.service.fingerprint import kernel_fingerprint, tuning_key
    from repro.service.store import TuningRecord

    fingerprint = kernel_fingerprint(binary)
    if kernel_fingerprint(again) != fingerprint:
        fail("store", "kernel fingerprint differs between two cold compiles")
        return
    workload = Workload(launch=_LAUNCH, iterations=4)
    key = tuning_key(binary, workload, arch.name, "timing")
    if tuning_key(again, workload, arch.name, "timing") != key:
        fail("store", "tuning key differs between two cold compiles")
        return
    winner = binary.versions[0]
    record = TuningRecord(
        key=key,
        kernel=fingerprint,
        kernel_name=binary.kernel_name,
        arch=arch.name,
        backend="timing",
        winner_label=winner.label,
        winner_warps=winner.achieved_warps,
        occupancy=winner.occupancy,
        total_cycles=seed + 1,
        iterations_to_converge=0,
    )
    store.put(record)
    loaded = store.get(key)
    if loaded is None:
        fail("store", "record vanished on immediate lookup after put")
    elif loaded.to_payload() != record.to_payload():
        fail("store", "record did not round-trip through the store file")


def _describe_divergence(
    label: str, expected: dict[int, float], actual: dict[int, float]
) -> str:
    for address in sorted(expected.keys() | actual.keys()):
        want = expected.get(address)
        got = actual.get(address)
        if want != got:
            return (
                f"version {label} diverges from the original at global "
                f"address {address:#x}: expected {want!r}, got {got!r}"
            )
    return f"version {label} diverges from the original"


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    shape: str = "mixed",
    arch: GpuArchitecture = GTX680,
    progress: Callable[[str], None] | None = None,
    hub=None,
    trace: str | None = None,
    store=None,
    strategy: str = "local-spill",
) -> FuzzReport:
    """Run ``cases`` consecutive seeds starting at ``seed``.

    Case ``i`` uses seed ``seed + i``, so any failure reproduces in
    isolation with ``--seed <case-seed> --cases 1``.  ``hub`` (a
    :class:`~repro.obs.telemetry.TelemetryHub`) makes the run emit
    per-case spans; ``trace`` is the file that hub writes, threaded
    onto every failure's reproduction line.  ``store`` adds the
    persistence oracle (see :func:`check_case`), sharing one store
    file across every case of the run.  ``strategy`` (non-default) adds
    the strategy-differential oracle to every case.
    """
    from contextlib import nullcontext

    report = FuzzReport(cases=cases, shape=shape, strategy=strategy)
    ambient = use_hub(hub) if hub is not None else nullcontext()
    with ambient:
        for i in range(cases):
            failures, checked = check_case(
                seed + i, shape, arch, trace=trace, store=store,
                strategy=strategy,
            )
            report.failures.extend(failures)
            report.versions_checked += checked
            _count_fuzz_case(bool(failures))
            if hub is not None:
                hub.emit(
                    EventKind.FUZZ_CASE,
                    seed=seed + i,
                    shape=shape,
                    versions_checked=checked,
                    failures=len(failures),
                )
            if progress is not None and (i + 1) % 25 == 0:
                progress(
                    f"  {i + 1}/{cases} cases, {report.versions_checked} "
                    f"versions checked, {len(report.failures)} failure(s)"
                )
    if hub is not None:
        hub.flush()
    return report


def _count_fuzz_case(failed: bool) -> None:
    from repro.obs.metrics import get_registry

    get_registry().counter(
        "orion_fuzz_cases_total", "Differential-fuzzing cases by outcome."
    ).inc(result="fail" if failed else "ok")
