"""The original-version budget search against a binary-search oracle.

``minimal_budget`` walks upward from the kernel's max-live, counting a
register copy and its live source once.  The search it replaced
binary-searched every budget from 1 to the cap; it is kept here as the
reference, and both must agree on every input: the benchmark kernels,
fuzz modules of every shape, the hand-written helper kernels (copies
among them) and decoded (physical-register) Orion binaries.
"""

import pytest

from repro.arch import GTX680, TESLA_C2075
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.compiler.tuning import original_version
from repro.fuzz.generator import SHAPES, generate_module
from repro.isa.encoding import decode_module, encode_module
from repro.regalloc import allocator
from repro.regalloc.allocator import BudgetError, allocate_module, minimal_budget
from repro.regalloc.stack import kernel_max_live
from tests import helpers
from tests.helpers import pressure_kernel


def binary_search_budget(module, kernel_name, upper_bound):
    """Reference: the bisection over budgets 1..upper_bound, one full
    allocation per probe; ``None`` when nothing fits spill-free."""
    lo, hi = 1, upper_bound
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        try:
            outcome = allocate_module(module, kernel_name, mid)
        except BudgetError:
            lo = mid + 1
            continue
        if outcome.spilled_variables == 0:
            best = mid
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def assert_matches_reference(module, upper_bound):
    kernel = module.kernel().name
    expected = binary_search_budget(module, kernel, upper_bound)
    if expected is None:
        with pytest.raises(BudgetError):
            minimal_budget(module, kernel, upper_bound)
        return
    budget, outcome = minimal_budget(module, kernel, upper_bound)
    assert budget == expected
    assert outcome.spilled_variables == 0
    assert outcome.registers_per_thread <= budget
    # One register fewer is not spill-free.
    try:
        below = allocate_module(module, kernel, budget - 1)
    except BudgetError:
        return
    assert below.spilled_variables > 0


@pytest.mark.parametrize("cap", [63, 255])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_kernels(name, cap):
    assert_matches_reference(BENCHMARKS[name].build(), cap)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("shape", SHAPES)
def test_fuzz_modules(shape, seed):
    assert_matches_reference(generate_module(seed, shape), 63)


@pytest.mark.parametrize(
    "make",
    [
        helpers.straight_line_kernel,
        helpers.diamond_kernel,
        helpers.loop_kernel,
        helpers.call_kernel,
        helpers.wide_kernel,
        helpers.copy_kernel,
        helpers.copy_call_kernel,
    ],
    ids=lambda make: make.__name__,
)
def test_helper_kernels(make):
    assert_matches_reference(make(), 63)


@pytest.mark.parametrize(
    "make", [helpers.copy_kernel, helpers.copy_call_kernel]
)
def test_copies_take_the_walk_below_max_live(make):
    # A copy beside its live source shares its register, so max-live
    # overcounts: the walk must start below it to find the minimum.
    module = make()
    budget, _ = minimal_budget(module, "k", 63)
    assert kernel_max_live(module, "k", share_copies=True) == budget
    assert kernel_max_live(module, "k") == budget + 1


@pytest.fixture(scope="module")
def decoded_binaries():
    """Every distinct call-free version binary of the benchmark suite,
    compiled for GTX680 and C2075 and decoded back to physical IR.

    Binaries with calls are left out: re-allocating most of them fails
    self-verification, a defect of its own that either search meets.
    """
    seen = set()
    modules = []
    for arch in (GTX680, TESLA_C2075):
        for name, spec in sorted(BENCHMARKS.items()):
            module = spec.build()
            options = CompileOptions(
                arch=arch,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
                strategy="local-spill",
            )
            binary = compile_binary(
                module, module.kernel().name, options, use_cache=False
            )
            for version in binary.versions:
                if version.binary in seen:
                    continue
                seen.add(version.binary)
                decoded = decode_module(version.binary)
                if not any(
                    inst.is_call
                    for fn in decoded.functions.values()
                    for inst in fn.instructions()
                ):
                    modules.append(decoded)
    return modules


def test_decoded_binaries(decoded_binaries):
    assert len(decoded_binaries) >= 10
    for module in decoded_binaries:
        assert_matches_reference(module, 63)


def _counting(monkeypatch):
    """Count allocate_module calls at every binding the compiler uses."""
    from repro.compiler import tuning

    calls = []
    real = allocator.allocate_module

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["reg_budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(allocator, "allocate_module", counted)
    monkeypatch.setattr(tuning, "allocate_module", counted)
    return calls


def test_original_version_allocates_once(monkeypatch):
    spec = BENCHMARKS["cfd"]
    module = spec.build()
    kernel = module.kernel().name
    budget, _ = minimal_budget(module, kernel, GTX680.max_registers_per_thread)
    calls = _counting(monkeypatch)
    version = original_version(
        module, kernel, GTX680, spec.workload.block_size
    )
    assert calls == [budget]
    assert version.outcome.spilled_variables == 0


def test_max_live_above_the_cap_gets_the_cap_allocation(monkeypatch):
    module = pressure_kernel(70)
    cap = GTX680.max_registers_per_thread
    assert kernel_max_live(module, "k") > cap
    with pytest.raises(BudgetError):
        minimal_budget(module, "k", cap)
    expected = allocate_module(module, "k", cap, block_size=256)
    calls = _counting(monkeypatch)
    version = original_version(module, "k", GTX680, 256)
    # No probe below max-live: the only allocation is at the cap.
    assert calls == [cap]
    assert version.outcome.spilled_variables > 0
    assert version.regs_per_thread == expected.registers_per_thread
    assert version.binary == encode_module(expected.module)
