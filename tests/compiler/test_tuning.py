"""Fig. 8 compile-time tuning tests: direction, candidate set, fail-safe."""

import pytest

from repro.arch import GTX680, TESLA_C2075
from repro.compiler.multiversion import MultiVersionBinary
from repro.compiler.pipeline import CompileOptions, compile_binary, nvcc_baseline
from repro.compiler.static_select import (
    memory_instruction_distance,
    warps_needed,
)
from repro.compiler.tuning import compile_time_tuning, conservative_level
from repro.isa.encoding import encode_module
from tests.helpers import loop_kernel, module_from_asm


def pressure_module(n=36, loop_iters=4):
    """High max-live kernel with a loop (tunable, upward direction)."""
    lines = ["S2R %v0, %tid", "SHL %v1, %v0, 2", "MOV %v60, 0"]
    for i in range(n):
        lines.append(f"LD.global %v{2 + i}, [%v1+{128 * i}]")
    lines.append("BRA HEAD")
    head = f"""HEAD:
    ISET.lt %v99, %v60, {loop_iters}
    CBR %v99, BODY, DONE
BODY:"""
    body = []
    accum = "%v2"
    for i in range(1, n):
        body.append(f"FFMA %v{200 + i}, %v{2 + i}, 1.5, {accum}")
        accum = f"%v{200 + i}"
    body.append("IADD %v60, %v60, 1")
    body.append("BRA HEAD")
    tail = f"DONE:\n    ST.global [%v1], {accum}\n    EXIT"
    text = (
        ".module m\n.kernel k shared=0\nBB0:\n"
        + "\n".join(f"    {l}" for l in lines)
        + "\n"
        + head
        + "\n"
        + "\n".join(f"    {l}" for l in body)
        + "\n"
        + tail
        + "\n.end"
    )
    return module_from_asm(text)


class TestDirectionAndCandidates:
    def test_upward_plan_shape(self):
        plan = compile_time_tuning(pressure_module(), "k", GTX680, 256)
        assert plan.direction == "increasing"
        assert plan.versions[0].label == "original"
        # Candidates are ordered by increasing occupancy.
        warps = [v.achieved_warps for v in plan.versions]
        assert warps == sorted(warps)
        assert len(plan.versions) <= 5

    def test_downward_plan_shape(self):
        plan = compile_time_tuning(loop_kernel(), "k", GTX680, 256)
        assert plan.direction == "decreasing"
        warps = [v.achieved_warps for v in plan.versions]
        assert warps[0] == max(warps)
        assert warps == sorted(warps, reverse=True)

    def test_candidate_count_bounded(self):
        """Paper: <=5 versions, <=6 including the fail-safe."""
        for module in (pressure_module(), loop_kernel()):
            plan = compile_time_tuning(module, "k", GTX680, 256)
            assert len(plan.versions) <= 5
            assert len(plan.versions) + len(plan.failsafe) <= 6

    def test_failsafe_is_opposite_direction(self):
        plan = compile_time_tuning(pressure_module(), "k", GTX680, 256)
        if plan.failsafe:
            assert (
                plan.failsafe[0].achieved_warps
                < plan.versions[0].achieved_warps
            )
        down = compile_time_tuning(loop_kernel(), "k", GTX680, 256)
        # Original already at hardware max: no upward fail-safe exists.
        assert down.versions[0].achieved_warps == GTX680.max_warps_per_sm
        assert down.failsafe == []

    def test_downward_versions_share_binary(self):
        plan = compile_time_tuning(loop_kernel(), "k", TESLA_C2075, 256)
        binaries = {v.binary for v in plan.versions}
        assert len(binaries) == 1  # padding, not recompilation

    def test_conservative_level_bounds(self):
        module = pressure_module()
        level = conservative_level(module, "k", GTX680, 256)
        assert level in [8, 16, 24, 32, 40, 48, 56, 64]

    def test_static_selection_when_not_tunable(self):
        plan = compile_time_tuning(
            pressure_module(), "k", GTX680, 256, can_tune=False
        )
        assert len(plan.versions) == 1
        assert plan.failsafe == []


class TestParallelRealization:
    def test_parallel_plan_matches_sequential(self):
        module = pressure_module()
        sequential = compile_time_tuning(module, "k", GTX680, 256, jobs=1)
        parallel = compile_time_tuning(module, "k", GTX680, 256, jobs=2)
        assert [v.label for v in sequential.versions] == [
            v.label for v in parallel.versions
        ]
        assert [v.binary for v in sequential.versions] == [
            v.binary for v in parallel.versions
        ]
        assert [v.binary for v in sequential.failsafe] == [
            v.binary for v in parallel.failsafe
        ]

    def test_jobs_env_var(self, monkeypatch):
        from repro.compiler.tuning import _resolve_jobs

        monkeypatch.delenv("ORION_COMPILE_JOBS", raising=False)
        assert _resolve_jobs(None) == 1
        assert _resolve_jobs(3) == 3
        assert _resolve_jobs(0) == 1  # clamped
        monkeypatch.setenv("ORION_COMPILE_JOBS", "4")
        assert _resolve_jobs(None) == 4
        assert _resolve_jobs(2) == 2  # explicit argument wins
        monkeypatch.setenv("ORION_COMPILE_JOBS", "junk")
        assert _resolve_jobs(None) == 1


class TestStaticSelectHeuristic:
    def test_memory_distance(self):
        module = loop_kernel()
        d = memory_instruction_distance(module, "k")
        assert d > 1

    def test_compute_bound_needs_few_warps(self):
        module = module_from_asm(
            """
            .module cb
            .kernel k shared=0
            BB0:
                S2R %v0, %tid
                MOV %v1, 0
                MOV %v2, 0
                BRA H
            H:
                ISET.lt %v3, %v1, 100
                CBR %v3, B, D
            B:
                IMAD %v2, %v2, 3, 1
                IADD %v1, %v1, 1
                BRA H
            D:
                SHL %v4, %v0, 2
                ST.global [%v4], %v2
                EXIT
            .end
            """
        )
        assert warps_needed(module, "k", GTX680) <= 8


class TestMultiVersionBinary:
    def test_round_trip(self):
        plan = compile_time_tuning(pressure_module(), "k", GTX680, 256)
        mv = MultiVersionBinary.from_plan(plan, GTX680.name, 256)
        data = mv.to_bytes()
        again = MultiVersionBinary.from_bytes(data)
        assert again.kernel_name == mv.kernel_name
        assert again.direction == mv.direction
        assert len(again.versions) == len(mv.versions)
        for a, b in zip(again.versions, mv.versions):
            assert a.label == b.label
            assert a.achieved_warps == b.achieved_warps
            assert a.binary == b.binary
            assert str(a.module) == str(b.module)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            MultiVersionBinary.from_bytes(b"XXXX" + b"\x00" * 8)


class TestPipeline:
    def test_compile_from_bytes(self):
        module = pressure_module()
        raw = encode_module(module)
        mv = compile_binary(raw, "k", CompileOptions(arch=GTX680))
        assert mv.versions

    def test_nvcc_baseline_properties(self):
        version = nvcc_baseline(pressure_module(), "k", GTX680)
        assert version.label == "nvcc"
        assert version.smem_padding == 0
        assert version.regs_per_thread <= GTX680.max_registers_per_thread

    def test_nvcc_no_worse_register_count_than_orion_original(self):
        """Orion's interprocedural space optimisation saves registers."""
        from repro.compiler.tuning import original_version
        from tests.helpers import call_kernel

        module = call_kernel()
        orion = original_version(module, "k", GTX680, 256)
        nvcc = nvcc_baseline(module, "k", GTX680)
        assert orion.regs_per_thread <= nvcc.regs_per_thread


class TestOriginalVersion:
    def test_allocator_self_check_failure_is_not_swallowed(self, monkeypatch):
        """A verifier rejection during the minimal-budget search is a
        compiler bug: it must surface, not silently turn the original
        version into the cap-budget allocation."""
        from repro.bench.kernels import BENCHMARKS
        from repro.compiler.tuning import original_version
        from repro.ir.verify import VerificationError
        from repro.regalloc import allocator

        real = allocator.allocate_module
        cap = GTX680.max_registers_per_thread

        def rejecting(module, kernel_name, reg_budget, *args, **kwargs):
            if reg_budget < cap:
                raise VerificationError([])
            return real(module, kernel_name, reg_budget, *args, **kwargs)

        monkeypatch.setattr(allocator, "allocate_module", rejecting)
        spec = BENCHMARKS["matrixMul"]
        module = spec.build()
        with pytest.raises(VerificationError):
            original_version(
                module, module.kernel().name, GTX680, spec.workload.block_size
            )
