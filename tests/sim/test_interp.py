"""Functional interpreter tests, and the group interpreter against the
per-thread one it replaced (``tests/sim/reference_interp.py``)."""

import pytest

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.fuzz.generator import (
    PARAM_BASE_OFFSET,
    PARAM_BASE_VALUE,
    SHAPES,
    generate_module,
)
from repro.harness.experiments import compiled
from repro.isa.assembly import parse_module
from repro.sim.interp import InterpError, Interpreter, LaunchConfig, run_kernel
from tests.helpers import (
    call_kernel,
    diamond_kernel,
    loop_kernel,
    module_from_asm,
    straight_line_kernel,
    wide_kernel,
)
from tests.sim import reference_interp
from tests.sim.reference_interp import reference_run_kernel


def _grid_kernel():
    """Each thread stores its global thread id."""
    return module_from_asm(
        """
        .module grid
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            S2R %v1, %ctaid
            S2R %v2, %ntid
            IMAD %v3, %v1, %v2, %v0
            SHL %v4, %v3, 2
            ST.global [%v4], %v3
            EXIT
        .end
        """
    )


def _reverse_kernel():
    """Thread t writes smem[t], barrier, reads smem[N-1-t]."""
    return module_from_asm(
        """
        .module rev
        .kernel k shared=64
        BB0:
            S2R %v0, %tid
            S2R %v1, %ntid
            SHL %v2, %v0, 2
            ST.shared [%v2], %v0
            BAR
            ISUB %v3, %v1, 1
            ISUB %v4, %v3, %v0
            SHL %v5, %v4, 2
            LD.shared %v6, [%v5]
            ST.global [%v2], %v6
            EXIT
        .end
        """
    )


def _per_block_kernel():
    """Thread 0 writes its block index to shared memory; all read it."""
    return module_from_asm(
        """
        .module pb
        .kernel k shared=4
        BB0:
            S2R %v0, %tid
            ISET.eq %v1, %v0, 0
            CBR %v1, W, R
        W:
            S2R %v2, %ctaid
            ST.shared [0], %v2
            BRA R
        R:
            BAR
            LD.shared %v3, [0]
            S2R %v4, %ctaid
            S2R %v5, %ntid
            IMAD %v6, %v4, %v5, %v0
            SHL %v7, %v6, 2
            ST.global [%v7], %v3
            EXIT
        .end
        """
    )


def _private_local_kernel():
    """Each thread stores its id to local memory and reads it back."""
    return module_from_asm(
        """
        .module loc
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            ST.local [0], %v0
            BAR
            LD.local %v1, [0]
            SHL %v2, %v0, 2
            ST.global [%v2], %v1
            EXIT
        .end
        """
    )


def _infinite_kernel():
    """A loop with no exit."""
    return module_from_asm(
        """
        .module inf
        .kernel k shared=0
        BB0:
            BRA BB0
        .end
        """
    )


def _param_store_kernel():
    """A store to read-only param space."""
    return module_from_asm(
        """
        .module p
        .kernel k shared=0
        BB0:
            MOV %v0, 1
            ST.param [0], %v0
            EXIT
        .end
        """
    )


def _lane_warp_kernel():
    """Each thread stores its lane and warp."""
    return module_from_asm(
        """
        .module sw
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            S2R %v1, %laneid
            S2R %v2, %warpid
            SHL %v3, %v0, 3
            ST.global [%v3], %v1
            ST.global [%v3+4], %v2
            EXIT
        .end
        """
    )


class TestBasics:
    def test_straight_line(self):
        module = straight_line_kernel()
        launch = LaunchConfig(grid_blocks=1, block_size=4, params={0: 100})
        memory = {(t + 100) * 4: float(t + 1) for t in range(4)}
        out = run_kernel(module, launch, global_memory=memory)
        for t in range(4):
            assert out[(t + 100) * 4] == pytest.approx(2.0 * (t + 1))

    def test_diamond_branches_per_thread(self):
        module = diamond_kernel()
        out = run_kernel(module, LaunchConfig(block_size=32))
        assert out[4 * 10] == 1  # tid 10 < 16
        assert out[4 * 20] == 2  # tid 20 >= 16

    def test_loop_accumulates(self):
        module = loop_kernel()
        out = run_kernel(module, LaunchConfig(block_size=2, params={0: 5}))
        assert out[0] == 0 + 1 + 2 + 3 + 4
        assert out[4] == 10

    def test_value_abi_calls(self):
        module = call_kernel()
        memory = {4 * t: float(t) for t in range(4)}
        out = run_kernel(module, LaunchConfig(block_size=4), global_memory=memory)
        # scale(x) = 3 * (x + 1); applied twice.
        for t in range(4):
            expected = 3.0 * (3.0 * (t + 1.0) + 1.0)
            assert out[4 * t] == pytest.approx(expected)

    def test_wide_values(self):
        module = wide_kernel()
        memory = {}
        for t in range(2):
            memory[8 * t] = 2.0 + t
            memory[8 * t + 16] = 10.0
        out = run_kernel(module, LaunchConfig(block_size=2), global_memory=memory)
        for t in range(2):
            assert out[8 * t] == pytest.approx(0.5 * (2.0 + t + 10.0))

    def test_multi_block_grid(self):
        module = _grid_kernel()
        out = run_kernel(module, LaunchConfig(grid_blocks=3, block_size=4))
        assert len(out) == 12
        for i in range(12):
            assert out[4 * i] == i


class TestSharedMemoryAndBarriers:
    def test_reverse_through_shared(self):
        """Thread t writes smem[t], barrier, reads smem[N-1-t]."""
        module = _reverse_kernel()
        out = run_kernel(module, LaunchConfig(block_size=8))
        for t in range(8):
            assert out[4 * t] == 7 - t

    def test_shared_is_per_block(self):
        module = _per_block_kernel()
        out = run_kernel(module, LaunchConfig(grid_blocks=2, block_size=2))
        assert out[0] == 0 and out[4] == 0
        assert out[8] == 1 and out[12] == 1


class TestLocalMemory:
    def test_local_is_private(self):
        module = _private_local_kernel()
        out = run_kernel(module, LaunchConfig(block_size=4))
        for t in range(4):
            assert out[4 * t] == t


class TestErrors:
    def test_infinite_loop_detected(self):
        module = _infinite_kernel()
        interp = Interpreter(module, max_steps=1000)
        with pytest.raises(InterpError):
            interp.run("k", LaunchConfig(block_size=1))

    def test_param_store_rejected(self):
        module = _param_store_kernel()
        with pytest.raises(InterpError):
            run_kernel(module, LaunchConfig(block_size=1))

    def test_unbounded_recursion_detected(self):
        """Validation rejects the recursive module before it runs."""
        module = parse_module(
            """
            .module rec
            .kernel k shared=0
            BB0:
                CALL f()
                EXIT
            .end
            .func f args=0 returns=0
            BB0:
                CALL f()
                RET
            .end
            """
        )
        with pytest.raises(ValueError, match="recursive device call: k -> f -> f"):
            run_kernel(module, LaunchConfig(block_size=2))

    def test_running_device_function_rejected(self):
        module = call_kernel()
        with pytest.raises(InterpError):
            Interpreter(module).run("scale", LaunchConfig(block_size=1))


class TestSpecialRegs:
    def test_laneid_warpid(self):
        module = _lane_warp_kernel()
        out = run_kernel(module, LaunchConfig(block_size=64))
        assert out[8 * 33] == 1  # lane of tid 33
        assert out[8 * 33 + 4] == 1  # warp of tid 33
        assert out[8 * 5] == 5
        assert out[8 * 5 + 4] == 0


def _split_barrier_kernel():
    """The block splits before a barrier: each half stores shared words
    and waits at its own ``BAR``, then reads a word the other half
    wrote; a second round does the same through global memory."""
    return module_from_asm(
        """
        .module split
        .kernel k shared=64
        BB0:
            S2R %v0, %tid
            S2R %v1, %ntid
            SHR %v2, %v1, 1
            SHL %v3, %v0, 2
            ISET.lt %v4, %v0, %v2
            CBR %v4, LOW, HIGH
        LOW:
            IMUL %v5, %v0, 10
            ST.shared [%v3], %v5
            BAR
            IADD %v6, %v0, %v2
            BRA JOIN
        HIGH:
            IMUL %v5, %v0, 100
            ST.shared [%v3], %v5
            BAR
            ISUB %v6, %v0, %v2
            BRA JOIN
        JOIN:
            SHL %v7, %v6, 2
            LD.shared %v8, [%v7]
            S2R %v9, %ctaid
            IMAD %v10, %v9, %v1, %v0
            SHL %v11, %v10, 2
            ST.global [%v11], %v8
            BAR
            IMAD %v12, %v9, %v1, %v6
            SHL %v13, %v12, 2
            LD.global %v14, [%v13]
            IADD %v15, %v14, 1
            ST.global [%v11+4096], %v15
            EXIT
        .end
        """
    )


def _split_in_callee_kernel():
    """Thread t calls ``pick`` t times (value ABI), and ``pick``
    branches on the thread's parity: the group splits inside a callee
    and inside a loop whose trip count is the thread id."""
    return module_from_asm(
        """
        .module callee_split
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            MOV %v1, 0
            MOV %v2, 0
            BRA HEAD
        HEAD:
            ISET.lt %v3, %v2, %v0
            CBR %v3, BODY, DONE
        BODY:
            CALL %v4, pick(%v0, %v2)
            IADD %v1, %v1, %v4
            IADD %v2, %v2, 1
            BRA HEAD
        DONE:
            SHL %v5, %v0, 2
            ST.global [%v5], %v1
            EXIT
        .end
        .func pick args=2 returns=1
        BB0:
            AND %v2, %v0, 1
            CBR %v2, ODD, EVEN
        ODD:
            IMUL %v3, %v1, 3
            RET %v3
        EVEN:
            IADD %v3, %v1, 7
            RET %v3
        .end
        """
    )


#: name -> (kernel, launch, initial global memory)
_CASES = {
    "straight_line": (
        straight_line_kernel,
        LaunchConfig(grid_blocks=2, block_size=4, params={0: 100}),
        {(t + 100) * 4: float(t + 1) for t in range(8)},
    ),
    "diamond": (diamond_kernel, LaunchConfig(block_size=32), {}),
    "loop": (loop_kernel, LaunchConfig(block_size=2, params={0: 5}), {}),
    "value_abi_calls": (
        call_kernel, LaunchConfig(block_size=4), {4 * t: float(t) for t in range(4)}
    ),
    "wide": (
        wide_kernel,
        LaunchConfig(block_size=2),
        {8 * t + d: 2.0 + t + d for t in range(2) for d in (0, 16)},
    ),
    "grid": (_grid_kernel, LaunchConfig(grid_blocks=3, block_size=4), {}),
    "reverse": (_reverse_kernel, LaunchConfig(block_size=8), {}),
    "per_block": (_per_block_kernel, LaunchConfig(grid_blocks=2, block_size=2), {}),
    "private_local": (_private_local_kernel, LaunchConfig(block_size=4), {}),
    "lane_warp": (_lane_warp_kernel, LaunchConfig(block_size=64), {}),
    "split_barrier": (
        _split_barrier_kernel, LaunchConfig(grid_blocks=2, block_size=8), {}
    ),
    "split_in_callee": (_split_in_callee_kernel, LaunchConfig(block_size=8), {}),
}


def _benchmark_memory() -> dict[int, float]:
    """Nonzero words where the benchmark kernels read at a small launch:
    dense below 64 KiB, one per 128-byte line up to 8 MiB."""
    memory = {a: float(a // 4 % 7 + 1) for a in range(0, 1 << 16, 4)}
    memory.update({a: float(a // 128 % 5 + 2) for a in range(1 << 16, 1 << 23, 128)})
    return memory


class TestAgainstThePerThreadInterpreter:
    """``run_kernel`` leaves the global memory the per-thread interpreter
    leaves, on kernels whose threads never read a word another thread
    writes in the same barrier interval."""

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_kernels_of_this_file(self, case):
        kernel, launch, memory = _CASES[case]
        module = kernel()
        out = run_kernel(module, launch, global_memory=memory)
        assert out == reference_run_kernel(module, launch, global_memory=memory)
        assert out != memory

    def test_split_before_a_barrier(self):
        """Each half reads what the other half wrote before its own
        barrier, in shared and then in global memory."""
        out = run_kernel(_split_barrier_kernel(), LaunchConfig(grid_blocks=2, block_size=8))
        for block in range(2):
            for t in range(8):
                partner = t + 4 if t < 4 else t - 4
                value = partner * (100 if t < 4 else 10)
                assert out[4 * (8 * block + t)] == value
                assert out[4096 + 4 * (8 * block + t)] == (
                    t * (10 if t < 4 else 100) + 1
                )

    def test_split_in_a_callee(self):
        out = run_kernel(_split_in_callee_kernel(), LaunchConfig(block_size=8))
        for t in range(8):
            picks = [3 * i if t % 2 else i + 7 for i in range(t)]
            assert out[4 * t] == sum(picks)

    def test_reads_within_a_barrier_interval_see_earlier_instructions(self):
        """Thread t stores shared word t, then loads word t + 1 with no
        barrier between: in a group every store runs before any load,
        so each thread reads its neighbour's word.  One thread at a
        time, each thread ran before its neighbour and read zero."""
        module = module_from_asm(
            """
            .module neighbour
            .kernel k shared=64
            BB0:
                S2R %v0, %tid
                SHL %v1, %v0, 2
                IADD %v2, %v0, 1
                ST.shared [%v1], %v2
                LD.shared %v3, [%v1+4]
                ST.global [%v1], %v3
                EXIT
            .end
            """
        )
        launch = LaunchConfig(block_size=4)
        assert run_kernel(module, launch) == {0: 2, 4: 3, 8: 4, 12: 0}
        assert reference_run_kernel(module, launch) == {0: 0, 4: 0, 8: 0, 12: 0}

    @pytest.mark.parametrize(
        "kernel, name, max_steps",
        [
            (_infinite_kernel, "k", 1000),
            (_param_store_kernel, "k", 1000),
            (call_kernel, "scale", 1000),
        ],
        ids=["step_limit", "param_store", "device_function"],
    )
    def test_errors_match(self, kernel, name, max_steps):
        module = kernel()
        launch = LaunchConfig(block_size=4)
        with pytest.raises(InterpError) as group:
            Interpreter(module, max_steps).run(name, launch)
        with pytest.raises(InterpError) as single:
            reference_interp.Interpreter(module, max_steps).run(name, launch)
        assert str(group.value) == str(single.value)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_kernels_at_a_small_launch(self, name):
        """The source module and the allocated original version (frame
        ABI, spills), at 2 blocks of at most 64 threads."""
        spec = BENCHMARKS[name]
        full = spec.workload.launch()
        launch = LaunchConfig(
            grid_blocks=2,
            block_size=min(full.block_size, 64),
            params=dict(full.params),
        )
        memory = _benchmark_memory()
        binary = compiled(spec, GTX680, strategy="local-spill")
        for module in (spec.build(), binary.versions[0].module):
            kernel = module.kernel().name
            out = run_kernel(module, launch, kernel, memory)
            assert out == reference_run_kernel(module, launch, kernel, memory)
            assert sum(out.get(a) != v for a, v in memory.items()) == 2 * launch.block_size

    @pytest.mark.parametrize("shape", SHAPES)
    def test_fuzz_modules(self, shape):
        launch = LaunchConfig(
            grid_blocks=2,
            block_size=32,
            params={PARAM_BASE_OFFSET: PARAM_BASE_VALUE},
        )
        memory = {i * 4: float(i % 7 + 1) for i in range(512)}
        for seed in range(4):
            module = generate_module(seed, shape)
            out = run_kernel(module, launch, global_memory=memory)
            assert out == reference_run_kernel(module, launch, global_memory=memory)
