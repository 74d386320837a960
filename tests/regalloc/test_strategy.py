"""Allocation-strategy tests: registry and spill targets.

The registry must resolve deterministically (``None`` = reference,
*not* the environment) and know exactly the two spill targets, and the
shared-spill allocator path must move spill slots into the per-thread
shared frame without changing kernel semantics.
"""

import pytest

from repro.regalloc.allocator import allocate_module, minimal_budget
from repro.regalloc.strategy import (
    DEFAULT_STRATEGY_ID,
    LOCAL_SPILL,
    MIXED_ID,
    SMEM_SPILL,
    STRATEGIES,
    STRATEGY_ENV,
    SpillStrategy,
    default_strategy_id,
    get_strategy,
    strategy_ids,
)
from repro.sim.interp import LaunchConfig, run_kernel
from tests.helpers import loop_kernel

LAUNCH = LaunchConfig(grid_blocks=1, block_size=8, params={0: 6})


class TestRegistry:
    def test_reference_is_registered_default(self):
        assert DEFAULT_STRATEGY_ID == "local-spill"
        # Two spill targets, reference first; ``spills_to_shared`` is
        # the one dial that tells them apart.
        assert STRATEGIES == {
            "local-spill": SpillStrategy("local-spill"),
            "smem-spill": SpillStrategy("smem-spill", spills_to_shared=True),
        }
        assert list(STRATEGIES) == ["local-spill", "smem-spill"]

    def test_none_resolves_to_reference_not_env(self, monkeypatch):
        monkeypatch.setenv(STRATEGY_ENV, "smem-spill")
        # Library internals stay pinned to the reference strategy; only
        # entry points (CompileOptions, CLI) consult the environment.
        assert get_strategy(None) is LOCAL_SPILL
        assert default_strategy_id() == "smem-spill"

    def test_env_default_validates(self, monkeypatch):
        for value in ("no-such-strategy", "soft-limit"):
            monkeypatch.setenv(STRATEGY_ENV, value)
            with pytest.raises(ValueError, match="unknown strategy"):
                default_strategy_id()
        monkeypatch.setenv(STRATEGY_ENV, "")
        assert default_strategy_id() == DEFAULT_STRATEGY_ID

    def test_get_strategy_rejects_unknown(self):
        for sid in ("register-banking", "soft-limit"):
            with pytest.raises(ValueError, match="unknown allocation strategy"):
                get_strategy(sid)

    def test_instances_pass_through(self):
        assert get_strategy(SMEM_SPILL) is SMEM_SPILL

    def test_strategy_ids_expansion(self):
        assert strategy_ids("local-spill") == ("local-spill",)
        # Mixed enumerates every registered strategy, reference first.
        assert strategy_ids(MIXED_ID) == ("local-spill", "smem-spill")


class TestSharedSpillAllocation:
    def _squeezed(self, strategy):
        module = loop_kernel()
        budget = minimal_budget(module, "k")[0] - 1
        return module, allocate_module(
            module, "k", budget, block_size=8, strategy=strategy
        )

    def test_outcome_records_the_strategy(self):
        _, outcome = self._squeezed(None)
        assert outcome.strategy == "local-spill"
        assert outcome.smem_spill_slots == 0
        _, outcome = self._squeezed("smem-spill")
        assert outcome.strategy == "smem-spill"

    def test_spills_move_into_the_shared_frame(self):
        module = loop_kernel()
        budget = minimal_budget(module, "k")[0] - 1
        local = allocate_module(module, "k", budget, block_size=8)
        shared = allocate_module(
            module, "k", budget, block_size=8, strategy="smem-spill"
        )
        assert local.spilled_variables > 0
        assert shared.smem_spill_slots > 0
        # Resource accounting follows the spill target: the per-thread
        # shared frame is carved out of the block's shared allowance.
        assert (
            shared.shared_bytes_per_block > local.shared_bytes_per_block
        )

    def test_shared_spills_preserve_semantics(self):
        module, outcome = self._squeezed("smem-spill")
        memory = {i * 4: float(i % 5 + 1) for i in range(64)}
        expected = run_kernel(module, LAUNCH, global_memory=memory)
        actual = run_kernel(outcome.module, LAUNCH, global_memory=memory)
        assert actual == pytest.approx(expected)

    def test_default_path_is_byte_identical_to_pre_strategy_code(self):
        # ``strategy=None`` and the explicit reference id must produce
        # the same allocation, instruction for instruction.
        module = loop_kernel()
        budget = minimal_budget(module, "k")[0] - 1
        a = allocate_module(module, "k", budget, block_size=8)
        b = allocate_module(
            module, "k", budget, block_size=8, strategy="local-spill"
        )
        from repro.isa.encoding import encode_module

        assert encode_module(a.module) == encode_module(b.module)
        assert a.registers_per_thread == b.registers_per_thread
        assert a.local_bytes_per_thread == b.local_bytes_per_thread


class TestMetrics:
    def test_smem_spill_slots_counter_charged(self):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        try:
            module = loop_kernel()
            budget = minimal_budget(module, "k")[0] - 1
            allocate_module(
                module, "k", budget, block_size=8, strategy="smem-spill"
            )
            snapshot = get_registry().snapshot()
            families = {f["name"]: f for f in snapshot["metrics"]}
            family = families["orion_allocator_smem_spill_slots_total"]
            (sample,) = [
                s
                for s in family["samples"]
                if s["labels"].get("strategy") == "smem-spill"
            ]
            assert sample["value"] > 0
        finally:
            reset_registry()

    def test_reference_never_charges_the_counter(self):
        from repro.obs.metrics import get_registry, reset_registry

        reset_registry()
        try:
            module = loop_kernel()
            budget = minimal_budget(module, "k")[0] - 1
            allocate_module(module, "k", budget, block_size=8)
            names = {
                f["name"] for f in get_registry().snapshot()["metrics"]
            }
            assert "orion_allocator_smem_spill_slots_total" not in names
        finally:
            reset_registry()
