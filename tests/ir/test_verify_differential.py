"""The bitmask slot liveness against the set-based oracle.

``tests/ir/reference_verify.py`` keeps the verifier's former storage
liveness, a fixpoint and a reporting walk over sets of values.  Here
both verify the same allocated modules and must report the same issues
(compared as sorted ``str`` lists; see the oracle's docstring for why
the order may differ):

* the clean corpus — every version of the 14 benchmark kernels compiled
  for four architectures under three strategies — verifies clean under
  both;
* a hypothesis corpus takes an allocated version of a benchmark kernel
  or of a generated module of any fuzz shape, applies one seeded
  corruption, and compares the two reports.

The corruptions are the allocator bugs the slot liveness exists to
catch: a write moved onto a slot that overlaps a live value, a restore
``MOV`` dropped after a call, and a spill store pointed at a live
slot's offset.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.arch import GTX680, GTX980, GTX1080, TESLA_C2075
from repro.bench.kernels import BENCHMARKS
from repro.fuzz.generator import SHAPES, generate_module
from repro.harness.experiments import compiled
from repro.ir.function import Module
from repro.ir.verify import verify_module
from repro.isa.instructions import MemSpace, Opcode
from repro.isa.registers import PhysReg, required_alignment
from repro.regalloc.allocator import (
    AllocationOutcome,
    BudgetError,
    allocate_module,
)
from tests.ir.reference_verify import reference_verify_module

ARCHES = (GTX680, TESLA_C2075, GTX980, GTX1080)
STRATEGIES = ("local-spill", "smem-spill", "mixed")


def _versions(binary):
    """Each distinct allocation of a binary (padded versions share one)."""
    seen: set[int] = set()
    out = []
    for version in (*binary.versions, *binary.failsafe):
        if id(version.module) not in seen:
            seen.add(id(version.module))
            out.append(version)
    return out


def _both(
    module: Module, reg_budget: int, interproc
) -> tuple[list[str], list[str]]:
    kwargs = dict(physical=True, reg_budget=reg_budget, interproc=interproc)
    return (
        sorted(map(str, verify_module(module, **kwargs))),
        sorted(map(str, reference_verify_module(module, **kwargs))),
    )


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_clean_corpus_verifies_clean_under_both(name):
    for arch in ARCHES:
        for strategy in STRATEGIES:
            binary = compiled(BENCHMARKS[name], arch, strategy=strategy)
            for version in _versions(binary):
                reports = _both(
                    version.module,
                    version.regs_per_thread,
                    version.outcome.interproc,
                )
                assert reports == ([], []), (
                    f"{name} {arch.name} {strategy} {version.label}"
                )


# ----------------------------------------------------------------------
# Corruptions: each edits a copy of a function and says whether it
# found anything to corrupt.
# ----------------------------------------------------------------------
def _retarget_write(module: Module, interproc, rng: random.Random) -> bool:
    """Move a write onto a slot overlapping a register read later in the
    block, with no exact redefinition of that register in between."""
    candidates = []
    for fn in module.functions.values():
        for block in fn.ordered_blocks():
            insts = block.instructions
            for j, reader in enumerate(insts):
                for reg in reader.srcs:
                    if not isinstance(reg, PhysReg):
                        continue
                    for i in range(j - 1, -1, -1):
                        dst = insts[i].dst
                        if isinstance(dst, PhysReg) and dst != reg:
                            candidates.append((insts[i], reg))
                        if dst == reg:
                            break
    rng.shuffle(candidates)
    for writer, reg in candidates:
        # Keep the write's width unless that would make it the exact
        # register read later (a redefinition, not a clobber).
        slot = rng.choice(list(reg.slots))
        for width in (writer.dst.width, 2, 1):
            moved = PhysReg(slot - slot % required_alignment(width), width)
            if moved != reg:
                break
        if moved != writer.dst:
            writer.dst = moved
            return True
    return False


def _drop_restore(module: Module, interproc, rng: random.Random) -> bool:
    """Delete the restore MOV of one planned compressible-stack save."""
    if interproc is None:
        return False
    choices = [
        (name, plan, save)
        for name, plans in sorted(interproc.plans.items())
        for plan in plans
        for save in plan.saves
    ]
    if not choices:
        return False
    name, plan, (var, from_rel, to_rel) = rng.choice(choices)
    base = interproc.bases[name]
    insts = module.functions[name].blocks[plan.block].instructions
    restore = (
        PhysReg(base + from_rel, var.width),
        [PhysReg(base + to_rel, var.width)],
    )
    calls = [i for i, inst in enumerate(insts) if inst.is_call]
    after = calls[0] if calls else 0
    for i in range(after, len(insts)):
        inst = insts[i]
        if inst.opcode is Opcode.MOV and (inst.dst, inst.srcs) == restore:
            del insts[i]
            return True
    return False


def _redirect_spill_store(
    module: Module, interproc, rng: random.Random
) -> bool:
    """Point a static local/shared store at (or across) the offset of a
    slot some static load of the same function reads."""
    tracked = (MemSpace.LOCAL, MemSpace.SHARED)
    functions = list(module.functions.values())
    for fn in rng.sample(functions, len(functions)):
        stores, loads = [], []
        for inst in fn.instructions():
            if inst.space not in tracked:
                continue
            if inst.opcode is Opcode.ST and len(inst.srcs) == 1:
                stores.append(inst)
            elif inst.opcode is Opcode.LD and not inst.srcs:
                loads.append(inst)
        pairs = [
            (store, load)
            for store in stores
            for load in loads
            if load.space is store.space
        ]
        if not pairs:
            continue
        store, load = rng.choice(pairs)
        value = store.srcs[0]
        store_bytes = 4 * (value.width if isinstance(value, PhysReg) else 1)
        # Every shift in this range keeps the two byte ranges
        # overlapping; 0 hits the slot's own offset.
        shifts = range(1 - store_bytes, 4 * load.dst.width)
        off_slot = [shift for shift in shifts if shift]
        if load.offset == store.offset:
            shift = rng.choice(off_slot)
        else:
            shift = rng.choice([0, rng.choice(off_slot)])
        store.offset = max(0, load.offset + shift)
        return True
    return False


CORRUPT = {
    "retarget_write": _retarget_write,
    "drop_restore": _drop_restore,
    "redirect_spill_store": _redirect_spill_store,
}

#: register budgets an allocation is attempted at, lowest first
BUDGETS = (8, 12, 16, 24, 32, 63)

_ALLOCATIONS: dict[tuple, tuple[int, AllocationOutcome]] = {}


def _allocation(source: tuple, budget: int, strategy: str, movement: bool):
    """The source allocated at the first budget from ``budget`` up that
    fits; ``movement=False`` keeps the identity stack layout, whose
    call sites need save/restore pairs."""
    key = (source, budget, strategy, movement)
    if key not in _ALLOCATIONS:
        kind, name, seed = source
        for attempt in (b for b in BUDGETS if b >= budget):
            if kind == "bench":
                module = BENCHMARKS[name].build()
                kernel = module.kernel().name
            else:
                module, kernel = generate_module(seed, name), "k"
            try:
                outcome = allocate_module(
                    module, kernel, attempt, strategy=strategy,
                    movement_minimization=movement,
                )
            except BudgetError:
                continue
            _ALLOCATIONS[key] = (attempt, outcome)
            break
        else:
            raise AssertionError(f"{source} fits none of {BUDGETS}")
    return _ALLOCATIONS[key]


def _corrupted_reports(allocation, kind: str, pick: int):
    budget, outcome = allocation
    module = outcome.module.copy()
    applied = CORRUPT[kind](module, outcome.interproc, random.Random(pick))
    return applied, _both(module, budget, outcome.interproc)


sources = st.one_of(
    st.tuples(
        st.just("bench"), st.sampled_from(sorted(BENCHMARKS)), st.just(0)
    ),
    st.tuples(
        st.just("fuzz"),
        st.sampled_from(SHAPES),
        st.integers(min_value=0, max_value=9),
    ),
)


@given(
    source=sources,
    budget=st.sampled_from(BUDGETS[:4]),
    strategy=st.sampled_from(("local-spill", "smem-spill")),
    movement=st.booleans(),
    kind=st.sampled_from(sorted(CORRUPT)),
    pick=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_corrupted_allocations_report_what_the_oracle_reports(
    source, budget, strategy, movement, kind, pick
):
    # Optimised layouts rarely need saves; the identity layout does.
    movement = movement and kind != "drop_restore"
    allocation = _allocation(source, budget, strategy, movement)
    applied, (bitmask, oracle) = _corrupted_reports(allocation, kind, pick)
    event(f"{kind}: {'applied' if applied else 'nothing to corrupt'}")
    event("issues reported" if bitmask else "clean")
    assert bitmask == oracle


@pytest.mark.parametrize(
    "kind, phrase",
    [
        ("retarget_write", "clobbers"),
        ("drop_restore", "register window"),
        ("redirect_spill_store", "clobbers live value"),
    ],
)
def test_every_corruption_kind_is_caught_somewhere(kind, phrase):
    """The corpus is not vacuous: each corruption makes both verifiers
    report a storage-liveness issue on some benchmark allocation."""
    for name in ("srad", "cfd", "heartwall", "dxtc"):
        for budget in (8, 12):
            allocation = _allocation(
                ("bench", name, 0), budget, "local-spill", False
            )
            for pick in range(8):
                applied, (bitmask, oracle) = _corrupted_reports(
                    allocation, kind, pick
                )
                assert bitmask == oracle
                if applied and any(phrase in issue for issue in bitmask):
                    return
    pytest.fail(f"no {kind} corruption was reported")
