"""The prepared form one compile shares between its allocations.

Every allocation of a compile copies one :class:`PreparedModule` and
starts each function's first colouring round from its shared
interference graph.  So no allocation may change either: allocating
from the prepared form, at any budget and in any order, must give the
bytes a freshly built module gives, and leave the form as built.
"""

import random

import pytest

from repro.bench.kernels import BENCHMARKS
from repro.ir.interference import build_interference
from repro.isa.encoding import encode_module
from repro.regalloc import allocator
from repro.regalloc.allocator import (
    BudgetError,
    PreparedModule,
    allocate_module,
    prepare,
)


def graph_state(graph):
    return (
        list(graph.regs),
        list(graph.fwd),
        list(graph.rev),
        list(graph.degree),
        list(graph.edges),
        dict(graph.by_width),
    )


def result(module, kernel, budget, smem, strategy):
    """An allocation's bytes and resource bill, or its error."""
    try:
        outcome = allocate_module(
            module,
            kernel,
            budget,
            block_size=64,
            smem_spill_budget_per_thread=smem,
            strategy=strategy,
        )
    except BudgetError as exc:
        return str(exc)
    return (
        encode_module(outcome.module),
        outcome.registers_per_thread,
        outcome.shared_bytes_per_block,
        outcome.local_bytes_per_thread,
        outcome.spilled_variables,
        outcome.smem_spill_slots,
    )


@pytest.mark.parametrize("strategy", ["local-spill", "smem-spill"])
def test_prepared_form_is_read_only(strategy):
    build = BENCHMARKS["srad"].build
    module = build()
    kernel = module.kernel().name
    prepared = PreparedModule(module, kernel)
    assert len(prepared.reachable) > 1  # device functions are shared too
    text = str(prepared.module)
    graphs = {name: prepared.graph(name) for name in prepared.reachable}
    built = {name: graph_state(graph) for name, graph in graphs.items()}

    floor = prepared.max_live(share_copies=True)
    # Budgets that spill, the spill-free floor, and one above it; with
    # and without a shared-memory promotion allowance.
    runs = [
        (budget, smem)
        for budget in range(floor - 10, floor + 2, 2)
        for smem in (0, 16)
    ]
    random.Random(7).shuffle(runs)
    spilled = 0
    for budget, smem in runs:
        got = result(prepared, kernel, budget, smem, strategy)
        assert got == result(build(), kernel, budget, smem, strategy)
        spilled += not isinstance(got, str) and got[4] > 0

    assert spilled  # the shared graphs were coloured under pressure
    assert str(prepared.module) == text
    for name, graph in graphs.items():
        assert prepared.graph(name) is graph
        assert graph_state(graph) == built[name]


def test_shared_graph_only_while_the_function_is_unchanged(monkeypatch):
    """A colouring round gets the shared graph only while its function
    is still in the prepared form.  Once spill code, coalescing or
    shared promotion has changed the function, the round builds its
    own: after promotion, and when a tighter budget re-colours it."""
    module = BENCHMARKS["srad"].build()
    kernel = module.kernel().name
    prepared = PreparedModule(module, kernel)
    rounds = []
    real = allocator._allocate_function

    def spy(work, name, budget, spill_state, graph=None):
        current = build_interference(work.functions[name])
        shared = prepared.graph(name)
        changed = (current.regs, current.fwd) != (shared.regs, shared.fwd)
        rounds.append((graph is not None, changed))
        assert graph is None or graph is shared
        return real(work, name, budget, spill_state, graph)

    monkeypatch.setattr(allocator, "_allocate_function", spy)
    floor = prepared.max_live(share_copies=True)
    # Spills promoted to shared memory, then re-coloured; and, at 4
    # registers, the kernel squeezed below its callees' window and
    # re-coloured under a tighter budget.
    for budget, smem, strategy in (
        (floor - 6, 16, "local-spill"),
        (4, 0, "smem-spill"),
    ):
        allocate_module(
            prepared, kernel, budget, block_size=64,
            smem_spill_budget_per_thread=smem, strategy=strategy,
        )
    assert (True, True) not in rounds
    assert (False, True) in rounds  # a changed function was re-coloured


def test_prepare_returns_a_prepared_form_as_is():
    module = BENCHMARKS["srad"].build()
    kernel = module.kernel().name
    prepared = prepare(module, kernel)
    assert prepare(prepared, kernel) is prepared
    with pytest.raises(ValueError, match="prepared for"):
        prepare(prepared, "diffuse")
