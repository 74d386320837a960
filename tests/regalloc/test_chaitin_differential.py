"""The bitmask colourer and coalescer against the list-based oracles.

``tests/regalloc/reference_chaitin.py`` keeps the Fig. 4 colourer and
the Briggs coalescer as they were before they ran on the interference
graph's masks.  Every call must agree with its oracle exactly: the
colouring's items in the same order, the spill list in the same order,
the coalesce report (replacements in the same order) and the rewritten
function.  The inputs are

* every colour and coalesce call made while compiling the 14 benchmark
  kernels for four architectures under three strategies, cold;
* hypothesis graphs whose masks hold pairs recorded from both
  definitions, wide values and pinned arguments, coloured directly and
  coalesced against a function of random copies.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import GTX680, GTX980, GTX1080, TESLA_C2075
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.ir.function import Function
from repro.ir.interference import InterferenceGraph
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import VirtualReg
from repro.regalloc import allocator, coalesce
from repro.regalloc.chaitin import color_graph
from repro.regalloc.coalesce import coalesce_moves
from tests.regalloc.reference_chaitin import (
    reference_coalesce_moves,
    reference_color_graph,
)

ARCHES = (GTX680, TESLA_C2075, GTX980, GTX1080)
STRATEGIES = ("local-spill", "smem-spill", "mixed")


def _check_color(graph, num_colors, precolored=None, align_wide=True):
    result = color_graph(graph, num_colors, precolored, align_wide)
    expected = reference_color_graph(
        graph, num_colors, precolored, align_wide
    )
    assert list(result.coloring.items()) == list(expected.coloring.items())
    assert result.spilled == expected.spilled
    return result


def _check_coalesce(fn, graph, num_colors, precolored=None):
    copy = fn.copy()
    report = coalesce_moves(fn, graph, num_colors, precolored)
    expected = reference_coalesce_moves(copy, graph, num_colors, precolored)
    assert (report.merged_pairs, report.removed_moves) == (
        expected.merged_pairs,
        expected.removed_moves,
    )
    assert list(report.replacements.items()) == list(
        expected.replacements.items()
    )
    assert str(fn) == str(copy)
    return report


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_compile_calls_match_the_oracles(name, monkeypatch):
    calls = {"color": 0, "coalesce": 0}

    def color(*args, **kwargs):
        calls["color"] += 1
        return _check_color(*args, **kwargs)

    def coalesce_checked(*args, **kwargs):
        calls["coalesce"] += 1
        return _check_coalesce(*args, **kwargs)

    # The allocator binds color_graph at import and looks coalesce_moves
    # up on each call.
    monkeypatch.setattr(allocator, "color_graph", color)
    monkeypatch.setattr(coalesce, "coalesce_moves", coalesce_checked)
    spec = BENCHMARKS[name]
    for arch in ARCHES:
        for strategy in STRATEGIES:
            module = spec.build()
            options = CompileOptions(
                arch=arch,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
                strategy=strategy,
            )
            compile_binary(
                module, module.kernel().name, options, use_cache=False
            )
    assert calls["color"] >= calls["coalesce"] > 0


def _random_graph(
    rng: random.Random, n: int, density: float, both: float, wide: bool
) -> InterferenceGraph:
    """Nodes %v0..%v(n-1); each edge recorded in one direction, or,
    with probability ``both``, from both definitions."""
    regs = [
        VirtualReg(i, rng.choice([1, 1, 1, 2, 4]) if wide else 1)
        for i in range(n)
    ]
    fwd = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            if rng.random() < both:
                fwd[i] |= 1 << j
                fwd[j] |= 1 << i
            elif rng.random() < 0.5:
                fwd[i] |= 1 << j
            else:
                fwd[j] |= 1 << i
    # Shuffle the numbering so node order and sort order differ, as the
    # build's first-appearance numbering does.
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [0] * n
    for i, mask in enumerate(fwd):
        shuffled[perm[i]] = sum(1 << perm[j] for j in range(n) if mask >> j & 1)
    nodes = [None] * n
    for i, reg in enumerate(regs):
        nodes[perm[i]] = reg
    return InterferenceGraph(nodes, shuffled)


def _pinned(graph: InterferenceGraph, count: int, colors: int) -> dict:
    """Precolour %v0..%v(count-1) that are width 1 to slots 0, 1, ...,
    the way the calling convention pins device-function arguments."""
    pinned = {}
    for reg in sorted(graph.regs, key=lambda r: r.index)[:count]:
        if reg.width == 1 and len(pinned) < colors:
            pinned[reg] = len(pinned)
    return pinned


graph_inputs = dict(
    n=st.integers(min_value=0, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    both=st.floats(min_value=0.0, max_value=1.0),
    wide=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pinned=st.integers(min_value=0, max_value=4),
)


@given(colors=st.integers(min_value=1, max_value=24), **graph_inputs)
@settings(max_examples=200, deadline=None)
def test_random_graphs_color_as_the_oracle(
    colors, n, density, both, wide, seed, pinned
):
    rng = random.Random(seed)
    graph = _random_graph(rng, n, density, both, wide)
    precolored = _pinned(graph, pinned, colors)
    _check_color(graph, colors, precolored)
    _check_color(graph, colors, precolored, align_wide=False)


@given(
    colors=st.integers(min_value=1, max_value=24),
    moves=st.integers(min_value=0, max_value=30),
    **graph_inputs,
)
@settings(max_examples=200, deadline=None)
def test_random_graphs_coalesce_as_the_oracle(
    colors, moves, n, density, both, wide, seed, pinned
):
    rng = random.Random(seed)
    graph = _random_graph(rng, n, density, both, wide)
    precolored = _pinned(graph, pinned, colors)
    fn = Function("f", is_kernel=False, num_args=len(precolored))
    block = fn.add_block()
    # Copies among the graph's nodes, now and then of a register the
    # graph lacks, with chains and repeats (a copy of a copy).
    pool = list(graph.regs) + [VirtualReg(n + k, 1) for k in range(3)]
    for _ in range(moves):
        dst = rng.choice(pool)
        src = rng.choice([r for r in pool if r.width == dst.width])
        block.instructions.append(Instruction(Opcode.MOV, dst, [src]))
    block.instructions.append(Instruction(Opcode.RET))
    _check_coalesce(fn, graph, colors, precolored)
