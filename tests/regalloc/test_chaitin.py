"""Fig. 4 allocator tests: validity, wide variables, spilling, precolour."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.interference import InterferenceGraph, build_interference
from repro.isa.registers import VirtualReg, is_aligned, required_alignment
from repro.regalloc import chaitin
from repro.regalloc.chaitin import color_graph
from tests.helpers import module_from_asm
from tests.regalloc.reference_chaitin import (
    neighbor_lists,
    reference_color_graph,
    reference_stack_order,
)


def v(i, w=1):
    return VirtualReg(i, w)


def graph_from_edges(nodes, edges):
    """An undirected graph: each edge recorded once, in one direction."""
    ids = {node: i for i, node in enumerate(nodes)}
    fwd = [0] * len(nodes)
    for a, b in edges:
        i, j = ids[a], ids[b]
        if i != j and not fwd[j] >> i & 1:
            fwd[i] |= 1 << j
    return InterferenceGraph(nodes, fwd)


def assert_valid(graph, result, num_colors, align=True):
    for var, base in result.coloring.items():
        assert 0 <= base
        assert base + var.width <= num_colors
        if align:
            assert is_aligned(base, var.width), f"{var} at {base} misaligned"
    for a in result.coloring:
        for b in graph.neighbors(a):
            if b not in result.coloring:
                continue
            ra = set(result.occupied_slots(a))
            rb = set(result.occupied_slots(b))
            assert not (ra & rb), f"{a} and {b} overlap"


class TestBasicColoring:
    def test_empty_graph(self):
        result = color_graph(InterferenceGraph(), 4)
        assert result.coloring == {} and result.spilled == []

    def test_independent_nodes_share_slot_zero(self):
        g = graph_from_edges([v(0), v(1), v(2)], [])
        result = color_graph(g, 4)
        assert set(result.coloring.values()) == {0}

    def test_triangle_needs_three(self):
        nodes = [v(0), v(1), v(2)]
        g = graph_from_edges(nodes, itertools.combinations(nodes, 2))
        result = color_graph(g, 3)
        assert not result.spilled
        assert_valid(g, result, 3)
        assert len(set(result.coloring.values())) == 3

    def test_triangle_with_two_colors_spills(self):
        nodes = [v(0), v(1), v(2)]
        g = graph_from_edges(nodes, itertools.combinations(nodes, 2))
        result = color_graph(g, 2)
        assert len(result.spilled) == 1
        assert_valid(g, result, 2)

    def test_chain_two_colors(self):
        nodes = [v(i) for i in range(10)]
        edges = [(nodes[i], nodes[i + 1]) for i in range(9)]
        result = color_graph(graph_from_edges(nodes, edges), 2)
        assert not result.spilled

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            color_graph(InterferenceGraph(), 0)


class TestWideVariables:
    def test_wide_gets_aligned_base(self):
        a, b = v(0, 2), v(1, 1)
        g = graph_from_edges([a, b], [(a, b)])
        result = color_graph(g, 4)
        assert not result.spilled
        assert result.coloring[a] % 2 == 0

    def test_quad_alignment(self):
        a, b = v(0, 4), v(1, 1)
        g = graph_from_edges([a, b], [(a, b)])
        result = color_graph(g, 8)
        assert result.coloring[a] % 4 == 0

    def test_interfering_wides_disjoint(self):
        a, b, c = v(0, 2), v(1, 2), v(2, 2)
        g = graph_from_edges([a, b, c], itertools.combinations([a, b, c], 2))
        result = color_graph(g, 6)
        assert not result.spilled
        assert_valid(g, result, 6)

    def test_wide_spills_when_fragmented(self):
        # Three singles pinned by mutual interference with a w2: in 3
        # slots a w2 plus two interfering singles cannot all fit.
        a = v(0, 2)
        b, c = v(1), v(2)
        g = graph_from_edges([a, b, c], [(a, b), (a, c), (b, c)])
        result = color_graph(g, 3)
        assert result.spilled
        assert_valid(g, result, 3)

    def test_alignment_disabled(self):
        a, b = v(0, 2), v(1, 1)
        g = graph_from_edges([a, b], [(a, b)])
        result = color_graph(g, 3, align_wide=False)
        assert not result.spilled
        assert_valid(g, result, 3, align=False)


class TestPrecolored:
    def test_precolored_kept(self):
        a, b = v(0), v(1)
        g = graph_from_edges([a, b], [(a, b)])
        result = color_graph(g, 4, precolored={a: 2})
        assert result.coloring[a] == 2
        assert result.coloring[b] != 2

    def test_precolored_blocks_neighbors(self):
        a, b, c = v(0), v(1), v(2)
        g = graph_from_edges([a, b, c], [(a, b), (a, c), (b, c)])
        result = color_graph(g, 3, precolored={a: 0, b: 1})
        assert result.coloring[c] == 2

    def test_precolored_out_of_range_rejected(self):
        g = graph_from_edges([v(0)], [])
        with pytest.raises(ValueError):
            color_graph(g, 2, precolored={v(0): 2})

    def test_precolored_misaligned_rejected(self):
        g = graph_from_edges([v(0, 2)], [])
        with pytest.raises(ValueError):
            color_graph(g, 4, precolored={v(0, 2): 1})


class TestMinimumRegisters:
    """The fewest slots a graph colours in: it colours spill-free with
    that many and spills with one fewer."""

    def test_triangle_needs_exactly_three(self):
        nodes = [v(0), v(1), v(2)]
        g = graph_from_edges(nodes, itertools.combinations(nodes, 2))
        assert not color_graph(g, 3).spilled
        assert color_graph(g, 2).spilled

    def test_empty_graph_zero(self):
        result = color_graph(InterferenceGraph(), 1)
        assert not result.spilled and result.slots_used == 0

    def test_wide_clique_counts_slots(self):
        a, b = v(0, 2), v(1, 2)
        g = graph_from_edges([a, b], [(a, b)])
        assert not color_graph(g, 4).spilled
        assert color_graph(g, 3).spilled


def test_graph_left_intact():
    """Colouring only reads the graph: every allocation of a compile
    starts a function's first round from one shared graph, so a
    colouring that spills must leave it as built."""
    from repro.bench.kernels import BENCHMARKS
    from repro.ir.ssa import construct_ssa, destruct_ssa

    fn = BENCHMARKS["FDTD3d"].build().kernel()
    construct_ssa(fn, allow_undef=True)
    destruct_ssa(fn)
    graph = build_interference(fn)
    assert graph.by_width.keys() == {1, 2}  # degree is not edges
    before = (
        list(graph.regs),
        list(graph.fwd),
        list(graph.rev),
        list(graph.degree),
        list(graph.edges),
        dict(graph.by_width),
    )
    result = color_graph(graph, 16)
    assert result.spilled
    assert (
        graph.regs,
        graph.fwd,
        graph.rev,
        graph.degree,
        graph.edges,
        graph.by_width,
    ) == before


class TestDoubleCountedPair:
    """%v0 and %v1.w2 are each live at the other's definition, so the
    build records the pair from both definitions: %v1 sits in both
    ``fwd`` and ``rev`` of %v0.  The stack order counts such a pair
    twice (the fat binaries' digests depend on it); %v2 neighbours %v1
    from one definition only."""

    SOURCE = """
        .module m
        .kernel k shared=0
        BB0:
            S2R %v0, %tid
            LD.global %v1.w2, [%v0]
            IADD %v0, %v0, 4
            ST.global [%v0], %v1.w2
            S2R %v2, %tid
            ST.global [%v2], %v1.w2
            EXIT
        .end
        """

    def _graph(self):
        graph = build_interference(module_from_asm(self.SOURCE).kernel())
        ids = [graph.regs.index(r) for r in (v(0), v(1, 2), v(2))]
        return graph, ids

    def test_pair_recorded_from_both_definitions(self):
        graph, (i0, i1, i2) = self._graph()
        assert graph.fwd[i0] >> i1 & 1 and graph.fwd[i1] >> i0 & 1
        assert graph.fwd[i2] >> i1 & 1 and not graph.rev[i2]

    def test_blocked_starts_at_twice_the_width(self):
        graph, (i0, i1, i2) = self._graph()
        assert graph.degree[i0] == 2 * 2 and graph.edges[i0] == 2
        assert graph.degree[i1] == 2 * 1 + 1 and graph.edges[i1] == 3
        assert graph.degree[i2] == 2

    def test_stack_is_the_oracles(self):
        # Counted twice at 4 colours, %v0 (1 + 4) and %v1 (2 + 3) wait
        # and %v2 goes first; counted once, %v0 would (1 + 2 <= 4).
        graph, (i0, i1, i2) = self._graph()
        nodes, _, nbr_ids, widths = neighbor_lists(graph)
        stack = chaitin._stack_order(graph, [], 4)
        assert stack == reference_stack_order(nodes, nbr_ids, widths, {}, 4)
        assert stack == [i2, i1, i0]
        result = color_graph(graph, 4)
        expected = reference_color_graph(graph, 4)
        assert list(result.coloring.items()) == list(expected.coloring.items())
        assert result.spilled == expected.spilled == []


@given(
    n=st.integers(min_value=1, max_value=14),
    density=st.floats(min_value=0.0, max_value=1.0),
    colors=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    wide=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_random_graphs_always_valid(n, density, colors, seed, wide):
    """Property: any colouring returned is conflict-free, aligned, in range."""
    import random

    rng = random.Random(seed)
    nodes = [
        v(i, rng.choice([1, 1, 1, 2]) if wide else 1) for i in range(n)
    ]
    g = graph_from_edges(
        nodes,
        [e for e in itertools.combinations(nodes, 2) if rng.random() < density],
    )
    result = color_graph(g, colors)
    assert_valid(g, result, colors)
    # Everything is either coloured or spilled, never both.
    colored = set(result.coloring)
    spilled = set(result.spilled)
    assert colored | spilled == set(nodes)
    assert not (colored & spilled)


def _restart_coloring(graph, num_colors, precolored):
    """Reference: the Fig. 4c loop that recoloured the whole stack from
    the top after every spill, instead of carrying on below it."""
    nodes, _, nbr_ids, node_widths = neighbor_lists(graph)
    stack_ids = reference_stack_order(
        nodes, nbr_ids, node_widths, precolored, num_colors
    )
    spilled = []
    pre_slots = [
        (i, precolored[v]) for i, v in enumerate(nodes) if v in precolored
    ]
    steps = [required_alignment(w) for w in node_widths]
    masks = [(1 << w) - 1 for w in node_widths]
    slot_of = [-1] * len(nodes)
    while True:
        for i in range(len(slot_of)):
            slot_of[i] = -1
        for i, base in pre_slots:
            slot_of[i] = base
        failed_pos = -1
        for pos in range(len(stack_ids) - 1, -1, -1):
            i = stack_ids[pos]
            used = 0
            for j in nbr_ids[i]:
                base = slot_of[j]
                if base < 0:
                    continue
                width = node_widths[j]
                if base + width > num_colors:
                    width = num_colors - base
                    if width <= 0:
                        continue
                used |= ((1 << width) - 1) << base
            mask = masks[i]
            slot = -1
            for base in range(0, num_colors - node_widths[i] + 1, steps[i]):
                if not (used >> base) & mask:
                    slot = base
                    break
            if slot < 0:
                failed_pos = pos
                break
            slot_of[i] = slot
        if failed_pos < 0:
            coloring = dict(precolored)
            for pos in range(len(stack_ids) - 1, -1, -1):
                i = stack_ids[pos]
                coloring[nodes[i]] = slot_of[i]
            return coloring, spilled
        spilled.append(nodes[stack_ids[failed_pos]])
        del stack_ids[failed_pos]


@given(
    n=st.integers(min_value=1, max_value=24),
    density=st.floats(min_value=0.0, max_value=1.0),
    colors=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    wide=st.booleans(),
    pinned=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_resumed_coloring_matches_restart_reference(
    n, density, colors, seed, wide, pinned
):
    """Carrying on below a spilled variable gives the colouring and the
    spill list (order included) that restarting from the top gave."""
    import random

    rng = random.Random(seed)
    nodes = [
        v(i, rng.choice([1, 1, 1, 2, 4]) if wide else 1) for i in range(n)
    ]
    g = graph_from_edges(
        nodes,
        [e for e in itertools.combinations(nodes, 2) if rng.random() < density],
    )
    # Pin the first few nodes to consecutive aligned slots, the way the
    # calling convention pins device-function arguments.
    precolored = {}
    cursor = 0
    for node in nodes[:pinned]:
        base = -(-cursor // node.width) * node.width
        if base + node.width > colors:
            break
        precolored[node] = base
        cursor = base + node.width
    result = color_graph(g, colors, precolored=precolored)
    coloring, spilled = _restart_coloring(g, colors, precolored)
    assert list(result.coloring.items()) == list(coloring.items())
    assert result.spilled == spilled
    assert_valid(g, result, colors)
