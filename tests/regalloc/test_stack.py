"""Compressible-stack math: Theorem 1 weights, optimal layout, packing."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.registers import VirtualReg
from repro.regalloc.stack import (
    Cluster,
    build_clusters,
    count_total_moves,
    movement_row,
    movement_weight,
    optimal_layout,
    packed_height,
)


def v(i, w=1):
    return VirtualReg(i, w)


def make_clusters(n):
    return [
        Cluster(cid=i, base=i, width=1, vars=[v(i)]) for i in range(n)
    ]


class TestBuildClusters:
    def test_singles(self):
        coloring = {v(0): 0, v(1): 1, v(2): 0}
        clusters = build_clusters(coloring)
        assert len(clusters) == 2
        assert {c.base for c in clusters} == {0, 1}
        by_base = {c.base: c for c in clusters}
        assert set(by_base[0].vars) == {v(0), v(2)}

    def test_wide_merges_slots(self):
        coloring = {v(0, 2): 0, v(1): 1}
        clusters = build_clusters(coloring)
        # slot 1 is shared by the wide var and the single: one cluster.
        assert len(clusters) == 1
        assert clusters[0].width == 2

    def test_disjoint_wide(self):
        coloring = {v(0, 2): 0, v(1): 2}
        clusters = build_clusters(coloring)
        assert len(clusters) == 2
        widths = sorted(c.width for c in clusters)
        assert widths == [1, 2]

    def test_empty(self):
        assert build_clusters({}) == []


class TestMovementWeight:
    def test_paper_theorem1(self):
        """C_ijk = 1 iff live at k and position >= B_k."""
        c = Cluster(cid=0, base=0, width=1, vars=[v(0)])
        live = [True, False, True]
        heights = [2, 2, 4]
        # position 1: below every B_k -> no moves.
        assert movement_weight(c, 1, live, heights) == 0
        # position 2: >= B_0 (live) and < B_2 -> 1 move.
        assert movement_weight(c, 2, live, heights) == 1
        # position 5: >= B_0 and >= B_2, live at both -> 2 moves.
        assert movement_weight(c, 5, live, heights) == 2
        # dead at site 1 regardless of position.
        assert movement_weight(c, 5, [False, False, False], heights) == 0

    def test_wide_cluster_costs_width(self):
        c = Cluster(cid=0, base=0, width=2, vars=[v(0, 2)])
        assert movement_weight(c, 3, [True], [4]) == 2
        # straddling B_k still forces a move.
        assert movement_weight(c, 3, [True], [4]) == 2
        assert movement_weight(c, 2, [True], [4]) == 0


class TestMovementRow:
    @given(
        width=st.integers(min_value=1, max_value=4),
        positions=st.lists(
            st.integers(min_value=0, max_value=40), max_size=12
        ),
        sites=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
            max_size=10,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_bisection_equals_the_definition(self, width, positions, sites):
        cluster = Cluster(cid=0, base=0, width=width, vars=[v(0, width)])
        live = [is_live for is_live, _ in sites]
        heights = [bk for _, bk in sites]
        assert movement_row(cluster, positions, live, heights) == [
            movement_weight(cluster, pos, live, heights) for pos in positions
        ]


class TestOptimalLayout:
    def _moves(self, layout, clusters, live, heights):
        return count_total_moves(clusters, layout, live, heights)

    def test_paper_figure6_example(self):
        """Fig. 6: reordering slots drops 3 movements to 1.

        Four variable sets; three call sites.  In layout (a) three moves
        happen; the optimal relabelling achieves 1 (matching the paper's
        narrative for var1/var2/var3/var5 with var4 arriving late).
        """
        # Sets: S1=var1 (live at all calls), S2=var3 then var4,
        # S3=var2, S4=var5 (live at calls 1 and 2).
        clusters = make_clusters(4)
        live = {
            0: [True, True, True],  # var1: live everywhere
            1: [True, False, True],  # var3 / var4
            2: [False, True, False],  # var2
            3: [True, True, False],  # var5
        }
        heights = [3, 3, 2]  # callee windows demanded at the three calls
        identity = {c.cid: c.base for c in clusters}
        optimal = optimal_layout(clusters, live, heights, 4)
        id_cost = self._moves(identity, clusters, live, heights)
        opt_cost = self._moves(optimal, clusters, live, heights)
        assert opt_cost <= id_cost
        assert opt_cost == 1

    def test_layout_is_injective(self):
        clusters = make_clusters(5)
        live = {i: [True] for i in range(5)}
        layout = optimal_layout(clusters, live, [3], 5)
        positions = list(layout.values())
        assert len(set(positions)) == len(positions)

    def test_movement_minimization_off_is_identity(self):
        clusters = make_clusters(3)
        live = {i: [True] for i in range(3)}
        layout = optimal_layout(clusters, live, [1], 3, minimize_movement=False)
        assert layout == {0: 0, 1: 1, 2: 2}

    def test_optimal_never_worse_than_any_permutation(self):
        """KM layout beats or ties brute force over all permutations."""
        clusters = make_clusters(5)
        live = {
            0: [True, True],
            1: [False, True],
            2: [True, False],
            3: [True, True],
            4: [False, False],
        }
        heights = [2, 3]
        optimal = optimal_layout(clusters, live, heights, 5)
        opt_cost = self._moves(optimal, clusters, live, heights)
        best = min(
            self._moves(
                {c.cid: p for c, p in zip(clusters, perm)},
                clusters,
                live,
                heights,
            )
            for perm in itertools.permutations(range(5))
        )
        assert opt_cost == best

    @given(
        n=st.integers(min_value=1, max_value=6),
        sites=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_instances_match_brute_force(self, n, sites, seed):
        import random

        rng = random.Random(seed)
        clusters = make_clusters(n)
        live = {
            i: [rng.random() < 0.5 for _ in range(sites)] for i in range(n)
        }
        heights = [rng.randint(0, n) for _ in range(sites)]
        optimal = optimal_layout(clusters, live, heights, n)
        opt_cost = self._moves(optimal, clusters, live, heights)
        best = min(
            self._moves(
                {c.cid: p for c, p in zip(clusters, perm)},
                clusters,
                live,
                heights,
            )
            for perm in itertools.permutations(range(n))
        )
        assert opt_cost == best


    @given(
        n=st.integers(min_value=2, max_value=6),
        sites=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=50, deadline=None)
    def test_pinned_cluster_stays_and_the_rest_match_brute_force(
        self, n, sites, seed
    ):
        """A pinned argument slot keeps its base; the other clusters
        still get the cheapest of all placements around it."""
        import random

        rng = random.Random(seed)
        clusters = make_clusters(n)
        live = {
            i: [rng.random() < 0.5 for _ in range(sites)] for i in range(n)
        }
        heights = [rng.randint(0, n) for _ in range(sites)]
        pin = rng.randrange(n)
        layout = optimal_layout(
            clusters, live, heights, n, pinned={pin: pin}
        )
        assert layout[pin] == pin
        assert sorted(layout.values()) == list(range(n))
        others = [c for c in clusters if c.cid != pin]
        free = [p for p in range(n) if p != pin]
        best = min(
            self._moves(
                {pin: pin, **{c.cid: p for c, p in zip(others, perm)}},
                clusters,
                live,
                heights,
            )
            for perm in itertools.permutations(free)
        )
        assert self._moves(layout, clusters, live, heights) == best


class TestPackedHeight:
    def test_singles(self):
        assert packed_height([(1, 1)] * 3 ) == 3

    def test_empty(self):
        assert packed_height([]) == 0

    def test_wide_alignment_padding(self):
        # One single + one 64-bit: the pair packs into 4 slots at worst
        # (w2 at 0..1, single at 2) -> height 3.
        assert packed_height([(2, 2), (1, 1)]) == 3

    def test_quad(self):
        assert packed_height([(4, 4), (1, 1), (1, 1)]) == 6

    @given(
        st.lists(
            st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 4), (4, 4)]),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_first_fit_of_every_value(self, values):
        """Counting the single slots gives the height placing each one
        first-fit would."""
        taken: list[bool] = []
        by_size = sorted(values, key=lambda wa: (-wa[0], -wa[1]))
        for width, alignment in by_size:
            pos = 0
            while pos % alignment or any(taken[pos : pos + width]):
                pos += 1
            taken.extend([False] * (pos + width - len(taken)))
            taken[pos : pos + width] = [True] * width
        assert packed_height(values) == len(taken)
