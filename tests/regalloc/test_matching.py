"""Kuhn–Munkres tests, cross-checked against scipy and brute force.

The zero-cost search must return the general solver's exact list, not
just an assignment of the same cost: the allocator's slot layout, and
so the binary, follows the list.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

# scipy is only a cost oracle here; the matcher never imports it.
try:
    import numpy as np
    from scipy.optimize import linear_sum_assignment
except ImportError:  # pragma: no cover - scipy is in the test extra
    np = None
    linear_sum_assignment = None

from repro.arch import GTX680
from repro.bench.kernels import BENCHMARKS
from repro.compiler.pipeline import CompileOptions, compile_binary
from repro.regalloc import matching
from repro.regalloc.matching import (
    INFINITY,
    _kuhn_munkres,
    _zero_cost_search,
    assignment_weight,
    max_weight_assignment,
    min_cost_assignment,
)


class TestSmallCases:
    def test_identity(self):
        cost = [[0.0, 1.0], [1.0, 0.0]]
        assert min_cost_assignment(cost) == [0, 1]

    def test_swap(self):
        cost = [[5.0, 1.0], [1.0, 5.0]]
        assert min_cost_assignment(cost) == [1, 0]

    def test_empty(self):
        assert min_cost_assignment([]) == []

    def test_single(self):
        assert min_cost_assignment([[3.0]]) == [0]

    def test_rectangular_rows_less_than_columns(self):
        cost = [[9.0, 1.0, 9.0], [9.0, 9.0, 1.0]]
        assert min_cost_assignment(cost) == [1, 2]

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValueError):
            min_cost_assignment([[1.0], [2.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            min_cost_assignment([[1.0, 2.0], [1.0]])

    def test_max_weight_negates(self):
        weights = [[5.0, 1.0], [1.0, 5.0]]
        assert max_weight_assignment(weights) == [0, 1]


class TestDegenerateShapes:
    def test_all_zero_costs(self):
        cost = [[0.0] * 4 for _ in range(3)]
        assign = min_cost_assignment(cost)
        assert len(set(assign)) == 3
        assert all(0 <= j < 4 for j in assign)
        assert assignment_weight(cost, assign) == 0.0

    def test_all_zero_weights_max(self):
        weights = [[0.0] * 3 for _ in range(3)]
        assign = max_weight_assignment(weights)
        assert sorted(assign) == [0, 1, 2]
        assert assignment_weight(weights, assign) == 0.0

    def test_single_row_picks_cheapest_column(self):
        assert min_cost_assignment([[7.0, 3.0, 5.0]]) == [1]

    def test_single_row_max_picks_heaviest_column(self):
        assert max_weight_assignment([[7.0, 3.0, 5.0]]) == [0]

    def test_single_cell(self):
        assert min_cost_assignment([[4.0]]) == [0]
        assert max_weight_assignment([[4.0]]) == [0]

    def test_every_small_rectangular_instance(self):
        """Exhaustive 2×3 sweep over a small value alphabet."""
        values = (0.0, 1.0, 2.0)
        for flat in itertools.product(values, repeat=6):
            cost = [list(flat[:3]), list(flat[3:])]
            best, _ = _brute_force_min(cost)
            assign = min_cost_assignment(cost)
            assert len(set(assign)) == 2
            total = sum(cost[i][assign[i]] for i in range(2))
            assert total == pytest.approx(best), cost


def _brute_force_min(cost):
    n, m = len(cost), len(cost[0])
    best, best_assign = float("inf"), None
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best:
            best, best_assign = total, list(perm)
    return best, best_assign


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=50), min_size=n, max_size=n
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_matches_brute_force(cost):
    cost = [[float(c) for c in row] for row in cost]
    best, _ = _brute_force_min(cost)
    assign = min_cost_assignment(cost)
    assert len(set(assign)) == len(assign)  # injective
    total = sum(cost[i][assign[i]] for i in range(len(cost)))
    assert total == pytest.approx(best)


@pytest.mark.skipif(np is None, reason="needs numpy + scipy")
@given(
    n=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_matches_scipy(n, m, seed):
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, 1000, size=(n, n + m)).astype(float)
    assign = min_cost_assignment(cost.tolist())
    rows, cols = linear_sum_assignment(cost)
    ours = sum(cost[i][assign[i]] for i in range(n))
    theirs = cost[rows, cols].sum()
    assert ours == pytest.approx(theirs)


def test_assignment_weight_helper():
    weights = [[2.0, 0.0], [0.0, 3.0]]
    assert assignment_weight(weights, [0, 1]) == 5.0


class TestForbiddenEdges:
    """Infinite-cost edges model forbidden pairings (e.g. a pinned
    cluster that must not move); a row with no finite column left must
    fail loudly, not corrupt the matching via ``match[-1]``."""

    def test_all_infinite_row_raises(self):
        inf = float("inf")
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment([[inf, inf], [1.0, inf]])

    def test_infeasibility_found_mid_augmentation_raises(self):
        # Both rows only afford column 0: the second augmenting path
        # runs out of finite columns after displacing the first row.
        inf = float("inf")
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment([[1.0, inf], [1.0, inf]])

    def test_feasible_despite_forbidden_edges(self):
        inf = float("inf")
        assert min_cost_assignment([[inf, 1.0], [1.0, inf]]) == [1, 0]

    def test_max_weight_with_forbidden_edges_raises(self):
        ninf = -float("inf")
        with pytest.raises(ValueError, match="infeasible"):
            max_weight_assignment([[ninf, ninf], [1.0, 2.0]])


def _outcome(solve, cost):
    """The assignment, or the ValueError's text."""
    try:
        return solve(cost)
    except ValueError as exc:
        return str(exc)


_NAN = float("nan")
# Movement counts (the allocator's regime) and matrices the search must
# hand to the general solver: negative entries and NaN.
_CELLS = (
    (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, INFINITY),
    (0.0, 0.0, 0.0, -0.0, 1.0, 2.0, INFINITY, -1.0, _NAN),
)


@st.composite
def _mostly_zero_matrices(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, n + 4))
    cell = st.sampled_from(draw(st.sampled_from(_CELLS)))
    return [[draw(cell) for _ in range(m)] for _ in range(n)]


class TestZeroCostSearch:
    """``min_cost_assignment`` against the general solver it stands in for."""

    @given(_mostly_zero_matrices())
    @settings(max_examples=400, deadline=None)
    def test_same_list_or_error_as_the_general_solver(self, cost):
        assert _outcome(min_cost_assignment, cost) == _outcome(
            _kuhn_munkres, cost
        )

    @pytest.mark.parametrize(
        "cost, expected",
        [
            # Row 1 takes column 0 from row 0, which moves on to column 1.
            ([[0.0, 0.0, 5.0], [0.0, 5.0, 5.0]], [1, 0]),
            ([[0.0] * 4 for _ in range(4)], [0, 1, 2, 3]),  # all tied
        ],
    )
    def test_answers_in_the_zero_cost_regime(self, cost, expected):
        assert _zero_cost_search(cost) == _kuhn_munkres(cost) == expected

    @pytest.mark.parametrize(
        "cost",
        [
            [[1.0, 2.0]],  # no zero-cost column: the potentials move
            [[0.0, 1.0], [0.0, 1.0]],  # row 1's only zero is taken
            [[0.0, -1.0]],
            [[0.0, _NAN]],
            [[INFINITY, INFINITY]],
        ],
    )
    def test_hands_over_where_the_potentials_would_move(self, cost):
        assert _zero_cost_search(cost) is None
        assert _outcome(min_cost_assignment, cost) == _outcome(
            _kuhn_munkres, cost
        )


def test_benchmark_compiles_match_the_general_solver(monkeypatch):
    """Every matcher call of the 14 GTX680 compiles, checked call by call."""
    calls = []
    solve = matching.min_cost_assignment

    def checked(cost):
        assign = solve(cost)
        calls.append(_zero_cost_search(cost) is not None)
        assert assign == _kuhn_munkres(cost)
        return assign

    monkeypatch.setattr(matching, "min_cost_assignment", checked)
    for spec in BENCHMARKS.values():
        module = spec.build()
        compile_binary(
            module,
            module.kernel().name,
            CompileOptions(
                arch=GTX680,
                block_size=spec.workload.block_size,
                can_tune=spec.workload.can_tune,
            ),
            use_cache=False,
        )
    assert calls and all(calls)  # the search answered every call
