"""Differential tests: the matcher vs. scipy's LAPJV solver.

scipy's ``linear_sum_assignment`` (Jonker–Volgenant) is an independent
implementation of the same problem and serves only as an oracle here;
the matcher never imports it.  Random matrices can tie, so against it
we assert validity and optimal cost; the exact list is checked against
the general Kuhn–Munkres solver in ``test_matching.py``.  Matrices are
drawn from the allocator's regime (non-negative, mostly zero, answered
by the zero-cost search) and from signed integers (handed to the
general solver).
"""

from __future__ import annotations

import pytest

from repro.regalloc.matching import (
    INFINITY,
    _kuhn_munkres,
    assignment_weight,
    min_cost_assignment,
)

hypothesis = pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")
linear_sum_assignment = pytest.importorskip(
    "scipy.optimize"
).linear_sum_assignment

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_CELLS = (
    st.sampled_from((0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0)),  # movement counts
    st.integers(-50, 50).map(float),
)


def _matrix(min_rows=1, max_rows=8, extra_cols=0):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_rows, max_rows))
        m = draw(st.integers(n, n + extra_cols))
        cell = draw(st.sampled_from(_CELLS))
        return [[draw(cell) for _ in range(m)] for _ in range(n)]

    return build()


def _lapjv_cost(cost):
    """The optimal cost by LAPJV, or None where it finds no assignment."""
    matrix = np.array(cost, dtype=float)
    try:
        rows, cols = linear_sum_assignment(matrix)
    except ValueError:  # "cost matrix is infeasible"
        return None
    return float(matrix[rows, cols].sum())


def _check_equivalent(cost):
    assign = min_cost_assignment(cost)
    assert len(assign) == len(cost)
    assert len(set(assign)) == len(assign), "a column was reused"
    assert all(0 <= j < len(cost[0]) for j in assign)
    assert assignment_weight(cost, assign) == _lapjv_cost(cost)


@settings(max_examples=150, deadline=None)
@given(_matrix())
def test_square_matrices_equivalent(cost):
    _check_equivalent(cost)


@settings(max_examples=150, deadline=None)
@given(_matrix(extra_cols=5))
def test_rectangular_matrices_equivalent(cost):
    _check_equivalent(cost)


@settings(max_examples=150, deadline=None)
@given(_matrix(min_rows=2, extra_cols=3), st.data())
def test_matrices_with_forbidden_entries(cost, data):
    # Poison a random subset of entries with +inf; both solvers must
    # agree on feasibility and, when feasible, on the optimal cost.
    n, m = len(cost), len(cost[0])
    for _ in range(data.draw(st.integers(0, n * m))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, m - 1))
        cost[i][j] = INFINITY

    reference = _lapjv_cost(cost)
    if reference is None:
        with pytest.raises(ValueError, match="infeasible assignment"):
            min_cost_assignment(cost)
        return
    assign = min_cost_assignment(cost)
    assert all(cost[i][j] < INFINITY for i, j in enumerate(assign))
    assert assignment_weight(cost, assign) == reference


_INFEASIBLE = (
    # The search gives up at row 0: it has no zero-cost column.
    ([[INFINITY, INFINITY], [1.0, 2.0]], 0),
    # The search places row 0, then row 1 finds its only column taken.
    ([[0.0, INFINITY], [0.0, INFINITY]], 1),
)


def test_infeasible_error_message_matches_reference():
    for cost, row in _INFEASIBLE:
        assert _lapjv_cost(cost) is None
        with pytest.raises(ValueError) as reference:
            _kuhn_munkres(cost)
        with pytest.raises(ValueError) as caught:
            min_cost_assignment(cost)
        assert f"infeasible assignment: row {row}" in str(reference.value)
        assert str(caught.value) == str(reference.value)
