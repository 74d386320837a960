"""Maximum-weight bipartite matching via the Kuhn–Munkres algorithm.

Paper Section 3.2 reduces the minimal-movement slot-layout problem (MMA)
to maximum-weight bipartite matching between variable sets and physical
on-chip slots, solved "using the modified Kuhn–Munkres algorithm, with
O(M³) time complexity".  This is that solver, implemented from scratch
(the shortest-augmenting-path / potentials formulation, which is the
standard O(n³) Hungarian variant).

The allocator's matrices are movement counts: never negative, and
mostly zero.  On such a matrix the solver's potentials stay zero for as
long as every row finds an augmenting path over zero-cost edges, and
each step only visits the lowest-index zero-cost column it can reach.
:func:`min_cost_assignment` first runs exactly that search on column
bitmasks (:func:`_zero_cost_search`) and hands the matrix to the
general solver at the first row the search cannot place, so its result,
tie-breaks included, is always the general solver's.
"""

from __future__ import annotations

INFINITY = float("inf")


def min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Assign each row to a distinct column minimising total cost.

    ``cost`` must be an n×m matrix with n <= m.  Returns ``assign`` with
    ``assign[i]`` = column matched to row ``i``.  O(n²·m).
    """
    n = len(cost)
    if n == 0:
        return []
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix rows have unequal lengths")
    if n > m:
        raise ValueError("need at least as many columns as rows")
    assign = _zero_cost_search(cost)
    if assign is None:
        assign = _kuhn_munkres(cost)
    return assign


def _zero_cost_search(cost: list[list[float]]) -> list[int] | None:
    """:func:`_kuhn_munkres`'s result while its potentials stay zero.

    With every cost non-negative and zero potentials, each step of the
    general solver visits the lowest-index unvisited column that a
    visited row reaches at zero cost, and that column's predecessor on
    the augmenting path is the first visited column (or the new row)
    whose row reached it.  Returns None for a negative or NaN entry, or
    at the first row with no zero-cost augmenting path: the general
    solver's potentials would move there.
    """
    full = (1 << len(cost[0])) - 1
    zeros = []  # per row: bitmask of its zero-cost columns
    for row in cost:
        nonzero = 0
        for j, c in enumerate(row):
            if c:
                if not c > 0:  # negative or NaN
                    return None
                nonzero |= 1 << j
        zeros.append(full & ~nonzero)

    owner = [-1] * len(cost[0])  # column -> row
    for i, reach in enumerate(zeros):
        visited = 0
        order = []  # visited taken columns, in visiting order
        while True:
            frontier = reach & ~visited
            if not frontier:
                return None
            low = frontier & -frontier
            visited |= low
            j = low.bit_length() - 1
            r = owner[j]
            if r < 0:
                break
            order.append(j)
            reach |= zeros[r]
        # Augment back along the path.  The owners rewritten so far are
        # of columns visited after the predecessor being sought.
        while not zeros[i] >> j & 1:
            p = next(p for p in order if zeros[owner[p]] >> j & 1)
            owner[j] = owner[p]
            j = p
        owner[j] = i

    assign = [-1] * len(cost)
    for j, i in enumerate(owner):
        if i >= 0:
            assign[i] = j
    return assign


def _kuhn_munkres(cost: list[list[float]]) -> list[int]:
    """The general O(n²·m) Hungarian solver (potentials formulation)."""
    n = len(cost)
    m = len(cost[0])

    # Potentials u (rows), v (columns); matching stored as way/links.
    # 1-indexed internally, following the classic formulation.
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # column -> row (0 = free)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INFINITY] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INFINITY
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 == -1:
                # Every unassignable column costs infinity: row i cannot
                # be matched at all (all its edges are forbidden).
                # Without this guard j0 becomes -1 and match[-1]/way[-1]
                # silently corrupt the matching from the last column.
                raise ValueError(
                    f"infeasible assignment: row {i - 1} has no "
                    "finite-cost column left"
                )
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    assign = [-1] * n
    for j in range(1, m + 1):
        if match[j]:
            assign[match[j] - 1] = j - 1
    return assign


def max_weight_assignment(weights: list[list[float]]) -> list[int]:
    """Assign rows to columns maximising total weight (perfect on rows).

    This is the paper's formulation: edge weights are −W_ij (movement
    counts negated), and a maximum-weight perfect matching minimises the
    total number of movements.
    """
    negated = [[-w for w in row] for row in weights]
    return min_cost_assignment(negated)


def assignment_weight(weights: list[list[float]], assign: list[int]) -> float:
    """Total weight of an assignment (for tests and reporting)."""
    return sum(weights[i][j] for i, j in enumerate(assign))
