"""Pairwise crossing-count matrix and the separability sum.

For free-layer vertices v, w the matrix entry c[v][w] counts edge pairs
(a, v), (b, w) with a after b on the fixed layer — i.e. the crossings the
pair (v, w) contributes whenever v is placed before w. For colored
instances only same-color edge pairs are counted, which folds the colored
objective into the same machinery. Total crossings of an ordering are then
sum of c[v][w] over all pairs v before w.

The key structural fact used by every solver: for disjoint subsets V1, V2
the cross-term gamma(V1, V2) = sum_{v in V1, w in V2} c[v][w] is the same
for every ordering placing all of V1 before all of V2, so optimal orderings
decompose over subset splits.

build_crossing_matrix returns the matrix itself: a read-only n_v x n_v
int64 array. Subsets are sequences of members. cross_sum (gamma) and
order_sum (the cost of an ordering) are the only pair sums; they read the
matrix as nested lists (c.tolist()), which dc's pure-Python recursion
indexes far faster than NumPy elements.
"""

from __future__ import annotations

import numpy as np

from .bigraph import BipartiteInstance


def build_crossing_matrix(inst: BipartiteInstance) -> np.ndarray:
    """Count, for each ordered pair (v, w), the crossings of v-before-w.

    c[v][w] = #{((a,v), (b,w)) same-colored edge pairs with a > b}. Built
    per color class as A @ P.T where A is the V x U incidence matrix and
    P[w, a] = #neighbours of w strictly left of a; the diagonal is zeroed
    (a vertex never crosses itself). The array is read-only.
    """
    n_v, n_u = inst.n_v, inst.n_u
    c = np.zeros((n_v, n_v), dtype=np.int64)
    for color in range(inst.n_colors):
        a = np.zeros((n_v, n_u), dtype=np.int64)
        touched = False
        for (u, v), col in zip(inst.edges, inst.colors):
            if col == color:
                a[v, u] = 1
                touched = True
        if not touched:
            continue
        left = np.zeros_like(a)
        left[:, 1:] = np.cumsum(a, axis=1)[:, :-1]
        c += a @ left.T
    np.fill_diagonal(c, 0)
    c.setflags(write=False)
    return c


def cross_sum(rows, first, second) -> int:
    """sum_{v in first, w in second} rows[v][w] over nested-list rows."""
    total = 0
    for v in first:
        row = rows[v]
        for w in second:
            total += row[w]
    return total


def order_sum(rows, ordering) -> int:
    """sum of rows[v][w] over every pair v placed before w in ``ordering``,
    over nested-list rows: the crossings of that ordering."""
    total = 0
    for i, v in enumerate(ordering):
        row = rows[v]
        for w in ordering[i + 1:]:
            total += row[w]
    return total


def gamma(c: np.ndarray, first, second) -> int:
    """Cross-term sum_{v in V1, w in V2} c[v][w] for disjoint subsets given
    by their members.

    Equals cr(E(V1) u E(V2)) - cr(E(V1)) - cr(E(V2)) under any full ordering
    that places V1 entirely before V2. Raises ValueError when the subsets
    overlap, repeat a vertex or leave 0..n_v-1.
    """
    first, second = list(first), list(second)
    if len(set(first + second)) != len(first) + len(second):
        raise ValueError("subsets overlap")
    if not all(0 <= v < len(c) for v in first + second):
        raise ValueError("subset out of range")
    return cross_sum(c.tolist(), first, second)


def ordering_cost(c: np.ndarray, ordering) -> int:
    """Crossings of a full ordering via the matrix: sum over v-before-w pairs."""
    return order_sum(c.tolist(), ordering)
