"""Planted instances whose optimum is known past the brute-force range.

Every free vertex's neighbourhood is an interval of the fixed layer, and
both interval endpoints are non-decreasing along a hidden order of the free
vertices, whose labels are then shuffled. Placing the vertices in that
order makes every pair contribute the smaller of its two crossing counts,
so the optimum equals the pairwise lower bound
sum_{v<w} min(c[v][w], c[w][v]), which any ordering must pay.
"""

import random

import pytest

from oscmlab import (BipartiteInstance, count_crossings, solve_bruteforce,
                     solve_dp, solve_qdp)
from oscmlab.matrix import build_crossing_matrix


def planted_instance(rng, n_u, n_v):
    ends = [sorted((rng.randrange(n_u), rng.randrange(n_u))) for _ in range(n_v)]
    lefts = sorted(left for left, _ in ends)
    rights = sorted(right for _, right in ends)
    labels = list(range(n_v))
    rng.shuffle(labels)
    edges = tuple((u, labels[i]) for i in range(n_v)
                  for u in range(lefts[i], rights[i] + 1))
    return BipartiteInstance(n_u, n_v, edges)


def pairwise_bound(inst):
    c = build_crossing_matrix(inst).tolist()
    return sum(min(c[v][w], c[w][v])
               for v in range(inst.n_v) for w in range(v + 1, inst.n_v))


@pytest.mark.parametrize("n_v", range(2, 10))
def test_brute_force_optimum_equals_the_bound(n_v):
    rng = random.Random(900 + n_v)
    for _ in range(5):
        inst = planted_instance(rng, rng.randint(2, 8), n_v)
        assert solve_bruteforce(inst).crossings == pairwise_bound(inst)


def test_random_instances_can_exceed_the_bound():
    # The equality is a property of the planted family, not of the bound.
    inst = BipartiteInstance(6, 4, ((0, 2), (1, 1), (1, 3), (2, 0), (2, 1),
                                    (3, 0), (3, 2), (4, 2), (5, 1), (5, 3)))
    assert (solve_bruteforce(inst).crossings, pairwise_bound(inst)) == (15, 14)


@pytest.mark.parametrize("solve,n_v", [(solve_dp, 18), (solve_dp, 20),
                                       (solve_qdp, 16)],
                         ids=["dp-18", "dp-20", "qdp-16"])
def test_solvers_reach_the_bound_past_brute_force(solve, n_v):
    inst = planted_instance(random.Random(1000 + n_v), 12, n_v)
    bound = pairwise_bound(inst)
    sol, _ = solve(inst)
    assert sol.crossings == bound > 0
    assert count_crossings(inst, sol.ordering) == bound
