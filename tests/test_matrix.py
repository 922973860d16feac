import random

import numpy as np
import pytest

from oscmlab import (BipartiteInstance, build_crossing_matrix, count_crossings,
                     count_restricted_crossings, count_same_color_crossings,
                     gamma, ordering_cost)
from oscmlab import bigraph, oracle

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

SEEDS = [3, 17, 29, 41, 53, 67, 83, 101]


def test_k22_entries():
    c = build_crossing_matrix(K22)
    assert c[0, 1] == 1
    assert c[1, 0] == 1


def test_cross_pair_entries():
    c = build_crossing_matrix(CROSS_PAIR)
    assert c[0, 1] == 1
    assert c[1, 0] == 0


def test_edgeless_matrix_is_zero():
    c = build_crossing_matrix(BipartiteInstance(3, 4))
    assert c.sum() == 0
    assert c.shape == (4, 4)
    assert c.dtype == np.int64 and not c.flags.writeable


def test_matrix_is_read_only():
    c = build_crossing_matrix(K22)
    with pytest.raises(ValueError):
        c[0, 1] = 5


def test_diagonal_is_zero():
    inst = random_instance(random.Random(0), 5, 5, 0.8)
    c = build_crossing_matrix(inst)
    assert all(c[v, v] == 0 for v in range(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_ordering_cost_matches_direct_count(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 6), 0.5)
    c = build_crossing_matrix(inst)
    ordering = list(range(inst.n_v))
    rng.shuffle(ordering)
    assert ordering_cost(c, tuple(ordering)) == count_crossings(inst, tuple(ordering))


@pytest.mark.parametrize("seed", SEEDS)
def test_colored_matrix_counts_same_color_objective(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, 4, 5, 0.4, h=3)
    c = build_crossing_matrix(inst)
    ordering = list(range(5))
    rng.shuffle(ordering)
    assert ordering_cost(c, tuple(ordering)) \
        == count_same_color_crossings(inst, tuple(ordering))


def test_gamma_examples():
    assert gamma(build_crossing_matrix(K22), [0], [1]) == 1
    assert gamma(build_crossing_matrix(CROSS_PAIR), [1], [0]) == 0
    assert gamma(build_crossing_matrix(K22), [], [1]) == 0


def test_gamma_rejects_bad_subsets():
    c = build_crossing_matrix(K22)
    with pytest.raises(ValueError):
        gamma(c, [0, 1], [1])  # overlap
    with pytest.raises(ValueError):
        gamma(c, [0, 0], [1])  # a repeated vertex
    with pytest.raises(ValueError):
        gamma(c, [2], [0])  # out of range
    with pytest.raises(ValueError):
        gamma(c, [-1], [0])  # out of range


@pytest.mark.parametrize("seed", SEEDS)
def test_gamma_equals_restricted_crossing_difference(seed):
    """The split cross-term equals the inclusion-exclusion of restricted
    counts under any ordering placing V1 wholly before V2."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(2, 7), 0.6)
    c = build_crossing_matrix(inst)
    verts = list(range(inst.n_v))
    rng.shuffle(verts)
    cut = rng.randint(1, inst.n_v - 1)
    v1, v2 = verts[:cut], verts[cut:]
    for _ in range(2):  # two different conforming orderings, same difference
        rng.shuffle(v1)
        rng.shuffle(v2)
        ordering = tuple(v1 + v2)
        both = count_restricted_crossings(inst, ordering, v1 + v2)
        first = count_restricted_crossings(inst, ordering, v1)
        second = count_restricted_crossings(inst, ordering, v2)
        assert both - first - second == gamma(c, v1, v2)


@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_equals_the_per_edge_loop(seed):
    """Colored and plain instances, empty layers and classes included:
    the entries equal the oracle's per-pair weights over same-color edge
    pairs, read-only int64."""
    rng = random.Random(seed)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(0, 7), rng.randint(0, 9),
                               rng.choice([0.0, 0.2, 0.5, 0.9]),
                               h=rng.randint(1, 4))
        c = build_crossing_matrix(inst)
        assert c.dtype == np.int64 and not c.flags.writeable
        assert c.shape == (inst.n_v, inst.n_v)
        pairs = bigraph._edge_pairs(inst, same_color=True)
        want = oracle._pair_weights(inst.n_v, pairs, range(inst.n_u))
        assert c.tolist() == want
