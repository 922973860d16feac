import ast
import random
from itertools import permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from oscmlab import (BipartiteInstance, SizeLimitError, Solution,
                     count_crossings, count_same_color_crossings,
                     count_two_level_crossings, orderings_scanned,
                     solve_bruteforce, solve_dc, solve_dp,
                     solve_osscm_bruteforce, solve_qdc, solve_qdp,
                     solve_tlcm_bruteforce)
import oscmlab
from oscmlab.bigraph import _edge_pairs
from oscmlab.oracle import (MAX_NU_TLCM, MAX_NV, _pair_weights, _perm_tables,
                            _scan_orderings, _unrank)

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

SEEDS = [7, 19, 31, 43, 61, 79, 103, 127]


def scalar_best(inst, counter):
    """Reference scan: first (lexicographic) ordering attaining the min."""
    best_val, best_ord = None, None
    for perm in permutations(range(inst.n_v)):
        val = counter(inst, perm)
        if best_val is None or val < best_val:
            best_val, best_ord = val, perm
    return best_ord, best_val


@pytest.mark.parametrize("n", range(8))
def test_prefix_tree_levels_code_the_lexicographic_prefixes(n):
    """Level i codes every (i + 1)-vertex prefix, in itertools order, as
    its last vertex shifted above the mask of the vertices it leaves."""
    levels = _perm_tables(n)
    assert len(levels) == max(n - 1, 0)
    full = (1 << n) - 1
    for i, level in enumerate(levels):
        assert len(level) == factorial(n) // factorial(n - i - 1)
        assert level.dtype == np.int16
        assert not level.flags.writeable
        prefixes = list(permutations(range(n), i + 1))
        assert level.tolist() == [
            p[-1] << n | full ^ sum(1 << v for v in p) for p in prefixes]
    orderings = list(permutations(range(n)))
    assert [_unrank(n, r) for r in range(len(orderings))] == orderings


@pytest.mark.parametrize("n_v", range(8))
def test_scan_counts_every_ordering(n_v):
    """The full count array equals the scalar counters on every ordering:
    plain, same-color, and under a non-identity fixed-layer order."""
    rng = random.Random(500 + n_v)
    inst = random_instance(rng, 4, n_v, 0.4, h=2)
    u_perm = (2, 0, 3, 1)
    upos = [u_perm.index(u) for u in range(4)]
    orderings = list(permutations(range(n_v)))
    for same_color, fixed, counter in (
            (False, range(4), count_crossings),
            (True, range(4), count_same_color_crossings),
            (False, upos, lambda inst, perm:
                count_two_level_crossings(inst, u_perm, perm))):
        w = _pair_weights(n_v, _edge_pairs(inst, same_color), fixed)
        counts = _scan_orderings(n_v, w)
        assert counts.tolist() == [counter(inst, perm) for perm in orderings]


def test_scan_widens_past_int32():
    """Pair weights summing past 2**31 are counted without wrapping."""
    w = [[0, 2**31, 5], [1, 0, 2**30], [2**31, 7, 0]]
    counts = _scan_orderings(3, w)
    assert counts.tolist() == [
        sum(w[p[i]][p[j]] for i in range(3) for j in range(i + 1, 3))
        for p in permutations(range(3))]


def test_k22():
    sol = solve_bruteforce(K22)
    assert (sol.crossings, sol.ordering) == (1, (0, 1))


def test_cross_pair():
    sol = solve_bruteforce(CROSS_PAIR)
    assert (sol.crossings, sol.ordering) == (0, (1, 0))


def test_edgeless_lexicographic_tie_break():
    sol = solve_bruteforce(BipartiteInstance(2, 3))
    assert (sol.crossings, sol.ordering) == (0, (0, 1, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_scalar_reference(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 6), 0.5)
    ref_ord, ref_val = scalar_best(inst, count_crossings)
    sol = solve_bruteforce(inst)
    assert sol.crossings == ref_val
    assert sol.ordering == ref_ord


@pytest.mark.parametrize("seed", [1010, 1021, 1032])
def test_solvers_equal_brute_force_at_the_cap(seed):
    """Brute force reaches n_v = MAX_NV, and all four solvers equal it."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 6), MAX_NV,
                           (0.2, 0.5, 0.8)[seed % 3])
    want = solve_bruteforce(inst).crossings
    got = (solve_dp(inst)[0].crossings, solve_dc(inst)[0].crossings,
           solve_qdp(inst)[0].crossings, solve_qdc(inst)[0].crossings)
    assert got == (want, want, want, want)


def test_size_limit():
    """The caps are the module constants; each scan refuses n_v = 11
    before it enumerates anything."""
    assert (MAX_NV, MAX_NU_TLCM) == (10, 6)
    for solve in (solve_bruteforce, solve_osscm_bruteforce,
                  solve_tlcm_bruteforce):
        with pytest.raises(SizeLimitError, match="oracle limit 10"):
            solve(BipartiteInstance(1, 11))
    assert solve_bruteforce(BipartiteInstance(1, 5)).crossings == 0


def test_osscm_cross_color_pairs_are_free():
    bicolored = BipartiteInstance(2, 2, ((0, 1), (1, 0)), (0, 1), 2)
    assert solve_osscm_bruteforce(bicolored).crossings == 0
    assert solve_bruteforce(bicolored).crossings == 0  # (1,0) avoids it anyway
    assert count_crossings(bicolored, (0, 1)) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_osscm_matches_scalar_reference(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, 4, rng.randint(1, 6), 0.4, h=2)
    ref_ord, ref_val = scalar_best(inst, count_same_color_crossings)
    sol = solve_osscm_bruteforce(inst)
    assert (sol.ordering, sol.crossings) == (ref_ord, ref_val)


def test_tlcm_k22_and_friends():
    u_ord, sol = solve_tlcm_bruteforce(K22)
    assert sol.crossings == 1
    assert u_ord == (0, 1)  # every pair of orders gives 1; lexicographic pick
    u_ord, sol = solve_tlcm_bruteforce(CROSS_PAIR)
    assert (u_ord, sol.ordering, sol.crossings) == ((0, 1), (1, 0), 0)
    u_ord, sol = solve_tlcm_bruteforce(BipartiteInstance(1, 1, ((0, 0),)))
    assert sol.crossings == 0


def test_tlcm_empty_fixed_layer():
    # permutations(range(0)) yields one empty ordering, so the scan runs once.
    assert solve_tlcm_bruteforce(BipartiteInstance(0, 3)) \
        == ((), Solution((0, 1, 2), 0))


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_tlcm_matches_double_scan(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 4), 0.6)
    best = None
    for u_perm in permutations(range(inst.n_u)):
        for v_perm in permutations(range(inst.n_v)):
            val = count_two_level_crossings(inst, u_perm, v_perm)
            if best is None or val < best[0]:
                best = (val, u_perm, v_perm)
    u_ord, sol = solve_tlcm_bruteforce(inst)
    assert (sol.crossings, u_ord, sol.ordering) == (best[0], best[1], best[2])


def test_tlcm_size_limit():
    with pytest.raises(SizeLimitError):
        solve_tlcm_bruteforce(BipartiteInstance(7, 2))


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_orderings_scanned(n):
    assert orderings_scanned(n) == factorial(n)


@pytest.mark.parametrize("module", ["oracle.py", "bigraph.py"])
def test_oracle_route_imports_no_solver_module(module):
    """The brute-force route counts from the definition: neither module may
    import the crossing matrix or a subset solver, under any import form
    (``from .matrix import x``, ``from . import dp``, ``import oscmlab.qdc``)."""
    tree = ast.parse((Path(oscmlab.__file__).parent / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names
                         for part in alias.name.split("."))
    assert not names & {"matrix", "dp", "dc", "qdp", "qdc"}, (module, names)
