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
                     solve_bruteforce, solve_osscm_bruteforce,
                     solve_tlcm_bruteforce)
import oscmlab
from oscmlab.oracle import MAX_NU_TLCM, MAX_NV, _perm_tables

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
def test_perm_tables_are_lexicographic_with_inverses(n):
    pos = _perm_tables(n)
    assert pos.dtype == np.int8
    orderings = np.argsort(pos, axis=1)
    assert [tuple(p) for p in orderings.tolist()] == list(permutations(range(n)))


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
