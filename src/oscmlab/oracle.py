"""Brute-force ground truth for the exact solvers.

Everything here counts crossings straight from the definition, never
through the pairwise crossing matrix of matrix.py (nothing here imports
it), so oracle results and solver results reach the optimum through
disjoint routes. Which edge pairs can cross is decided in one place,
bigraph._edge_pairs, which the public counters in bigraph read too.
Enumeration is lexicographic and the reported optimum is the
lexicographically least ordering among minimizers.

Edge pairs are first tallied per free-vertex pair: w[a][b] of them cross
when a precedes b. An ordering's crossing count is then the sum, over its
places, of after[f, m] = sum of w[f][v] over the vertices v in m, where f
is the vertex at that place and m the set of vertices placed after it.
The scan walks a cached prefix tree of orderings, one level per prefix
length, and adds one after[] term per level to its parent prefix's sum,
so every ordering's count comes out in lexicographic order; the winner's
index decodes to its ordering in the factorial number system. The scalar
definition in bigraph.count_crossings is the reference the scan is tested
against.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np

from .bigraph import BipartiteInstance, Solution, _edge_pairs
from .errors import SizeLimitError

# Codes per gather; np.take copies each block's int16 codes to intp.
_CHUNK = 1 << 15

# Enumeration caps; beyond them the oracle refuses to run. The scan keeps
# a prefix tree of ~1.72 * n! int16 codes and a count array of n! int32:
# 1.2 MB and 1.5 MB at n = 9, 12.5 MB and 14.5 MB at n = 10, and 137 MB
# and 160 MB at n = 11. extensions.solve_tlcm enumerates at most
# MAX_NU_TLCM too.
MAX_NV = 10
MAX_NU_TLCM = 6


@lru_cache(maxsize=MAX_NV + 1)
def _perm_tables(n: int):
    """Prefix tree of the orderings of range(n), one read-only int16 array
    per prefix length 1..n - 1.

    Level i holds every prefix of i + 1 vertices in lexicographic order,
    n!/(n - i - 1)! of them, each coded ``f << n | m``: f is the prefix's
    last vertex and m the mask of vertices it leaves unplaced (int16 holds
    the codes up to n = 11). A prefix at level i - 1 with k unplaced
    vertices has k children at level i, one per unplaced vertex in
    increasing order, so child j of parent p sits at p * k + j. Full
    orderings are left out: their last vertex has nothing after it, so
    they add nothing to a count and level n - 2 already has one entry per
    ordering.
    """
    # members[m]: the vertices in mask m, ascending, then the others.
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    members = np.argsort(1 - bits, axis=1, kind="stable").astype(np.int16)
    masks = np.array([(1 << n) - 1], dtype=np.int16)
    levels = []
    for k in range(n, 1, -1):
        v = members[masks, :k]
        masks = (masks[:, None] ^ (np.int16(1) << v)).ravel()
        codes = v.ravel() << n | masks
        codes.flags.writeable = False
        levels.append(codes)
    return tuple(levels)


def _pair_weights(n, pairs, upos):
    """w[a][b]: edge pairs among ``pairs`` (bigraph._edge_pairs tuples) on
    free vertices a and b that cross when a precedes b, under the
    fixed-layer positions ``upos``."""
    w = [[0] * n for _ in range(n)]
    for u1, v1, u2, v2 in pairs:
        # A pair crosses when its free-layer order disagrees with the
        # fixed-layer order of its other endpoints.
        if upos[u1] < upos[u2]:
            w[v2][v1] += 1
        else:
            w[v1][v2] += 1
    return w


def _grow(sums, level, after):
    """Crossing sums of the prefixes in ``level``: each parent's entry of
    ``sums`` plus the after[] entry its child's code indexes."""
    k = len(level) // len(sums)
    grown = np.empty(len(level), dtype=sums.dtype)
    step = _CHUNK - _CHUNK % k
    for start in range(0, len(level), step):
        block = grown[start:start + step]
        # Every code is a valid index, so "wrap" only skips the bounds
        # check of the default mode.
        np.take(after, level[start:start + step], out=block, mode="wrap")
        rows = block.reshape(-1, k)
        parents = sums[start // k:start // k + len(rows)]
        for child in rows.T:
            child += parents
    return grown


def _scan_orderings(n, w):
    """Crossing count of every ordering of range(n) under the pair
    weights w, in lexicographic order of the orderings."""
    w = np.array(w, dtype=np.int64).reshape(n, n)
    dtype = np.int32 if w.sum() < 2**31 else np.int64
    # after[f, m] = sum of w[f][v] over the vertices v in mask m.
    after = np.zeros((n, 1 << n), dtype=dtype)
    for v in range(n):
        after[:, 1 << v:2 << v] = after[:, :1 << v] + w[:, v:v + 1]
    after = after.ravel()
    counts = np.zeros(1, dtype=dtype)
    for level in _perm_tables(n):
        counts = _grow(counts, level, after)
    return counts


def _unrank(n, index):
    """The ordering of range(n) at ``index`` in lexicographic order."""
    rest = list(range(n))
    ordering = []
    for k in range(n, 0, -1):
        digit, index = divmod(index, factorial(k - 1))
        ordering.append(rest.pop(digit))
    return tuple(ordering)


def _check_nv(inst):
    if inst.n_v > MAX_NV:
        raise SizeLimitError(f"n_v={inst.n_v} exceeds oracle limit {MAX_NV}")


def _best_ordering(inst, pairs, upos):
    """Lexicographically least ordering of the free layer with the fewest
    crossings among ``pairs`` under the fixed-layer positions ``upos``."""
    n = inst.n_v
    counts = _scan_orderings(n, _pair_weights(n, pairs, upos))
    best = int(np.argmin(counts))
    return Solution(_unrank(n, best), int(counts[best]))


def solve_bruteforce(inst: BipartiteInstance) -> Solution:
    """Minimum crossings over all n_v! orderings, ignoring colors.

    Ties go to the lexicographically least ordering. Refuses n_v beyond
    MAX_NV.
    """
    _check_nv(inst)
    return _best_ordering(inst, _edge_pairs(inst), range(inst.n_u))


def solve_osscm_bruteforce(inst: BipartiteInstance) -> Solution:
    """Like solve_bruteforce, but only same-color crossings count."""
    _check_nv(inst)
    return _best_ordering(inst, _edge_pairs(inst, same_color=True),
                          range(inst.n_u))


def solve_tlcm_bruteforce(inst: BipartiteInstance):
    """Minimum crossings over all n_u! * n_v! layer-order pairs.

    Returns (u_ordering, Solution); ties go to the lexicographically least
    (u_ordering, v_ordering) pair. Colors are ignored. Refuses n_u beyond
    MAX_NU_TLCM and n_v beyond MAX_NV.
    """
    if inst.n_u > MAX_NU_TLCM:
        raise SizeLimitError(
            f"n_u={inst.n_u} exceeds two-layer oracle limit {MAX_NU_TLCM}"
        )
    _check_nv(inst)
    pairs = list(_edge_pairs(inst))
    best = None
    for u_perm in itertools.permutations(range(inst.n_u)):
        upos = [0] * inst.n_u
        for i, u in enumerate(u_perm):
            upos[u] = i
        sol = _best_ordering(inst, pairs, upos)
        if best is None or sol.crossings < best[1].crossings:
            best = (u_perm, sol)
    return best[0], best[1]


def orderings_scanned(n_v: int) -> int:
    """How many orderings a brute-force run over n_v vertices evaluates."""
    return factorial(n_v)
