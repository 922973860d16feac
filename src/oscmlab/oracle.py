"""Brute-force ground truth for the exact solvers.

Everything here counts crossings straight from the definition, never
through the pairwise crossing matrix of matrix.py (nothing here imports
it), so oracle results and solver results reach the optimum through
disjoint routes. Which edge pairs can cross is decided in one place,
bigraph._edge_pairs, which the public counters in bigraph read too.
Enumeration is lexicographic and the reported optimum is the
lexicographically least ordering among minimizers.

Edge pairs are first tallied per free-vertex pair: how many cross when a
precedes b, and how many when b precedes a. The permutation scan then adds
one of the two tallies per vertex pair, vectorized with numpy (chunked to
bound memory); the scalar definition in bigraph.count_crossings is the
reference the vectorized path is tested against.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np

from .bigraph import BipartiteInstance, Solution, _edge_pairs
from .errors import SizeLimitError

_CHUNK_ROWS = 1 << 14

# Enumeration caps; beyond them the oracle refuses to run. The scan keeps an
# int8 position table of every ordering: the one for 11! orderings alone
# takes 0.4 GB. extensions.solve_tlcm enumerates at most MAX_NU_TLCM too.
MAX_NV = 10
MAX_NU_TLCM = 6


@lru_cache(maxsize=4)
def _perm_tables(n: int):
    """Position table of every ordering of range(n), in lexicographic order
    of the orderings: row r holds each vertex's place in ordering r, so
    argsort of the row is the ordering.

    Built up from the table of range(k - 1): the orderings of range(k)
    that start with ``first`` are ``first`` followed by those of range(k - 1)
    with every value from ``first`` up shifted by one, so ``first`` sits at
    place 0 and each other vertex one place later than it did there.
    """
    pos = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        rows = len(pos)
        next_pos = np.empty((k * rows, k), dtype=np.int8)
        later = pos + 1
        for first in range(k):
            block = slice(first * rows, (first + 1) * rows)
            next_pos[block, :first] = later[:, :first]
            next_pos[block, first] = 0
            next_pos[block, first + 1:] = later[:, first:]
        pos = next_pos
    return pos


def _pair_weights(inst, upos, same_color_only):
    """w[a][b]: edge pairs on free vertices a and b that cross when a
    precedes b, tallied over bigraph's edge-pair enumeration."""
    w = [[0] * inst.n_v for _ in range(inst.n_v)]
    for u1, v1, u2, v2 in _edge_pairs(inst, same_color_only):
        # A pair crosses when its free-layer order disagrees with the
        # fixed-layer order of its other endpoints.
        if upos[u1] < upos[u2]:
            w[v2][v1] += 1
        else:
            w[v1][v2] += 1
    return w


def _scan_orderings(inst, upos, same_color_only):
    """Position table and crossing count of every ordering of V, in
    lexicographic order."""
    n = inst.n_v
    pos = _perm_tables(n)
    w = _pair_weights(inst, upos, same_color_only)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if w[a][b] or w[b][a]]
    counts = np.zeros(len(pos), dtype=np.int64)
    if not pairs:
        return pos, counts
    firsts = np.array([a for a, _ in pairs], dtype=np.intp)
    seconds = np.array([b for _, b in pairs], dtype=np.intp)
    in_order = np.array([w[a][b] for a, b in pairs], dtype=np.int64)
    reversed_ = np.array([w[b][a] for a, b in pairs], dtype=np.int64)
    for start in range(0, len(pos), _CHUNK_ROWS):
        block = pos[start:start + _CHUNK_ROWS]
        ahead = block[:, firsts] < block[:, seconds]
        counts[start:start + _CHUNK_ROWS] = \
            np.where(ahead, in_order, reversed_).sum(axis=1)
    return pos, counts


def _best_ordering(inst, upos=None, same_color_only=False):
    if inst.n_v > MAX_NV:
        raise SizeLimitError(f"n_v={inst.n_v} exceeds oracle limit {MAX_NV}")
    if upos is None:
        upos = list(range(inst.n_u))
    pos, counts = _scan_orderings(inst, upos, same_color_only)
    best = int(np.argmin(counts))
    ordering = tuple(int(v) for v in np.argsort(pos[best]))
    return Solution(ordering, int(counts[best]))


def solve_bruteforce(inst: BipartiteInstance) -> Solution:
    """Minimum crossings over all n_v! orderings, ignoring colors.

    Ties go to the lexicographically least ordering. Refuses n_v beyond
    MAX_NV.
    """
    return _best_ordering(inst)


def solve_osscm_bruteforce(inst: BipartiteInstance) -> Solution:
    """Like solve_bruteforce, but only same-color crossings count."""
    return _best_ordering(inst, same_color_only=True)


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
    best = None
    for u_perm in itertools.permutations(range(inst.n_u)):
        upos = [0] * inst.n_u
        for i, u in enumerate(u_perm):
            upos[u] = i
        sol = _best_ordering(inst, upos=upos)
        if best is None or sol.crossings < best[1].crossings:
            best = (u_perm, sol)
    return best[0], best[1]


def orderings_scanned(n_v: int) -> int:
    """How many orderings a brute-force run over n_v vertices evaluates."""
    return factorial(n_v)
