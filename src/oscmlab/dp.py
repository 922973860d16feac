"""Exact minimum crossings by dynamic programming over vertex subsets.

OPT(S) for a subset S of the free layer is the minimum crossing count of a
drawing of S alone (plus, implicitly, the fixed layer). Peeling the last
vertex gives

    OPT(S) = min_{w in S}  OPT(S \\ {w}) + sum_{v in S \\ {w}} c[v][w]

with OPT of singletons 0: exactly n_v * 2^(n_v - 1) - n_v recurrence
evaluations (every (S, w) pair with |S| >= 2).

The table is kept one subset-size layer at a time. A layer holds every
subset of one size as a row of ascending members in combinatorial-number-
system (colex) order: the subset x_0 < x_1 < ... sits in row
sum_i C(x_i, i + 1), its rank, so reading a smaller subset's optimum is an
array gather. Each layer is evaluated from the one below, carrying the
column sums sum_{v in S} c[v][w] of every subset for every w. qdp's phase
1 runs the same kernel up to its threshold.

Space: 2^n_v optimum and choice entries, plus the column sums of two
adjacent layers (at most 2 * C(n_v, n_v / 2) * n_v values). Member rows
depend on n_v and the size alone and are cached across solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .errors import SizeLimitError
from .ledger import CostLedger
from .matrix import build_crossing_matrix

# Time and space double with each vertex: n_v = 23 takes ~5.6 s and peaks
# at ~0.32 GB, plus ~0.1 GB of member rows cached by the first call.
_PRACTICAL_MAX_NV = 23

_CHUNK = 1 << 14  # values per row-chunk array (128 KiB of int64)


@lru_cache(maxsize=16)
def _binomials(n):
    """C(x, i) at [i, x] for 0 <= i <= n + 1 and 0 <= x < n."""
    return np.array([[comb(x, i) for x in range(n)] for i in range(n + 2)],
                    dtype=np.int64)


@lru_cache(maxsize=64)
def _layer(n, s):
    """Every s-subset of range(n) as a row of ascending members; row = rank.

    The subsets with top member x take rows C(x, s) on; the rest of each is
    one of the first C(x, s - 1) rows of the layer below, in order.
    """
    if s == 0:
        return np.zeros((1, 0), np.int8)
    binom = _binomials(n)
    top = np.repeat(np.arange(s - 1, n, dtype=np.int8), binom[s - 1, s - 1:])
    rest = _layer(n, s - 1)[np.arange(len(top)) - binom[s, top]]
    members = np.column_stack((rest, top))
    members.setflags(write=False)
    return members


def _rank(members) -> int:
    """Colex rank of a subset given by its ascending members."""
    return sum(comb(x, i + 1) for i, x in enumerate(members))


class _Layer(NamedTuple):
    """Optimum, Sym and winning candidate of every subset of one size, by
    rank. Sym(S) = sum_{v,u in S} c[v][u]. The candidate is the position of
    the last vertex in a table layer and the index of the split in one of
    qdp's search layers."""

    opt: np.ndarray
    sym: np.ndarray
    choice: np.ndarray


def _by_chunks(members, step, kernel, choice_dtype=np.int64):
    """One _Layer from kernel(lo, rows) -> (opt, sym, choice) over chunks of
    at most step member rows, lo being the rank of the first."""
    count = len(members)
    layer = _Layer(np.empty(count, np.int64), np.empty(count, np.int64),
                   np.empty(count, choice_dtype))
    for lo in range(0, count, step):
        at = slice(lo, lo + step)
        layer.opt[at], layer.sym[at], layer.choice[at] = kernel(lo, members[at])
    return layer


def _grow(c, n, s, below, below_sums):
    """Layer s and its column sums from layer s - 1 and its column sums.

    Removing the member at position j from a subset of rank r leaves the
    rank r - C(x_j, j + 1) - sum_{i > j} (C(x_i, i + 1) - C(x_i, i)):
    the members after it move down one position.
    """
    members = _layer(n, s)
    binom = _binomials(n).ravel()  # C(x, i) at i * n + x
    row_start = np.arange(0, s * n, n)
    sums = np.empty((len(members), n), below_sums.dtype)

    def kernel(lo, rows):
        rank = np.arange(lo, lo + len(rows))
        top = rows[:, -1]
        np.add(below_sums[rank - binom[s * n:].take(top)], c[top],
               out=sums[lo:lo + len(rows)])
        into = sums.take(rows + rank[:, None] * n)  # includes c[w][w] = 0
        index = rows + row_start
        own = binom[n:].take(index)
        removal = (own - binom.take(index)).cumsum(axis=1)
        removal += (rank - removal[:, -1])[:, None] - own
        vals = below.opt.take(removal)
        vals += into
        choice = vals.argmin(axis=1)
        opt = vals.take(np.arange(0, vals.size, s) + choice)
        return opt, into.sum(axis=1), choice

    return _by_chunks(members, max(1, _CHUNK // n), kernel, np.int8), sums


def subset_layers(c, n, top):
    """Yield the table layers of sizes 0..top for the n x n crossing matrix
    c: OPT(S) = min_w OPT(S \\ w) + sum_{v in S} c[v][w] for every s-subset
    S, the choice being w's position among the members (ties keep the
    smallest w). A subset's column sums are those of S without its top
    member plus that member's row of c; only the newest layer's are kept."""
    c = c.astype(np.int64 if int(c.sum()) * n >= 2 ** 31 else np.int32)
    yield _Layer(*np.zeros((3, 1), np.int64))  # the empty set
    if top:  # a singleton costs 0, and its column sums are its row of c
        layer, sums = _Layer(*np.zeros((3, n), np.int64)), c
        yield layer
    for s in range(2, top + 1):
        layer, sums = _grow(c, n, s, layer, sums)
        yield layer


def _peel(choice, members):
    """Optimal order of a table subset, popped from the list of its
    ascending members; choice[s][rank] is the position of an s-subset's
    last vertex."""
    out = []
    while members:
        out.append(members.pop(choice[len(members)][_rank(members)]))
    return out[::-1]


@dataclass
class DpTable:
    """Optimum and last-vertex choice of every subset: opt[s] and choice[s]
    hold the s-subsets by colex rank. opt_of and order_of take a subset's
    members in any order; a vertex out of range or repeated is a KeyError."""

    n_v: int
    opt: list
    choice: list

    @property
    def entry_count(self) -> int:
        return sum(len(layer) for layer in self.opt)

    def _members(self, members) -> list:
        members = sorted(members)
        if (len(set(members)) != len(members)
                or not all(0 <= v < self.n_v for v in members)):
            raise KeyError(f"{members} is not a subset of range({self.n_v})")
        return members

    def opt_of(self, members) -> int:
        members = self._members(members)
        return int(self.opt[len(members)][_rank(members)])

    def order_of(self, members) -> tuple:
        """Optimal ordering of the subset, rebuilt from last-vertex choices."""
        return tuple(_peel(self.choice, self._members(members)))


def dp_recurrence_count(n_v: int) -> int:
    """Closed form for recurrence evaluations: sum of |S| over |S| >= 2."""
    if n_v <= 1:
        return 0
    return n_v * 2 ** (n_v - 1) - n_v


def dp_table_entries(n_v: int) -> int:
    """Table size: one entry per subset of the free layer."""
    return 2 ** n_v


def solve_dp(inst: BipartiteInstance, keep_table: bool = False):
    """Solve one instance exactly; returns (Solution, CostLedger).

    With keep_table=True returns (Solution, CostLedger, DpTable) so callers
    can query per-subset optima.
    """
    n = inst.n_v
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    if n > _PRACTICAL_MAX_NV:
        raise SizeLimitError(
            f"n_v={n}: dense table would exceed practical memory "
            f"(limit {_PRACTICAL_MAX_NV})"
        )
    ledger = CostLedger(algo="dp", meta={"n_v": n})
    c = build_crossing_matrix(inst)

    table = DpTable(n, [], [])
    for s, layer in enumerate(subset_layers(c, n, n)):
        table.opt.append(layer.opt)
        table.choice.append(layer.choice)
        if s >= 2:
            ledger.recurrence_evals += len(layer.opt) * s
            ledger.gamma_evals += len(layer.opt) * s

    full = range(n)
    solution = Solution(table.order_of(full), table.opt_of(full))
    if keep_table:
        return solution, ledger, table
    return solution, ledger
