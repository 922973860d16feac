"""Exact minimum crossings by dynamic programming over vertex subsets.

OPT(S) for a subset S of the free layer is the minimum crossing count of a
drawing of S alone (plus, implicitly, the fixed layer). Peeling the last
vertex gives

    OPT(S) = min_{w in S}  OPT(S \\ {w}) + sum_{v in S \\ {w}} c[v][w]

with OPT of singletons 0: exactly n_v * 2^(n_v - 1) - n_v recurrence
evaluations (every (S, w) pair with |S| >= 2).

The table is kept one subset-size layer at a time. A layer holds every
subset of one size by its rank in the combinatorial number system (colex
order): the subset x_0 < x_1 < ... has rank sum_i C(x_i, i + 1), so reading
a smaller subset's optimum is an array gather. Each layer is grown from the
one below together with three position-major (s, C(n_v, s)) arrays, one
column per subset: its members, the rank of the subset without each
member, and each member's column sum sum_{v in S} c[v][x_j]. The subsets
whose top member is x are x added to each subset of range(x) one size
down, and those are a prefix of the layer below, in order; so a layer's
arrays are that prefix's arrays plus x's terms. The next layer reads only
the columns whose top member is below n_v - 1, the first C(n_v - 1, s),
so only those are stored; the rest are reduced as they are built. qdp's
phase 1 runs the same layers up to its threshold.

That kernel runs past n_v = _PLANNED (12). Up to it, where a layer's ~25
NumPy calls cost more than its arithmetic, the layers come from a plan
cached per n_v (_plan, built on a first solve, never at import): per
layer s, two (s, C(n_v, s)) int32 arrays, the rank of S without x_j in
layer s - 1 and the index mask(S \\ x_j) * n_v + x_j of x_j's column sum
in a (2^n_v, n_v) table that each solve builds by n_v doublings in the
value dtype. A layer is then one take of the layer below, one take of
that table, one add and the kernel's reduction. The plan takes n_v *
2^(n_v + 2) bytes: 18 KB at n_v = 9, 41 KB at 10 and 197 KB at 12, 360
KB for every n_v up to 12 together.

Values are kept in the narrowest of int16/int32/int64 that holds c.sum(),
which bounds every optimum and candidate value. A layer holds optima and
choices only; Sym, which qdp's searches read, is computed there.

A piece of at least _WIDE columns picks each column's first best candidate
as its least key value * s + j, split back with one divmod: keys are int32
while (c.sum() + 1) * s < 2^31 and int64 beyond. A narrower piece takes
argmin and min, which cost fewer NumPy calls; NumPy's argmin down the
columns of a wide piece reads it through a transposed copy, several times
slower than one min.

Space: 2^n_v choices (and optima, when the table is kept), plus the
stored (s, C(n_v - 1, s)) arrays of two adjacent layers: members as int8,
ranks as int32 and sums in the value dtype, 7 bytes per entry with int16
values, so 7 B * max_s [s C(n_v - 1, s) + (s + 1) C(n_v - 1, s + 1)] in
all. Nothing sized by the layers outlives a solve; the index arrays
_gathered caches are under 0.3 MB per n_v. A planned solve holds instead
the (2^n_v, n_v) column-sum table, 2^n_v * n_v * b bytes for b-byte
values, and while it builds a layer, with int16 values, up to 16 bytes
per candidate of the widest one (max_s s C(n_v, s) candidates): the
candidate values and the taken sums beside the intp copy NumPy makes of
an int32 index array, or beside the packed keys and the cast buffers of
their add. A first solve at an n_v adds its plan's bytes. At n_v = 12
with int16 values that is 98 KB + 89 KB + 4 KB of choices, and 197 KB
more on a first solve.
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

# Time and space double with each vertex: n_v = 23 (8 fixed vertices, edge
# probability 0.5, tests/instances.py's random_instance with seeds 1 and
# 4242) takes 1.11 and 1.04 s, best of 3, on a 2-vCPU Xeon VM and peaks at
# 122 MB under tracemalloc; only index arrays under 0.3 MB stay cached.
_PRACTICAL_MAX_NV = 23

_PIECE = 1 << 16  # candidate values per piece of a layer
_SLICED = 1 << 9  # rests from which a top's columns are copied as slices
_WIDE = 1 << 8  # columns from which packed keys beat argmin + min (measured)
_PLANNED = 12  # largest n whose layers come from a cached plan (measured)


@lru_cache(maxsize=16)
def _binomials(n):
    """C(x, i) at [i, x] for 0 <= i <= n + 1 and 0 <= x < n."""
    return np.array([[comb(x, i) for x in range(n)] for i in range(n + 2)],
                    dtype=np.int64)


def _rank(members) -> int:
    """Colex rank of a subset given by its ascending members."""
    return sum(comb(x, i + 1) for i, x in enumerate(members))


def _key_dtype(bound, width):
    """Dtype of the keys value * width + j for values in 0..bound and j in
    0..width - 1: int32 while (bound + 1) * width < 2^31, int64 beyond."""
    return np.int32 if (bound + 1) * width < 2 ** 31 else np.int64


@lru_cache(maxsize=128)
def _positions(s, keys):
    """The key term j of a layer's candidate positions: an (s, 1) column."""
    column = np.arange(s, dtype=keys)[:, None]
    column.setflags(write=False)
    return column


class _Layer(NamedTuple):
    """Optimum and winning candidate of every subset of one size, by rank.
    The candidate is the position of the last vertex in a table layer and
    the index of the split in one of qdp's search layers."""

    opt: np.ndarray
    choice: np.ndarray


class _Rows(NamedTuple):
    """A table layer's (s, ·) arrays over its first columns, column =
    rank: members[j] is the j-th smallest member, ranks[j] the rank of the
    subset without it and sums[j] its column sum sum_{v in S} c[v][x_j]."""

    members: np.ndarray
    ranks: np.ndarray
    sums: np.ndarray


def _columns(n, s, first):
    """Per column of the s-subsets of range(n) whose top member x is below
    first, a prefix of the layer in rank order: x, the rank of the subset
    without x in the layer below, and C(x, s - 1), which adding x adds to
    the rank of the subset without each earlier member."""
    binom = _binomials(n)
    top = np.repeat(np.arange(first), binom[s - 1, :first])
    rest = np.arange(len(top)) - binom[s].take(top)
    return top, rest, binom[s - 1].take(top)


@lru_cache(maxsize=64)
def _gathered(n, s):
    """Index arrays for the columns _grow gathers at once: the s-subsets
    of range(n) whose top member x has fewer than _SLICED rests (C(x, s - 1)
    subsets one size down), which come first in rank order. Returns
    (first, top, rest, C(top, s - 1), top * n): the first top past them,
    then per column its top, its rest's rank and the top's terms. For n up
    to 23 that is at most 1820 columns for one size and 11210 for all.
    """
    first = next((x for x in range(s - 1, n) if comb(x, s - 1) >= _SLICED), n)
    top, rest, offset = _columns(n, s, first)
    arrays = (top.astype(np.int8), rest, offset, top * n)
    for array in arrays:
        array.setflags(write=False)
    return (first, *arrays)


def _grow(pair, n, s, below, rows, keep, positions):
    """Layer s from layer s - 1 and its rows, and the rows of layer s that
    layer s + 1 reads (None unless keep). positions is the key term j in
    the key dtype (module docstring).

    The s-subsets with top member x take ranks C(x, s) on, in the order of
    their rests, the first C(x, s - 1) subsets of the layer below. Adding x
    adds C(x, s - 1) to the rank of the subset without each earlier member
    x_j and c[x][x_j] to x_j's column sum; x's own row is the rest's rank
    and sum_j c[x_j][x]. pair[x, v] holds (c[x][v], c[v][x]).

    Each piece of columns is reduced as soon as it is built, by its packed
    keys when it is at least _WIDE columns wide. Layer s + 1 reads only the
    first C(n - 1, s) columns (top below n - 1), so only those rows are
    stored, and none when not keep; later pieces are built in one scratch
    piece. A layer built as one gathered piece is stored whole.
    """
    count = comb(n, s)
    dtype = below.opt.dtype
    layer = _Layer(np.empty(count, dtype), np.empty(count, np.int8))
    first, *gathered = _gathered(n, s)
    stored = count if first == n else comb(n - 1, s) if keep else 0
    grown = _Rows(*(np.empty((s, stored), a.dtype) for a in rows))
    step = max(1, _PIECE // s)
    scratch = None

    def pieces():
        """(columns, top, rest ranks, rank offsets, rests, pair terms): the
        gathered tops at once, then each later top, whose rests are a
        prefix of the layer below, as slices."""
        top, rest, offset, base = gathered
        rests = _Rows(*(a.take(rest, axis=1) for a in rows))
        yield (slice(0, len(rest)), top, rest, offset, rests,
               pair.take(base + rests.members))
        for x in range(first, n):
            lo, size = comb(x, s), comb(x, s - 1)
            for start in range(0, size, step):
                stop = min(start + step, size)
                rests = _Rows(*(a[:, start:stop] for a in rows))
                yield (slice(lo + start, lo + stop), x, np.arange(start, stop),
                       size, rests, pair[x].take(rests.members))

    for at, top, rest, offset, rests, terms in pieces():
        if at.stop > stored:  # top n - 1, or a layer that is not kept
            if scratch is None:  # the gathered piece may be the widest
                width = max(step, at.stop - at.start)
                scratch = _Rows(*(np.empty((s, width), a.dtype) for a in rows))
            piece = _Rows(*(a[:, :at.stop - at.start] for a in scratch))
        elif at == slice(0, stored):  # one gathered piece: no views
            piece = grown
        else:
            piece = _Rows(*(a[:, at] for a in grown))
        piece.members[:-1] = rests.members
        piece.members[-1] = top
        np.add(rests.ranks, offset, out=piece.ranks[:-1])
        piece.ranks[-1] = rest
        np.add(rests.sums, terms["row"], out=piece.sums[:-1])
        terms["col"].sum(axis=0, out=piece.sums[-1])
        vals = below.opt.take(piece.ranks)
        if at.stop - at.start < _WIDE:
            vals += piece.sums
            layer.choice[at] = vals.argmin(axis=0)
            layer.opt[at] = vals.min(axis=0)
        else:
            key = np.add(vals, piece.sums, dtype=positions.dtype)
            key *= s
            key += positions
            np.divmod(key.min(axis=0), s, out=(layer.opt[at], layer.choice[at]))
    return layer, grown if keep else None


@lru_cache(maxsize=_PLANNED + 1)
def _plan(n):
    """Per layer s = 2..n of range(n), two read-only (s, C(n, s)) int32
    arrays, one column per subset S by rank: ranks[j], the rank of S
    without its j-th member x_j in layer s - 1, and flat[j], the index
    mask(S \\ x_j) * n + x_j of x_j's column sum in a flattened (2^n, n)
    table. The rows grow as _grow's gathered piece does (_columns), with
    subset masks beside them: n * 2^(n + 2) bytes in all."""
    members = np.arange(n)[None]
    ranks = np.zeros((1, n), np.intp)
    masks = np.left_shift(1, members[0])
    plan = []
    for s in range(2, n + 1):
        top, rest, offset = _columns(n, s, n)
        members = np.vstack((members.take(rest, axis=1), top))
        ranks = np.vstack((ranks.take(rest, axis=1) + offset, rest))
        masks = masks.take(rest) + np.left_shift(1, top)
        flat = (masks - np.left_shift(1, members)) * n + members
        plan.append((ranks.astype(np.int32), flat.astype(np.int32)))
        for array in plan[-1]:
            array.setflags(write=False)
    return tuple(plan)


def _column_sums(c, n, dtype):
    """sum_{v in mask} c[v][w] at mask * n + w for every mask of range(n),
    by n doublings in the value dtype: a flattened (2^n, n) table."""
    sums = np.empty((1 << n, n), dtype)
    sums[0] = 0
    c = c.astype(dtype)
    for x in range(n):
        np.add(sums[:1 << x], c[x], out=sums[1 << x:2 << x])
    return sums.ravel()


def _planned(below, sums, ranks, flat, total):
    """Layer s from layer s - 1 along _plan's rows for it: one take of the
    layer below, one of the column sums and one add give every candidate
    value, reduced as _grow reduces a piece of that width."""
    s, count = ranks.shape
    vals = below.opt.take(ranks)
    if count < _WIDE:
        vals += sums.take(flat)
        return _Layer(vals.min(axis=0), vals.argmin(axis=0).astype(np.int8))
    positions = _positions(s, _key_dtype(total, s))
    key = np.add(vals, sums.take(flat), dtype=positions.dtype)
    key *= s
    key += positions
    layer = _Layer(np.empty(count, vals.dtype), np.empty(count, np.int8))
    np.divmod(key.min(axis=0), s, out=(layer.opt, layer.choice))
    return layer


def subset_layers(c, n, top):
    """Yield the table layers of sizes 0..top for the n x n crossing matrix
    c: OPT(S) = min_w OPT(S \\ w) + sum_{v in S} c[v][w] for every s-subset
    S, the choice being w's position among the members (ties keep the
    smallest w). Values are in the narrowest of int16/int32/int64 that
    holds c.sum(), a bound on every value computed; layers hold no Sym.
    Up to n = _PLANNED the layers come from a cached plan (_planned), past
    it from the layer kernel (_grow)."""
    total = int(c.sum())
    dtype = (np.int16 if total < 2 ** 15 else np.int32 if total < 2 ** 31
             else np.int64)
    yield _Layer(np.zeros(1, dtype), np.zeros(1, np.int8))
    # a singleton costs 0; to the kernel its rest is the empty set, rank 0
    layer = _Layer(np.zeros(n, dtype), np.zeros(n, np.int8))
    if top:
        yield layer
    if top < 2:
        return
    if n <= _PLANNED:
        sums = _column_sums(c, n, dtype)
        for ranks, flat in _plan(n)[:top - 1]:
            layer = _planned(layer, sums, ranks, flat, total)
            yield layer
        return
    pair = np.empty((n, n), [("row", dtype), ("col", dtype)])
    pair["row"], pair["col"] = c, c.T
    ranks = np.int32 if comb(n, n // 2) < 2 ** 31 else np.int64
    rows = _Rows(np.arange(n, dtype=np.int8)[None], np.zeros((1, n), ranks),
                 np.zeros((1, n), dtype))
    for s in range(2, top + 1):
        layer, rows = _grow(pair, n, s, layer, rows, s < top,
                            _positions(s, _key_dtype(total, s)))
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

    # Only the choices outlive the loop, and the optima too for a kept
    # table; the kernel holds the layer below while it reads it.
    table = DpTable(n, [], [])
    for s, layer in enumerate(subset_layers(c, n, n)):
        if keep_table:
            table.opt.append(layer.opt)
        table.choice.append(layer.choice)
        if s >= 2:
            ledger.recurrence_evals += len(layer.opt) * s
            ledger.gamma_evals += len(layer.opt) * s

    solution = Solution(tuple(_peel(table.choice, list(range(n)))),
                        int(layer.opt[0]))
    if keep_table:
        return solution, ledger, table
    return solution, ledger
