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
one below together with position-major arrays, one column per subset: its
s members, the rank of the subset without each member below the top (s - 1
rows: without the top it is the column less C(top, s)), each member's
column sum sum_{v in S} c[v][x_j], and the subset's bit mask. The subsets
whose top member is x are x added to each subset R of range(x) one size
down, and those are a prefix of the layer below, in order; so a layer's
arrays are that prefix's arrays plus x's terms. x's own column sum, sum_{v
in R} c[v][x], is low[x, R's low h bits] + high[x, R's other bits] for h =
ceil(n_v / 2), from two (n_v, 2^h) and (n_v, 2^(n_v - h)) tables built by
doublings once a layer has a sliced top (_half_sums; 180 KB at n_v = 22
with int16 values). The tops with few rests are gathered in one piece;
the later ones read the layer below in chunks of rests, whose index rows
are converted to intp once and serve every top whose prefix covers the
chunk. The next layer reads only the columns whose top member is below
n_v - 1, the first C(n_v - 1, s), so only those are stored; the rest are
reduced as they are built. qdp's phase 1 runs the same layers up to its
threshold; at its sizes every top is gathered and no table is built.

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

Space, modelled by dp_peak_state_bytes(n_v, b) for b-byte values, which
solve_dp writes to ledger.meta["peak_state_bytes"]: 2^n_v choices (and
optima, when the table is kept), the optima of two adjacent layers, and
their stored rows, (5 + b) s bytes per column of C(n_v - 1, s): s int8
members, s - 1 int32 ranks, s sums and an int32 mask, 7 s bytes with int16
values. Beside them sit the half-mask tables and one rest chunk of
_PIECE // s columns, 20 + 3b bytes per candidate: its intp members, ranks
and mask halves (16 bytes) and one piece's values, sums and keys. Nothing
sized by the layers outlives a solve; the index arrays _gathered caches
are under 0.3 MB per n_v. A planned solve holds instead the (2^n_v, n_v)
column-sum table, 2^n_v * n_v * b bytes, and while it builds a layer up
to 2b + 12 bytes per candidate of the widest one (max_s s C(n_v, s)
candidates), 16 with int16 values: the candidate values and the taken sums
beside the intp copy NumPy makes of an int32 index array, or beside the
packed keys and the cast buffers of their add. A first solve at an n_v
adds its plan's bytes, which the model leaves out. At n_v = 12 with int16
values that is 98 KB + 89 KB + 4 KB of choices, and 197 KB more on a first
solve. Warm tracemalloc peaks read 0.96-1.07x the model at n_v 10-22
(1.22x at 13, where fixed costs weigh most).
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
# 4242) takes 0.56-0.77 s, best of 3 in each of five processes, on a 2-vCPU
# Xeon VM whose speed drifts between processes, and peaks at 121 MB under
# tracemalloc; only index arrays under 0.3 MB stay cached.
_PRACTICAL_MAX_NV = 23

_PIECE = 1 << 15  # candidate values per piece of a layer (measured)
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
    """A table layer's arrays over its first columns, column = rank:
    members[j] is the j-th smallest member and sums[j] its column sum
    sum_{v in S} c[v][x_j]; ranks[j], for each member below the top, is
    the rank of the subset without it (without the top it is the column
    less C(top, s)); masks holds each subset's bit mask."""

    members: np.ndarray
    ranks: np.ndarray
    sums: np.ndarray
    masks: np.ndarray


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
    (first, top, rest, C(top, s - 1), top * n, 2^top): the first top past
    them, then per column its top, its rest's rank and the top's terms.
    For n up to 23 that is at most 1820 columns for one size and 11210 for
    all.
    """
    first = next((x for x in range(s - 1, n) if comb(x, s - 1) >= _SLICED), n)
    top, rest, offset = _columns(n, s, first)
    arrays = (top.astype(np.int8), rest, offset, top * n,
              np.left_shift(1, top, dtype=np.int32))
    for array in arrays:
        array.setflags(write=False)
    return (first, *arrays)


def _half_sums(c, n):
    """sum_{v in R} c[v][x] for every subset R of range(n), with mask m, as
    low[x, m & (2^h - 1)] + high[x, m >> h] for h = ceil(n / 2): two (n,
    2^h) and (n, 2^(n - h)) tables built by doublings in c's dtype.
    Returns (low, high, h)."""
    h = (n + 1) // 2
    tables = []
    for vertices in (range(h), range(h, n)):
        table = np.empty((n, 1 << len(vertices)), c.dtype)
        table[:, 0] = 0
        for i, v in enumerate(vertices):
            np.add(table[:, :1 << i], c[v, :, None],
                   out=table[:, 1 << i:2 << i])
        tables.append(table)
    return (*tables, h)


def _grow(c, ct, halves, n, s, below, rows, keep, positions):
    """Layer s from layer s - 1 and its rows, and the rows of layer s that
    layer s + 1 reads (None unless keep). c and ct are the crossing matrix
    and its transpose in the value dtype, halves _half_sums' tables (None
    while no layer has a sliced top) and positions the key term j in the
    key dtype (module docstring).

    The s-subsets S with top member x take ranks C(x, s) on, in the order
    of their rests R = S \\ x, the first C(x, s - 1) subsets of the layer
    below. Adding x adds C(x, s - 1) to the rank of R without each of its
    members and c[x][x_j] to each member's column sum; x's own candidate
    reads R's optimum, and x's column sum is sum_{v in R} c[v][x].

    The tops with fewer than _SLICED rests are built as one gathered
    piece. The rests of the later tops are read in chunks of the layer
    below, each converted to intp once and shared by every top whose
    prefix covers it: the tops' other candidates gather from the view
    below.opt[C(x, s - 1):], x's own candidates are a slice of below.opt,
    and x's column sums two reads of the half-mask tables. Each piece is
    reduced as soon as it is built, by its packed keys when it is at
    least _WIDE columns wide. Layer s + 1 reads only the first C(n - 1, s)
    columns (top below n - 1), so only those rows are written, and none
    when not keep; a kept layer built as one gathered piece is stored
    whole.
    """
    count = comb(n, s)
    dtype = below.opt.dtype
    layer = _Layer(np.empty(count, dtype), np.empty(count, np.int8))
    first, top, rest, offset, base, bit = _gathered(n, s)
    stored = (count if first == n else comb(n - 1, s)) if keep else 0
    grown = _Rows(np.empty((s, stored), np.int8),
                  np.empty((s - 1, stored), rows.ranks.dtype),
                  np.empty((s, stored), dtype), np.empty(stored, np.int32))
    binom = _binomials(n)

    def reduce(at, vals):
        if at.stop - at.start < _WIDE:
            layer.choice[at] = vals.argmin(axis=0)
            layer.opt[at] = vals.min(axis=0)
        else:
            key = vals.astype(positions.dtype)
            key *= s
            key += positions
            np.divmod(key.min(axis=0), s, out=(layer.opt[at], layer.choice[at]))

    # The gathered piece. R's members and the ranks of S without each of
    # them (R's top's by its column less C(top, s - 1)).
    at = slice(0, len(rest))
    members = rows.members.take(rest, axis=1)
    drop = np.vstack((rows.ranks.take(rest, axis=1),
                      rest - binom[s - 1].take(members[-1])))
    drop += offset
    vals = np.empty((s, len(rest)), dtype)
    below.opt.take(drop, out=vals[:-1])
    below.opt.take(rest, out=vals[-1])
    index = base + members
    if at.stop <= stored:
        sums = grown.sums[:, at]
        grown.members[:-1, at] = members
        grown.members[-1, at] = top
        grown.ranks[:, at] = drop
        np.bitwise_or(rows.masks.take(rest), bit, out=grown.masks[at])
    else:
        sums = np.empty((s, len(rest)), dtype)
    np.add(rows.sums.take(rest, axis=1), c.take(index), out=sums[:-1])
    ct.take(index).sum(axis=0, out=sums[-1])
    vals += sums
    reduce(at, vals)
    if first == n:
        return layer, grown if keep else None

    low, high, h = halves
    sizes, starts = binom[s - 1].tolist(), binom[s].tolist()
    step = max(1, _PIECE // s)
    for a in range(0, sizes[n - 1], step):
        b = min(a + step, sizes[n - 1])
        members = rows.members[:, a:b].astype(np.intp)
        drop = np.empty((s - 1, b - a), np.intp)
        drop[:-1] = rows.ranks[:, a:b]
        np.subtract(np.arange(a, b), binom[s - 1].take(members[-1]),
                    out=drop[-1])
        masks = rows.masks[a:b]
        lows = np.bitwise_and(masks, (1 << h) - 1).astype(np.intp)
        highs = np.right_shift(masks, h).astype(np.intp)
        for x in range(first, n):
            if sizes[x] <= a:
                continue
            width = min(b, sizes[x]) - a
            at = slice(starts[x] + a, starts[x] + a + width)
            vals = np.empty((s, width), dtype)
            # in range, so "clip" reads as "raise" would, without its copy
            np.take(below.opt[sizes[x]:], drop[:, :width], out=vals[:-1],
                    mode="clip")
            vals[-1] = below.opt[a:a + width]
            terms = c[x].take(members[:, :width])
            own = low[x].take(lows[:width])  # x's column sum
            own += high[x].take(highs[:width])
            if at.stop <= stored:
                piece = _Rows(*(array[..., at] for array in grown))
                piece.members[:-1] = rows.members[:, a:a + width]
                piece.members[-1] = x
                np.add(rows.ranks[:, a:a + width], sizes[x],
                       out=piece.ranks[:-1])
                np.add(drop[-1, :width], sizes[x], out=piece.ranks[-1])
                np.bitwise_or(masks[:width], 1 << x, out=piece.masks)
                np.add(rows.sums[:, a:a + width], terms, out=piece.sums[:-1])
                piece.sums[-1] = own
                vals += piece.sums
            else:
                terms += rows.sums[:, a:a + width]
                vals[:-1] += terms
                vals[-1] += own
            reduce(at, vals)
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
    c = c.astype(dtype)
    ct = np.ascontiguousarray(c.T)
    ranks = np.int32 if comb(n, n // 2) < 2 ** 31 else np.int64
    rows = _Rows(np.arange(n, dtype=np.int8)[None], np.zeros((0, n), ranks),
                 np.zeros((1, n), dtype),
                 np.left_shift(1, np.arange(n, dtype=np.int32)))
    halves = None  # built for the first layer with a sliced top
    for s in range(2, top + 1):
        if halves is None and _gathered(n, s)[0] < n:
            halves = _half_sums(c, n)
        layer, rows = _grow(c, ct, halves, n, s, layer, rows, s < top,
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


@lru_cache(maxsize=64)
def dp_peak_state_bytes(n_v: int, value_bytes: int = 2) -> int:
    """Modelled peak bytes of a solve_dp call without a kept table, for
    values of value_bytes bytes (module docstring, Space); cached, since
    solve_dp asks on every call.

    Up to n_v = _PLANNED: the (2^n_v, n_v) column-sum table, 2b + 12
    bytes per candidate of the widest layer and 2^n_v choices. Past it:
    2^n_v choices, the half-mask tables, and the largest over sizes s of
    the optima of layers s - 1 and s, their stored rows, (5 + b) s bytes
    per column of C(n_v - 1, s) (members, s - 1 ranks, sums and a mask),
    and 20 + 3b bytes per candidate of a rest chunk (its intp conversions
    and one piece's values, sums and keys). Caches that outlive a solve
    (the plan, index arrays) are left out."""
    n, b = n_v, value_bytes
    if n < 2:
        return 1 << n
    if n <= _PLANNED:
        widest = max(s * comb(n, s) for s in range(2, n + 1))
        return (1 << n) * (n * b + 1) + (2 * b + 12) * widest

    def layer(s):
        rows = (5 + b) * ((s - 1) * comb(n - 1, s - 1) + s * comb(n - 1, s))
        chunk = s * min(_PIECE // s, comb(n - 1, s - 1))
        return b * (comb(n, s - 1) + comb(n, s)) + rows + (20 + 3 * b) * chunk

    halves = n * b * ((1 << (n + 1) // 2) + (1 << n // 2))
    return (1 << n) + halves + max(layer(s) for s in range(2, n + 1))


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
    ledger.meta["peak_state_bytes"] = dp_peak_state_bytes(n,
                                                          layer.opt.itemsize)
    if keep_table:
        return solution, ledger, table
    return solution, ledger
