"""Exact minimum crossings by dynamic programming over vertex subsets.

OPT(S) for a subset S of the free layer is the minimum crossing count of a
drawing of S alone (plus, implicitly, the fixed layer). Peeling the last
vertex gives

    OPT(S) = min_{w in S}  OPT(S \\ {w}) + sum_{v in S \\ {w}} c[v][w]

with OPT of singletons 0: exactly n_v * 2^(n_v - 1) - n_v recurrence
evaluations (every (S, w) pair with |S| >= 2).

The table is kept one subset-size layer at a time, in the colex format
of oscmlab.colex: reading a smaller subset's optimum is an array gather,
and the subsets whose top member is x are x added to a prefix of the
layer below. A candidate's column sum sum_{v in S} c[v][x_j], over the
mask m of S \\ x_j, is low[m & (2^h - 1), x_j] + high[m >> h, x_j], from
two (2^h, n_v) and (2^(n_v - h), n_v) tables that each solve builds by
doublings in the value dtype (_half_sums): h = n_v, with no high table,
while no top is sliced (n_v <= 12), else ceil(n_v / 2), 180 KB at n_v =
22 with int16 values.

Every layer is built by one loop (_grow). The columns whose top member
has fewer than _SLICED rests, the s-subsets of range(first) and every
column up to n_v = 12, are gathered along a plan cached per n_v (_plan,
built on a first solve, never at import): per column and member x_j, the
rank of S \\ x_j in the layer below and x_j's flat indices in the two
tables, so they cost one take of the layer below, one or two of the
tables and the reduction. The later, sliced tops read the layer below in
chunks of rests, whose members, ranks and mask halves are converted to
intp once and serve every top whose prefix covers the chunk. Those rows
(members, the rank without each member below the top, member column sums
and the bit mask) cover the first C(n_v - 1, s - 1) columns, whose top is
below n_v - 1, and a layer keeps them only when the next one has a sliced
top: for its gathered part the plan's members, ranks and masks with the
column sums just taken (the plan keeps members and masks for those
layers only), beyond it its sliced tops' own. qdp's phase 1 runs the same
layers up to its threshold. The plan's rows are int16 where every index
fits, else int32: 20 KB at n_v = 10, 147 KB at 12, 608 KB at 20 and 1.11
MB at 23.

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
optima, when the table is kept), the half-mask tables, the optima of two
adjacent layers and the rows they keep, (5 + b) s bytes per column of
C(n_v - 1, s) (s int8 members, s - 1 int32 ranks, s sums, an int32
mask), a layer's gathered columns at 2b + 12 bytes per candidate (values
and sums beside an intp index copy or the packed keys) and one rest chunk
of _PIECE // s columns at 20 + 3b (its intp members, ranks and mask
halves and one piece's values, sums and keys). Nothing sized by the
layers outlives a solve; a first solve at an n_v adds its plan. Warm
tracemalloc peaks read 0.94-1.06x the model at n_v 9-22, but 0.72x at
13, where the layers whose only sliced top is 12 keep the plan's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from . import colex
from .bigraph import BipartiteInstance, Solution
from .errors import SizeLimitError
from .ledger import CostLedger
from .matrix import build_crossing_matrix

# Time and space double with each vertex: n_v = 23 (8 fixed vertices, edge
# probability 0.5, tests/instances.py's random_instance with seeds 1 and
# 4242) takes 0.58-0.97 s, best of 3 in each of five processes alternated
# with the previous kernel's (0.55-0.91 s), on a 2-vCPU Xeon VM whose speed
# drifts; it peaks at 121 MB under tracemalloc and caches a 1.11 MB plan.
_PRACTICAL_MAX_NV = 23

_PIECE = 1 << 15  # candidate values per piece of a layer (measured)
_SLICED = 1 << 9  # rests from which a top's columns are copied as slices
_WIDE = 1 << 8  # columns from which packed keys beat argmin + min (measured)


@lru_cache(maxsize=128)
def _positions(s, keys):
    """The key term j of a layer's candidate positions: an (s, 1) column."""
    column = np.arange(s, dtype=keys)[:, None]
    column.setflags(write=False)
    return column


class _Rows(NamedTuple):
    """A table layer's arrays over its first columns, column = rank:
    members[j] is the j-th smallest member and sums[j] its column sum
    sum_{v in S} c[v][x_j]; ranks[j], int32, for each member below the top,
    is the rank of the subset without it (without the top it is the column
    less C(top, s)); masks holds each subset's bit mask."""

    members: np.ndarray
    ranks: np.ndarray
    sums: np.ndarray
    masks: np.ndarray


class _Gathered(NamedTuple):
    """_plan's arrays for layer s's gathered columns, the s-subsets S of
    range(first) by rank: ranks[j] is the rank of S without its j-th
    member x_j in layer s - 1, low[j] and high[j] (None when h = n) the
    flat indices of x_j's column sum in _half_sums' tables. members and
    masks cover the columns that the sliced tops of layer s + 1 read, and
    are None where it has none."""

    first: int
    ranks: np.ndarray
    low: np.ndarray
    high: np.ndarray | None
    members: np.ndarray | None
    masks: np.ndarray | None


def _first(n, s):
    """The first top member of layer s of range(n) with at least _SLICED
    rests (C(x, s - 1) subsets one size down), n where there is none."""
    return next((x for x in range(s - 1, n) if comb(x, s - 1) >= _SLICED), n)


def _half_bits(n):
    """The mask bits the low half-mask table spans: all n while every top
    of every layer is gathered (C(n - 1, s - 1) < _SLICED for every s, so
    n <= 12), else ceil(n / 2)."""
    return n if comb(n - 1, (n - 1) // 2) < _SLICED else (n + 1) // 2


@lru_cache(maxsize=_PRACTICAL_MAX_NV + 1)
def _plan(n):
    """A _Gathered per layer s = 2..n of range(n). A layer's gathered
    columns take their rests from the gathered columns of the layer below
    (first grows by at most one a layer), so each layer's arrays grow
    from the last one's along colex.columns, with subset masks beside
    them."""
    h = _half_bits(n)
    members = np.arange(n, dtype=np.int8)[None]
    ranks = np.zeros((1, n), np.int64)
    masks = np.left_shift(1, np.arange(n, dtype=np.int32))
    plan = []
    for s in range(2, n + 1):
        first = _first(n, s)
        top, rest, offset = colex.columns(n, s, first)
        members = np.vstack((members.take(rest, axis=1), top.astype(np.int8)))
        ranks = np.vstack((ranks.take(rest, axis=1) + offset, rest))
        masks = masks.take(rest) + np.left_shift(1, top, dtype=np.int32)
        without = masks - np.left_shift(1, members, dtype=np.int32)  # S \ x_j
        low = (without & ((1 << h) - 1)) * n + members
        high = (without >> h) * n + members if h < n else None
        read = min(len(top), comb(n - 1, s)) if _first(n, s + 1) < n else 0
        arrays = _Gathered(
            first, ranks.astype(colex.index_dtype(comb(n, s - 1))),
            low.astype(colex.index_dtype(n << h)),
            None if high is None
            else high.astype(colex.index_dtype(n << n - h)),
            members[:, :read].astype(np.int8) if read else None,
            masks[:read].astype(np.int32) if read else None)
        for array in arrays[1:]:
            if array is not None:
                array.setflags(write=False)
        plan.append(arrays)
    return tuple(plan)


def _half_sums(c, n, h):
    """sum_{v in R} c[v][x] for every subset R of range(n), with mask m, as
    low[(m & (2^h - 1)) * n + x] + high[(m >> h) * n + x]: two flattened
    (2^h, n) and (2^(n - h), n) tables (high None when h = n), each built
    by doublings in c's dtype into the block past the last."""
    def table(vertices):
        sums = np.empty((1 << len(vertices), n), c.dtype)
        sums[0] = 0
        for i, v in enumerate(vertices):
            np.add(sums[:1 << i], c[v], out=sums[1 << i:2 << i])
        return sums.ravel()

    return table(range(h)), table(range(h, n)) if h < n else None


def _reduce(vals, sums, total, out=None):
    """Each column's least candidate value vals + sums and its first
    position among the least, as a colex.Layer (into out's arrays if
    given): by packed keys (module docstring) from _WIDE columns on, else
    by argmin and min. vals is overwritten."""
    s, width = vals.shape
    vals += sums
    if width < _WIDE:
        if out is None:
            return colex.Layer(vals.min(axis=0),
                               vals.argmin(axis=0).astype(np.int8))
        vals.min(axis=0, out=out.opt)
        out.choice[:] = vals.argmin(axis=0)
        return out
    if out is None:
        out = colex.Layer(np.empty(width, vals.dtype), np.empty(width, np.int8))
    positions = _positions(s, colex.key_dtype(total, s))
    key = vals.astype(positions.dtype)  # a casting add is ~2.5x slower
    key *= s
    key += positions
    np.divmod(key.min(axis=0), s, out=(out.opt, out.choice))
    return out


def _grow(c, halves, gathered, n, s, below, rows, keep, total):
    """Layer s from layer s - 1, and the rows of layer s that the sliced
    tops of layer s + 1 read (None unless keep). c is the crossing matrix
    in the value dtype, halves _half_sums' tables, gathered _plan's arrays
    for layer s, rows those of layer s - 1 and total c.sum().

    The s-subsets S with top member x take ranks C(x, s) on, in the order
    of their rests R = S \\ x, the first C(x, s - 1) subsets of the layer
    below. Adding x adds C(x, s - 1) to the rank of R without each of its
    members and c[x][x_j] to each member's column sum; x's own candidate
    reads R's optimum, and x's column sum is sum_{v in R} c[v][x].

    The gathered columns take the layer below and the half tables along
    the plan. The later tops read the layer below in chunks of rests, each
    converted to intp once and shared by every top whose prefix covers it:
    their other candidates gather from the view below.opt[C(x, s - 1):],
    x's own are a slice of below.opt. Each piece is reduced as soon as it
    is built. Layer s + 1 reads only the first C(n - 1, s) columns (top
    below n - 1), so only those rows are kept.
    """
    low, high = halves
    width = gathered.ranks.shape[1]
    stored = comb(n - 1, s) if keep else 0
    if stored > width:  # rows of sliced tops too: the gathered part copied
        grown = _Rows(np.empty((s, stored), np.int8),
                      np.empty((s - 1, stored), np.int32),
                      np.empty((s, stored), below.opt.dtype),
                      np.empty(stored, np.int32))
        grown.members[:, :width] = gathered.members
        grown.ranks[:, :width] = gathered.ranks[:-1]
        grown.masks[:width] = gathered.masks
        sums = grown.sums[:, :width]
        # in range, so "clip" reads as "raise" would, without its copy
        low.take(gathered.low, out=sums, mode="clip")
    else:
        sums = low.take(gathered.low)
        grown = _Rows(gathered.members, gathered.ranks[:-1].astype(np.int32),
                      sums, gathered.masks) if keep else None
    if high is not None:
        sums += high.take(gathered.high)
    vals = below.opt.take(gathered.ranks)
    if gathered.first == n:
        return _reduce(vals, sums, total), grown
    dtype, count = below.opt.dtype, comb(n, s)
    layer = colex.Layer(np.empty(count, dtype), np.empty(count, np.int8))
    _reduce(vals, sums, total,
            colex.Layer(layer.opt[:width], layer.choice[:width]))

    h = _half_bits(n)
    binom = colex.binomials(n)
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
        lows *= n
        highs = np.right_shift(masks, h).astype(np.intp)
        highs *= n
        for x in range(gathered.first, n):
            if sizes[x] <= a:
                continue
            width = min(b, sizes[x]) - a
            at = slice(starts[x] + a, starts[x] + a + width)
            vals = np.empty((s, width), dtype)
            np.take(below.opt[sizes[x]:], drop[:, :width], out=vals[:-1],
                    mode="clip")
            vals[-1] = below.opt[a:a + width]
            if at.stop <= stored:
                piece = _Rows(*(array[..., at] for array in grown))
                piece.members[:-1] = rows.members[:, a:a + width]
                piece.members[-1] = x
                np.add(rows.ranks[:, a:a + width], sizes[x],  # int32, uncast
                       out=piece.ranks[:-1])
                np.add(drop[-1, :width], sizes[x], out=piece.ranks[-1])
                np.bitwise_or(masks[:width], 1 << x, out=piece.masks)
                sums = piece.sums
            else:
                sums = np.empty((s, width), dtype)
            np.add(rows.sums[:, a:a + width], c[x].take(members[:, :width]),
                   out=sums[:-1])
            low[x:].take(lows[:width], out=sums[-1], mode="clip")
            sums[-1] += high[x:].take(highs[:width])  # x's column sum
            _reduce(vals, sums, total,
                    colex.Layer(layer.opt[at], layer.choice[at]))
    return layer, grown


def subset_layers(c, n, top):
    """Yield the table layers of sizes 0..top for the n x n crossing matrix
    c: OPT(S) = min_w OPT(S \\ w) + sum_{v in S} c[v][w] for every s-subset
    S, the choice being w's position among the members (ties keep the
    smallest w). Values are in the narrowest of int16/int32/int64 that
    holds c.sum(), a bound on every value computed; layers hold no Sym."""
    total = int(c.sum())
    dtype = (np.int16 if total < 2 ** 15 else np.int32 if total < 2 ** 31
             else np.int64)
    yield colex.Layer(np.zeros(1, dtype), np.zeros(1, np.int8))
    # a singleton costs 0; to the kernel its rest is the empty set, rank 0
    layer = colex.Layer(np.zeros(n, dtype), np.zeros(n, np.int8))
    if top:
        yield layer
    if top < 2:
        return
    c = c.astype(dtype)
    plan = _plan(n)
    halves = _half_sums(c, n, _half_bits(n))
    rows = None  # layer 2 is gathered whole: its tops have < n rests
    for s, gathered in enumerate(plan[:top - 1], 2):
        keep = s < top and gathered.members is not None
        layer, rows = _grow(c, halves, gathered, n, s, layer, rows, keep,
                            total)
        yield layer


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
        return int(self.opt[len(members)][colex.rank(members)])

    def order_of(self, members) -> tuple:
        """Optimal ordering of the subset, rebuilt from last-vertex choices."""
        return tuple(colex.peel(self.choice, self._members(members)))


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
    values of value_bytes bytes (module docstring, Space): 2^n_v choices,
    the half tables and, at the widest size s, the optima of layers s - 1
    and s, the rows they keep, the gathered columns and one rest chunk.
    The plan, cached across solves, is left out; the model is cached, as
    solve_dp asks on every call."""
    n, b = n_v, value_bytes
    if n < 2:
        return 1 << n

    def rows(s):
        return (5 + b) * s * comb(n - 1, s) if _first(n, s + 1) < n else 0

    def layer(s):
        first = _first(n, s)
        chunk = s * min(_PIECE // s, comb(n - 1, s - 1)) if first < n else 0
        return (b * (comb(n, s - 1) + comb(n, s)) + rows(s - 1) + rows(s)
                + (2 * b + 12) * s * comb(first, s) + (20 + 3 * b) * chunk)

    h = _half_bits(n)
    halves = n * b * ((1 << h) + (1 << n - h if h < n else 0))
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

    solution = Solution(tuple(colex.peel(table.choice, list(range(n)))),
                        int(layer.opt[0]))
    ledger.meta["peak_state_bytes"] = dp_peak_state_bytes(n,
                                                          layer.opt.itemsize)
    if keep_table:
        return solution, ledger, table
    return solution, ledger
