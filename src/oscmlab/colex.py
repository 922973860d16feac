"""The colex subset format that dp, qdp and dc share.

A layer holds every s-subset of range(n) by its rank in the combinatorial
number system (colex order): the subset x_0 < x_1 < ... < x_{s-1} has rank

    sum_i C(x_i, i + 1),

so reading a smaller subset's value is an array gather. The subsets whose
top member is x take ranks C(x, s) on, and their rests, each subset
without x, are the first C(x, s - 1) subsets of the layer below, in
order: a prefix of it. So a layer grows from the one below, one top
member at a time (columns, members).

A split of an s-subset into a k-subset W and the rest is given by member
positions. When the W sides run over the k-combinations of range(s) in
lexicographic order, their complements run over the (s - k)-combinations
in reverse lexicographic order; and mapping x to s - 1 - x turns colex
order with ascending members into reverse lexicographic order with
descending members. So both sides' rows are member tables read backwards
(split_rows).

The split kernel (search_layer) evaluates one layer of splits: the best
split of every s-subset of range(n) into a k-subset W and the rest. It
serves qdp's search layers and dc's bounded frames. A split (W, S\\W) of
a subset S costs

    OPT(W) + OPT(S\\W) + sum_{v in W} rho_S(v) - Sym(W),

with rho_S(v) = sum_{u in S} c[v][u] and Sym(W) = sum_{v,u in W} c[v][u];
with k = s - 1 and the rest one vertex, that is the peel of a table
layer. Splits are enumerated lexicographically over the ascending member
positions, and a subset keeps its first strictly-best split. A layer is
laid out position-major: the members of every s-subset are one cached
(s, C(n, s)) int8 array (members), one column per subset in rank order.
A chunk is an (s, m) block of it against a run of its splits, at most
``chunk`` split values in all: m = chunk // C(s, k) subsets against every
split, or one subset against runs of ``chunk`` splits where there are
more. A chunk's index rows depend on n alone: its members' flat offsets
member * m + column in its member map (offsets), and the colex ranks of
each split's W side and rest over split_rows' position rows
(split_ranks), in index_dtype of C(n, side); by the reverse order of the
rests, an even split's rest ranks are its W ranks reversed.

- rho of every member is one product of c with the block's (n, m) 0/1
  member map, read back at the members (rho). c is in the floats of
  matrix.exact_floats: float32 while c.sum() < 2^24 and float64 beyond,
  where every sum is exact.
- The W side's rho sums are one product of a (C(s, k), s) 0/1 pick map
  with rho where the regime keeps pick maps, else k row takes, cast
  straight into packed keys value * C(s, k) + j, j the split's index in
  the layer, after one gather per side. A subset's least key over its
  runs is its first best split, split back with one divmod. Values are
  never negative and at most c.sum(), so keys are int32 while (c.sum() +
  1) * C(s, k) < 2^31 and int64 beyond. Choices are int8 where C(s, k)
  <= 2^7, else in its index_dtype.

Regimes. The kernel runs in one of the paper's two space regimes, named
by split_layers' ``cached``; both compute the same optima, choices and
Sym. The member map, its product and rho add 8n + 20s bytes per subset
of a chunk in either.

- Cached, qdp's searches beside their O*(1.728^n) table. Chunks hold
  CHUNK split values. A layer in one run reads its chunks' index rows
  (offsets, W ranks and rest ranks, as intp) from a row plan kept across
  solves while they fit PLAN_BYTES (row_plan); any other layer builds
  each chunk's ranks as it runs. A layer of at most PICKED splits sums
  its W sides through its pick map, also kept (table_bytes counts both).
  A planned chunk with int32 keys holds ~8 bytes per split value at
  once, the key and the product it is cast from, where the unplanned
  kernel held ~14 (an intp copy of the ranks per take), so CHUNK is
  2^14 * 14 / 8 = 28672. PLAN_BYTES holds n = 16's (8, 4) layer; n =
  17's (8, 4) and (9, 5) layers (15 and 51 MB) and every larger one
  build their ranks per chunk.
- Uncached, dc's frames in polynomial space. No row plan or pick map is
  read or kept: each chunk builds its ranks and sums its W sides by row
  takes. A chunk of m subsets of range(n) holds about m(n + C(s, k))
  values at once, the member map's and one key per split, and at most
  C(2h, h), h = ceil(n/2): the root's splits at an even n, twice them at
  an odd n, whose root is half the next frame's while its other layers
  are nearly as large (chunk_size).

A chain of such layers, smallest size first, is one split_layers call:
qdp's searches and dc's bounded frames. Each layer reads the optima of
its W and rest sizes and the Sym of its W size from two dicts by size.
Each size's optimum and Sym are dropped after the last layer that reads
them, and a layer's Sym is kept only where a later layer reads its size
as a W side, so a chain holds the layers still to be read, the choices,
and one chunk. split_order rebuilds an order from the choices: down the
first best splits, W's order first, to the leaves, which the caller
orders (qdp peels its table, dc enumerates base cases).

Tables are built and cached on first use; nothing is built at import.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, comb
from typing import NamedTuple

import numpy as np


@lru_cache(maxsize=16)
def binomials(n):
    """C(x, i) at [i, x] for 0 <= i <= n + 1 and 0 <= x < n."""
    return np.array([[comb(x, i) for x in range(n)] for i in range(n + 2)],
                    dtype=np.int64)


def rank(members) -> int:
    """Colex rank of a subset given by its ascending members."""
    return sum(comb(x, i + 1) for i, x in enumerate(members))


def key_dtype(bound, width):
    """Dtype of the keys value * width + j for values in 0..bound and j in
    0..width - 1: int32 while (bound + 1) * width < 2^31, int64 beyond."""
    return np.int32 if (bound + 1) * width < 2 ** 31 else np.int64


def index_dtype(size):
    """The dtype of index rows into size entries: int16 where all fit."""
    return np.int16 if size <= 2 ** 15 else np.int32


def value_dtype(total):
    """The narrowest of int16/int32/int64 that holds values in 0..total."""
    return (np.int16 if total < 2 ** 15 else np.int32 if total < 2 ** 31
            else np.int64)


class Layer(NamedTuple):
    """Optimum and winning candidate of every subset of one size, by rank.
    The candidate is the position of the last vertex in a table layer and
    the index of the split in one of qdp's search layers."""

    opt: np.ndarray
    choice: np.ndarray


def columns(n, s, first):
    """Per column of the s-subsets of range(n) whose top member x is below
    first, a prefix of the layer in rank order: x, the rank of the subset
    without x in the layer below, and C(x, s - 1), which adding x adds to
    the rank of the subset without each earlier member."""
    binom = binomials(n)
    top = np.repeat(np.arange(first), binom[s - 1, :first])
    rest = np.arange(len(top)) - binom[s].take(top)
    return top, rest, binom[s - 1].take(top)


def peel(choice, members):
    """Optimal order of a table subset, popped from the list of its
    ascending members; choice[s][rank] is the position of an s-subset's
    last vertex."""
    out = []
    while members:
        out.append(members.pop(choice[len(members)][rank(members)]))
    return out[::-1]


@lru_cache(maxsize=64)
def members(n, s):
    """Every s-subset of range(n) as a column of ascending members, column =
    rank: an (s, C(n, s)) int8 array.

    The subsets with top member x take columns C(x, s) on; the rest of each
    is one of the first C(x, s - 1) columns of the layer below, in order.
    Sizes 0 and n have one subset each, so qdp's top search of range(n)
    builds no layer above ceil(n/2).
    """
    if s in (0, n):
        table = np.arange(s, dtype=np.int8)[:, None]
        table.setflags(write=False)
        return table
    top, rest = columns(n, s, n)[:2]  # the rank offsets go at once
    top = top.astype(np.int8)
    table = np.vstack((members(n, s - 1).take(rest, axis=1), top))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def split_rows(s, k):
    """Member positions of W and of the rest for every split of an s-subset,
    W running over the k-combinations of range(s) in lexicographic order
    (the rests in reverse lexicographic order): an (s, C(s, k)) int8 array,
    one column per split, whose row i < k holds the position of W's i-th
    member and row k + i that of the rest's i-th member."""
    rows = np.vstack(((s - 1 - members(s, k))[::-1, ::-1],
                      (s - 1 - members(s, s - k))[::-1]))
    rows.setflags(write=False)
    return rows


# The cached regime's constants (module docstring, Regimes): split values
# per chunk, and bytes of index rows a layer keeps across solves. Its
# W-side rho sums of a layer with at most PICKED splits are one product
# with its pick map, which beat k row takes at every split count measured
# (6 to 12870); the cap keeps each cached map under 48 KB.
CHUNK = 28672
PLAN_BYTES = 1 << 23
PICKED = 1 << 10


def chunk_size(n, s, k, cached):
    """Split values per chunk of the layer of s-subsets of range(n) split
    at k: CHUNK when cached, else at most C(2h, h), h = ceil(n/2), in
    whole subsets (module docstring, Regimes)."""
    if cached:
        return CHUNK
    splits, h = comb(s, k), ceil(n / 2)
    return splits * max(1, comb(2 * h, h) // (n + splits))


@lru_cache(maxsize=64)
def pick_map(s, k):
    """split_rows' W positions as a (C(s, k), s) float32 0/1 map, one row
    per split."""
    picks = split_rows(s, k)[:k]
    table = np.zeros((picks.shape[1], s), np.float32)
    np.put_along_axis(table, picks.T, 1, axis=1)
    table.setflags(write=False)
    return table


def sum_rows(tables, positions):
    """sum_i tables[i][positions[i]]: one row per split, one column per
    subset."""
    total = tables[0].take(positions[0], axis=0)
    for table, at in zip(tables[1:], positions[1:]):
        total += table.take(at, axis=0)
    return total


def offsets(block):
    """The flat offsets member * m + column of an (s, m) member block's
    entries in its (n, m) member map, as intp."""
    m = block.shape[1]
    at = block * np.intp(m)
    at += np.arange(m)
    return at


def rho(c, at):
    """rho_S(v) = sum_{u in S} c[v][u] for each member v of each subset of
    an (s, m) block given by its offsets, in c's float dtype: one product
    of c with the block's (n, m) 0/1 member map, read back at the members."""
    m = at.shape[1]
    member_map = np.zeros(len(c) * m, c.dtype)
    member_map[at] = 1
    return (c @ member_map.reshape(-1, m)).take(at)


def sym(c, s, dtype):
    """Sym(S) = sum_{v in S} rho_S(v) of every s-subset, by rank, in dtype,
    from chunks of at most CHUNK member map entries."""
    table = members(len(c), s)
    out = np.empty(table.shape[1], dtype)
    step = max(1, CHUNK // len(c))
    for lo in range(0, len(out), step):
        at = slice(lo, lo + step)
        out[at] = rho(c, offsets(table[:, at])).sum(axis=0)
    return out


def split_ranks(n, k, block, run, mirrored):
    """Colex ranks of the W sides of the splits in run for every subset of
    an (s, m) member block, and of their rests (None where mirrored), as
    (splits in run, m) rows in the index_dtype of each side's rank count:
    sums of the terms C(member, i + 1), one per member position of
    split_rows' rows."""
    rows = split_rows(len(block), k)
    # C(x, i) for x < n and i up to a side's size, which is at most
    # ceil(n/2), is at most C(n, side), whose index dtype holds every rank
    binom = binomials(n)[1:]

    def side(positions):
        width = len(positions)
        terms = binom[:width].astype(index_dtype(comb(n, width)))
        return sum_rows([row.take(block) for row in terms], positions[:, run])

    return side(rows[:k]), None if mirrored else side(rows[k:])


@lru_cache(maxsize=16)
def row_plan(n, s, k, step):
    """Per chunk of step subsets of the layer of s-subsets of range(n)
    split at k, its member offsets, W ranks and rest ranks (None for an
    even split), as intp; None for a layer in runs of splits (step 0) or
    whose rows would pass PLAN_BYTES. The rows stay writeable: take
    copies a read-only index array."""
    count, splits = comb(n, s), comb(s, k)
    mirrored = 2 * k == s
    if not step or (s + splits * (2 - mirrored)) * count * 8 > PLAN_BYTES:
        return None
    table = members(n, s)
    chunks = []
    for lo in range(0, count, step):
        block = table[:, lo:lo + step]
        chunks.append((offsets(block), *(
            None if ranks is None else ranks.astype(np.intp)
            for ranks in split_ranks(n, k, block, slice(None), mirrored))))
    return chunks


def table_bytes(n, widths):
    """Bytes of the tables a cached chain over range(n) whose sizes s split
    at widths[s] leaves cached: member layers (one caches every smaller
    one of its n), split rows, pick maps and row plans."""
    arrays = [members(size, i) for size, i in {(n, n)} | {
        (s, i) for s, k in widths.items() for i in range(max(k, s - k) + 1)}]
    for s, k in widths.items():
        arrays.append(split_rows(s, k))
        if comb(s, k) <= PICKED:
            arrays.append(pick_map(s, k))
        arrays += [row for rows in row_plan(n, s, k, CHUNK // comb(s, k)) or ()
                   for row in rows if row is not None]
    return sum(array.nbytes for array in arrays)


def search_layer(c, s, k, w_value, rest_opt, chunk, cached):
    """Best split of every s-subset into a k-subset W and the rest, and
    the Sym of every s-subset; ties keep the first split. c is the crossing
    matrix in a float dtype whose sums are exact; w_value is OPT - Sym of
    the k-subsets and rest_opt OPT of the (s - k)-subsets, both in the
    value dtype. A chunk holds at most ``chunk`` split values; ``cached``
    names the regime: a cached layer reads its row plan and pick map
    (module docstring)."""
    n = len(c)
    rows = split_rows(s, k)
    splits = rows.shape[1]
    keys = key_dtype(int(c.sum(dtype=np.float64)), splits)
    picks = pick_map(s, k) if cached and splits <= PICKED else None
    plan = row_plan(n, s, k, chunk // splits) if cached else None
    step = max(1, chunk // splits)
    runs = [slice(j, min(j + chunk, splits)) for j in range(0, splits, chunk)]
    # over all splits, an even split's rest ranks are its W ranks reversed
    mirrored = 2 * k == s and len(runs) == 1
    table = members(n, s)

    def least(values, w_ranks, rest_ranks, run):
        """Each subset's least key over one run of splits of a chunk."""
        if picks is None:
            key = sum_rows([values] * k, rows[:k, run])
        else:
            key = (picks[run] @ values).astype(keys)
        if rest_ranks is None:
            key += rest_opt.take(w_ranks)[::-1]
        else:
            key += rest_opt.take(rest_ranks)
        key += w_value.take(w_ranks)
        key *= splits
        key += np.arange(run.start, run.stop, dtype=keys)[:, None]
        return key.min(axis=0)

    count = table.shape[1]
    layer = Layer(np.empty(count, rest_opt.dtype), np.empty(
        count, np.int8 if splits <= 2 ** 7 else index_dtype(splits)))
    sums = np.empty(count, rest_opt.dtype)
    for lo in range(0, count, step):
        at = slice(lo, lo + step)
        block = table[:, at]
        flat, *ranks = plan[lo // step] if plan else (
            offsets(block), *split_ranks(n, k, block, runs[0], mirrored))
        values = rho(c, flat)
        sums[at] = values.sum(axis=0)
        if picks is None:
            values = values.astype(keys)
        best = least(values, *ranks, runs[0])
        for run in runs[1:]:
            np.minimum(best, least(values, *split_ranks(n, k, block, run,
                                                        mirrored), run),
                       out=best)
        layer.opt[at], layer.choice[at] = np.divmod(best, splits)
    return layer, sums


def split_layers(c, steps, opt, sym, cached):
    """Run search layers, smallest size first, and return each one's
    choices by size. A step (s, k) splits the s-subsets at W size k, in
    the regime ``cached`` names; opt and sym map sizes to the optima and
    Sym that the steps read, and are updated in place (module docstring):
    what is left is the last step's optimum and the arrays no step reads."""
    choices = {}
    for s, k in steps:
        w_value, rest_opt = opt[k] - sym[k], opt[s - k]
        for size in {k, s - k}:
            if all(size not in (w, r - w) for r, w in steps if r > s):
                del opt[size]
                sym.pop(size, None)
        layer, sums = search_layer(c, s, k, w_value, rest_opt,
                                   chunk_size(len(c), s, k, cached), cached)
        del w_value, rest_opt
        opt[s] = layer.opt
        if any(w == s for _, w in steps):
            sym[s] = sums
        choices[s] = layer.choice
        del layer, sums
    return choices


def split_order(members, choice, widths, leaf):
    """Optimal order of the subset given by its ascending members, down the
    first best splits: a size in widths splits at W size widths[s] by its
    choice (split_layers), W's order first, and any other size is a leaf,
    ordered by leaf(members). Module level, so no closure cycle keeps the
    layers alive after a solve."""
    s = len(members)
    if s not in widths:
        return leaf(members)
    k = widths[s]
    split = [members[i] for i in split_rows(s, k)[:, choice[s][rank(members)]]]
    return (split_order(split[:k], choice, widths, leaf)
            + split_order(split[k:], choice, widths, leaf))
