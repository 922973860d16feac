"""Hybrid quantum-classical subset DP, simulated with exact accounting.

Phase 1 runs the classical subset recurrence for every subset of size at
most t = ceil((1 - alpha) * n / 4), storing the optimum and an optimal
ordering per subset (the QRAM table). Phase 2 evaluates the full optimum
through three nested minimum-finding searches over balanced splits — sizes
ceil(n/2), then ceil(n/4), then ceil(alpha*n/4) — whose leaves are unit-cost
table reads. A level whose subset already fits the table short-circuits to
a read.

Cost model (instance independent, what the ledger must reproduce):

    classical_cost = sum_{i<=t} C(n, i) * i
    quantum_calls  = L1 * (1 + L2 * (1 + L3)),   L = ceil(c * sqrt(domain))

with domains C(n, ceil(n/2)), C(ceil(n/2), ceil(n/4)),
C(ceil(n/4), ceil(alpha*n/4)) and c the configured call constant. Each
charged query at a level carries one nested search at the next level. At
the balancing alpha (about 0.055362) both phases grow like 1.728^n.

Below min_quantum_n, or when t >= n, the solver silently degenerates to the
plain DP (full table, zero oracle calls).

The simulation evaluates both phases one subset-size layer at a time in
NumPy, in the colex format of oscmlab.colex that dp's table layers use, so
reading a smaller subset's optimum is an array gather. Phase 1 is dp's
table layers (dp.subset_layers, which builds every layer along its cached
plan) run up to size t, keeping for each subset its optimum and its chosen
last vertex (ties keep the smallest vertex). Phase 2 rests on the searches
reaching every subset of each search size: level 1 enumerates all
ceil(n/2)-subsets and their complements, and so on down. So each search
size is one layer too, evaluated bottom-up after the sizes it splits into.
A split (W, S\\W) of a subset S costs

    OPT(W) + OPT(S\\W) + sum_{v in W} rho_S(v) - Sym(W),

with rho_S(v) = sum_{u in S} c[v][u] and Sym(W) = sum_{v,u in W} c[v][u].
A search layer keeps Sym per subset beside its optimum; the Sym of a table
size that a search reads as its W side is summed before the searches run,
from the same product as a search layer's rho (dp's table layers carry
none). Splits are enumerated lexicographically over the ascending member
positions (the order of dc.split_min) and a subset keeps its first
strictly-best split. The optimum of a subset does not depend on which
search reached it, so one value per subset stands for all of them;
charges are the analytic counts above, taken from the chain of search
layers that ran. The ordering is rebuilt at the end by concatenating the
winning splits' orders down to table leaves.

Chunks. A search layer is laid out position-major, as dp's kernel is: the
members of every s-subset are one cached (s, C(n, s)) int8 array
(colex.members), one column per subset in rank order. A chunk is an (s, m)
block of it against a run of its splits, at most _CHUNK split values in
all: m = _CHUNK // C(s, k) subsets against every split, or one subset
against runs of _CHUNK splits where there are more (the root from n = 18
on). A chunk's index rows depend on n alone: its members' flat offsets
member * m + column in its member map, and the colex ranks of each split's
W side and rest over colex.split_rows' position rows; by colex's reverse
order of the rests, an even split's rest ranks are its W ranks reversed. A
layer in one run keeps its rows as intp in a _plan per (n, s, k, chunk
step), built on its first solve, while they fit _PLAN_BYTES; any other
layer builds each chunk's ranks as it runs, in colex.index_dtype of C(n,
side).

- rho of every member is one product of c with the block's (n, m) 0/1
  member map, read back at the members. c is in the floats of
  matrix.exact_floats, which dc's tails read too: float32 while c.sum()
  < 2^24 and float64 beyond, where every sum is exact.
- The W side's rho sums are one product of a cached (C(s, k), s) 0/1 pick
  map with rho where C(s, k) <= _PICKED, else k row takes, cast straight
  into packed keys value * C(s, k) + j, j the split's index in the layer,
  after one gather per side. A subset's least key over its runs is its
  first best split, split back with one divmod. Values are never negative
  and at most c.sum(), so keys are int32 while (c.sum() + 1) * C(s, k) <
  2^31 and int64 beyond. Choices are int32, which holds C(22, 11).

Space: sum_{i<=t} C(n, i) table entries plus C(n, s) per search size s
(optimum and Sym in the value dtype, choice in int32), and one chunk at a
time. A planned chunk with int32 keys holds ~8 bytes per split value at
once, the key and the product it is cast from, where the unplanned kernel
held ~14 (an intp copy of the ranks per take), so _CHUNK is 2^14 * 14 / 8
= 28672. The member map, its product and rho add 8n + 20s bytes per
subset. Warm tracemalloc peaks of n = 15 and 16 solves (random_instance,
n_u 8, p 0.5) read 366 and 369 KB (426 and 429 KB unplanned). The plans
hold 0.20, 8.08 and 8.13 MB at n = 12, 15 and 16, and all of qdp's caches
(members, splits, pick maps and plans) 0.27, 8.3 and 8.6 MB, which
ledger.meta["plan_bytes"] reports. _PLAN_BYTES holds n = 16's (8, 4)
layer; n = 17's (8, 4) and (9, 5) layers (15 and 51 MB) and every larger
one build their ranks per chunk. Sym of a table size is summed in chunks
of at most _CHUNK member map entries.

Alpha is capped at 0.5: with alpha <= 1 - alpha the third level's split
size ceil(alpha*n/4) and its complement both fit the table (ceilings are
superadditive, so ceil(n/4) <= ceil(alpha*n/4) + ceil((1-alpha)*n/4)),
which is what keeps the search depth at three.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb

import numpy as np

from . import colex
from .bigraph import BipartiteInstance, Solution
from .dp import _PRACTICAL_MAX_NV as _DP_MAX_NV, subset_layers
from .errors import SizeLimitError
from .ledger import CostLedger
from .matrix import build_crossing_matrix, exact_floats
from .qmf import cost_model_calls

# The search layer of size ceil(n/2) evaluates C(n, ceil(n/2)) *
# C(ceil(n/2), ceil(n/4)) split values, ~4x more per vertex: n_v = 22 (8
# fixed vertices, edge probability 0.5, tests/instances.py's random_instance
# with seeds 1 and 4242) is 326 M of them, 4.5 and 3.0 s, best of 2, on a
# 2-vCPU Xeon VM with an 8.7 MB tracemalloc peak; n_v = 23 is 1.25 G, about
# 4x that. Past the cap a search solve raises SizeLimitError before it
# allocates anything; the dp fallback path is held to dp's own cap instead.
_PRACTICAL_MAX_NV = 22

_CHUNK = 28672  # split values per chunk (module docstring, Space)
# The W-side rho sums of a layer with at most _PICKED splits are one
# product with its pick map, which beat k row takes at every split count
# measured (6 to 12870); the cap keeps each cached map under 48 KB.
_PICKED = 1 << 10
# Bytes of index rows a search layer keeps across solves in its _plan.
_PLAN_BYTES = 1 << 23


@dataclass(frozen=True)
class QdpConfig:
    alpha: float = 0.055362
    min_quantum_n: int = 8
    call_constant: float = 1.0  # c of every charged search's ceil(c*sqrt(N))

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if self.min_quantum_n < 0:
            raise ValueError("min_quantum_n must be non-negative")
        if self.call_constant <= 0:
            raise ValueError("call_constant must be positive")


def table_threshold(n_v: int, alpha: float) -> int:
    """Largest subset size precomputed classically: ceil((1-alpha)*n/4)."""
    if n_v <= 0:
        return 0
    return ceil((1.0 - alpha) * n_v / 4.0)


def qdp_cost_model(n_v: int, cfg: QdpConfig = None):
    """(classical_cost, quantum_calls) the solver ledger must match exactly."""
    cfg = cfg or QdpConfig()
    n = n_v
    if n <= 0:
        return 0, 0
    t = table_threshold(n, cfg.alpha)
    if n < cfg.min_quantum_n or t >= n:
        return n * 2 ** (n - 1), 0
    c = cfg.call_constant
    classical = sum(comb(n, i) * i for i in range(1, t + 1))

    k1 = ceil(n / 2)
    level1 = cost_model_calls(comb(n, k1), c)
    level2 = 0
    level3 = 0
    s2 = k1
    if s2 > t:
        k2 = ceil(s2 / 2)
        level2 = cost_model_calls(comb(s2, k2), c)
        s3 = k2
        if s3 > t:
            level3 = cost_model_calls(comb(s3, ceil(cfg.alpha * n / 4.0)), c)
    quantum = level1 * (1 + level2 * (1 + level3))
    return classical, quantum


@lru_cache(maxsize=64)
def _pick_map(s, k):
    """colex.split_rows' W positions as a (C(s, k), s) float32 0/1 map, one
    row per split."""
    picks = colex.split_rows(s, k)[:k]
    pick_map = np.zeros((picks.shape[1], s), np.float32)
    np.put_along_axis(pick_map, picks.T, 1, axis=1)
    pick_map.setflags(write=False)
    return pick_map


def _sum_rows(tables, positions):
    """sum_i tables[i][positions[i]]: one row per split, one column per
    subset."""
    total = tables[0].take(positions[0], axis=0)
    for table, at in zip(tables[1:], positions[1:]):
        total += table.take(at, axis=0)
    return total


def _offsets(block):
    """The flat offsets member * m + column of an (s, m) member block's
    entries in its (n, m) member map, as intp."""
    m = block.shape[1]
    at = block * np.intp(m)
    at += np.arange(m)
    return at


def _rho(c, at):
    """rho_S(v) = sum_{u in S} c[v][u] for each member v of each subset of
    an (s, m) block given by its _offsets, in c's float dtype: one product
    of c with the block's (n, m) 0/1 member map, read back at the members."""
    m = at.shape[1]
    member_map = np.zeros(len(c) * m, c.dtype)
    member_map[at] = 1
    return (c @ member_map.reshape(-1, m)).take(at)


def _sym(c, s, dtype):
    """Sym(S) = sum_{v in S} rho_S(v) of every s-subset, by rank, in dtype,
    from chunks of at most _CHUNK member map entries."""
    members = colex.members(len(c), s)
    sym = np.empty(members.shape[1], dtype)
    step = max(1, _CHUNK // len(c))
    for lo in range(0, len(sym), step):
        at = slice(lo, lo + step)
        sym[at] = _rho(c, _offsets(members[:, at])).sum(axis=0)
    return sym


def _ranks(n, k, block, run, mirrored):
    """Colex ranks of the W sides of the splits in run for every subset of
    an (s, m) member block, and of their rests (None where mirrored), as
    (splits in run, m) rows in the colex.index_dtype of each side's rank
    count: sums of the terms C(member, i + 1), one per member position of
    colex.split_rows' rows."""
    rows = colex.split_rows(len(block), k)
    # C(x, i) for x < n and i up to a side's size, which is at most
    # ceil(n/2), is at most C(n, side), whose index dtype holds every rank
    binom = colex.binomials(n)[1:]

    def side(positions):
        width = len(positions)
        terms = binom[:width].astype(colex.index_dtype(comb(n, width)))
        return _sum_rows([row.take(block) for row in terms], positions[:, run])

    return side(rows[:k]), None if mirrored else side(rows[k:])


@lru_cache(maxsize=16)
def _plan(n, s, k, step):
    """Per chunk of step subsets of the search layer of s-subsets of
    range(n) split at k, its member offsets, W ranks and rest ranks (None
    for an even split), as intp; None for a layer in runs of splits (step
    0) or whose rows would pass _PLAN_BYTES. The rows stay writeable: take
    copies a read-only index array."""
    count, splits = comb(n, s), comb(s, k)
    mirrored = 2 * k == s
    if not step or (s + splits * (2 - mirrored)) * count * 8 > _PLAN_BYTES:
        return None
    members = colex.members(n, s)
    chunks = []
    for lo in range(0, count, step):
        block = members[:, lo:lo + step]
        chunks.append((_offsets(block), *(
            None if ranks is None else ranks.astype(np.intp)
            for ranks in _ranks(n, k, block, slice(None), mirrored))))
    return chunks


def _search_layer(c, s, k, w_value, rest_opt):
    """Best split of every s-subset into a k-subset W and the rest, and
    the Sym of every s-subset; ties keep the first split. c is the crossing
    matrix in a float dtype whose sums are exact; w_value is OPT - Sym of
    the k-subsets and rest_opt OPT of the (s - k)-subsets, both in the
    value dtype (module docstring, Chunks)."""
    n = len(c)
    rows = colex.split_rows(s, k)
    splits = rows.shape[1]
    keys = colex.key_dtype(int(c.sum(dtype=np.float64)), splits)
    pick_map = _pick_map(s, k) if splits <= _PICKED else None
    step = max(1, _CHUNK // splits)
    runs = [slice(j, min(j + _CHUNK, splits)) for j in range(0, splits, _CHUNK)]
    # over all splits, an even split's rest ranks are its W ranks reversed
    mirrored = 2 * k == s and len(runs) == 1
    plan = _plan(n, s, k, _CHUNK // splits)
    members = colex.members(n, s)

    def least(rho, w_ranks, rest_ranks, run):
        """Each subset's least key over one run of splits of a chunk."""
        if pick_map is None:
            key = _sum_rows([rho] * k, rows[:k, run])
        else:
            key = (pick_map[run] @ rho).astype(keys)
        if rest_ranks is None:
            key += rest_opt.take(w_ranks)[::-1]
        else:
            key += rest_opt.take(rest_ranks)
        key += w_value.take(w_ranks)
        key *= splits
        key += np.arange(run.start, run.stop, dtype=keys)[:, None]
        return key.min(axis=0)

    count = members.shape[1]
    layer = colex.Layer(np.empty(count, rest_opt.dtype),
                        np.empty(count, np.int32))
    sym = np.empty(count, rest_opt.dtype)
    for lo in range(0, count, step):
        at = slice(lo, lo + step)
        block = members[:, at]
        offsets, *ranks = plan[lo // step] if plan else (
            _offsets(block), *_ranks(n, k, block, runs[0], mirrored))
        rho = _rho(c, offsets)
        sym[at] = rho.sum(axis=0)
        if pick_map is None:
            rho = rho.astype(keys)
        best = least(rho, *ranks, runs[0])
        for run in runs[1:]:
            np.minimum(best, least(rho, *_ranks(n, k, block, run, mirrored), run),
                       out=best)
        layer.opt[at], layer.choice[at] = np.divmod(best, splits)
    return layer, sym


def _search_plan(n, t, k3):
    """Split width of each search size: ceil(s/2) at levels 1 and 2, k3 at
    level 3. For alpha <= 0.5 a size never recurs at another level with
    another width, so one width per size describes every search."""
    plan = {}
    sizes = [n]
    for level in (1, 2, 3):
        below = []
        for s in sizes:
            if s > t:
                k = ceil(s / 2) if level <= 2 else k3
                plan[s] = k
                below += [k, s - k]
        sizes = below
    if any(s > t for s in sizes):
        raise AssertionError("split recursion exceeded three search levels")
    return plan


@lru_cache(maxsize=64)
def _table_bytes(n, plan, chunk, budget, picked):
    """Bytes of the cached tables a search solve of range(n) along plan,
    given as sorted (s, k) pairs, reads: member layers (one caches every
    smaller one of its n), split rows, pick maps and row plans. The figure
    depends on n, the plan and the module constants chunk (_CHUNK), budget
    (_PLAN_BYTES, which _plan reads, so only part of the key) and picked
    (_PICKED) alone, so it is summed once per those."""
    arrays = [colex.members(size, i) for size, i in {(n, n)} | {
        (s, i) for s, k in plan for i in range(max(k, s - k) + 1)}]
    for s, k in plan:
        arrays.append(colex.split_rows(s, k))
        if comb(s, k) <= picked:
            arrays.append(_pick_map(s, k))
        arrays += [row for rows in _plan(n, s, k, chunk // comb(s, k)) or ()
                   for row in rows if row is not None]
    return sum(array.nbytes for array in arrays)


def _ordering(members, layers, plan):
    """Optimal order of a subset given by its ascending members, from the
    layers' winning candidates: a search subset concatenates its split's
    two orders, a table subset peels its last vertices. Module level, so no
    closure cycle keeps the layers alive after a solve."""
    s = len(members)
    if s not in plan:
        return colex.peel({size: layer.choice
                           for size, layer in layers.items()}, members)
    k, j = plan[s], layers[s].choice[colex.rank(members)]
    split = [members[i] for i in colex.split_rows(s, k)[:, j]]
    return (_ordering(split[:k], layers, plan)
            + _ordering(split[k:], layers, plan))


def solve_qdp(inst: BipartiteInstance, cfg: QdpConfig = None):
    """Solve one instance exactly; returns (Solution, CostLedger)."""
    cfg = cfg or QdpConfig()
    n = inst.n_v
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    t = table_threshold(n, cfg.alpha)
    fallback = n < cfg.min_quantum_n or t >= n
    # The fallback path is dp's solve and takes dp's cap.
    limit = _DP_MAX_NV if fallback else _PRACTICAL_MAX_NV
    if n > limit:
        what = "dense table" if fallback else "search layers"
        raise SizeLimitError(
            f"n_v={n}: qdp's {what} would exceed practical time and memory "
            f"(limit {limit})"
        )
    ledger = CostLedger(algo="qdp", meta={"alpha": cfg.alpha, "n_v": n,
                                          "qram_entries": 0, "plan_bytes": 0})
    if n == 0:
        return Solution((), 0), ledger
    c = build_crossing_matrix(inst)

    # Phase 1: dp's table layers over all subsets of size <= t (all of
    # them on the fallback path).
    layers = dict(enumerate(subset_layers(c, n, n if fallback else t)))
    ledger.recurrence_evals += sum(len(layer.opt) * s
                                   for s, layer in layers.items())
    ledger.meta["qram_entries"] = sum(len(layer.opt) for layer in layers.values())

    if fallback:
        ledger.table_reads += 1
        order = _ordering(list(range(n)), layers, {})
        return Solution(tuple(order), int(layers[n].opt[0])), ledger

    # Phase 2: the nested searches, one layer per search size, smallest
    # first so that both sides of every split are already evaluated.
    # Each charged query at a level carries one search on its W side, whose
    # charge the smaller size has already composed.
    plan = _search_plan(n, t, ceil(cfg.alpha * n / 4.0))
    values = layers[0].opt.dtype
    floats = exact_floats(c)
    sym = {k: _sym(floats, k, values) for k in set(plan.values()) if k <= t}
    charge = {}
    for s in sorted(plan):
        k = plan[s]
        layers[s], sym[s] = _search_layer(floats, s, k, layers[k].opt - sym[k],
                                          layers[s - k].opt)
        ledger.table_reads += (len(layers[s].opt) * comb(s, k)
                               * ((k <= t) + (s - k <= t)))
        charge[s] = (cost_model_calls(comb(s, k), cfg.call_constant)
                     * (1 + charge.get(k, 0)))
    ledger.oracle_calls = charge[n]
    ledger.meta["plan_bytes"] = _table_bytes(
        n, tuple(sorted(plan.items())), _CHUNK, _PLAN_BYTES, _PICKED)
    order = _ordering(list(range(n)), layers, plan)
    return Solution(tuple(order), int(layers[n].opt[0])), ledger
