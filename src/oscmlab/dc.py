"""Exact minimum crossings by divide and conquer in polynomial space.

Each subset S is split into every W of size ceil(|S|/2) (the complement
keeps the floor); the best split value is OPT(W) + OPT(S\\W) + gamma(W, S\\W)
and nothing is memoized above frames of 2 * TAIL members, so memory stays
polynomial while the recursion tree has

    nodes(k) = 1 + C(k, ceil(k/2)) * (nodes(floor(k/2)) + nodes(ceil(k/2)))

nodes, nodes(k <= base_size) = 1. Subsets of at most base_size vertices are
solved by direct enumeration. split_min is the solve, shared with the
quantum divide and conquer in qdc: the caller supplies the minimizer over a
node's splits (min here). Each frame keeps only its best split's value and
ordering, so one pass yields both the optimum and an ordering, recounted
before it is returned, and the ledger equals dc_node_count on every run.

Frames of more than base_size and at most TAIL members are tails. A tail
whose whole subtree fits in the node budget is counted whole: the ledger
adds, in one step, the nodes and gammas that pushing occurrences down its
own split graph counts, which equal dc_node_count's and dc_gamma_count's.
One product of its flattened local crossing submatrix with a 0/1 count map
cached per (size, base size) gives every base-case ordering's crossings
and every split's gamma; a few whole-array steps per node size then give
every node's exact value and first best split, bottom-up, and the tail's
ordering is rebuilt once along those splits. dc reads the exact value and
enters no tail node; qdc walks the internal nodes only, to run their
searches.

In dc (no search), a frame of more than TAIL and at most 2 * TAIL
members is a layered frame, evaluated whole when its subtree fits: the
ceil-half recursion inside it reaches every subset of each size it
reaches, so its node values are one chain of colex's search layers over
its local matrix (colex.split_layers). The chain depends on the frame's
size alone: singletons (worth 0) and pairs (min(c[a][b], c[b][a])) are
seeded, and every reached size s >= 3 is one layer split at ceil(s/2),
each subset keeping its first best split in the order that
frame-by-frame recursion searches. Any split width gives exact optima,
so base case sizes come out exact too. base_size chooses only where the
ordering walk down those splits hands members to base_case
(colex.split_order; a pair stops there at every base size, since
base_case orders it as its first best split does) and which sizes the
ledger counts as splits: it adds the nodes and gammas that pushing
occurrences down the widths above base_size counts (frame_counts). A
frame holds its layers, C(s, ceil(s/2)) entries at most per size, and one
kernel chunk at a time; colex caches the member tables and split rows it
reads. In qdc, a frame whose W and rest are both tails
is a two-tail frame, counted whole when its subtree fits: its candidate
count times its two tails' counts, plus its own node. Its candidates' W
and rest local matrices are stacked in row batches of at most BATCH_BYTES
of float32 values, so one product per side size and the same steps along
the batch axis solve every tail of a batch. A candidate's exact value is
W's root value + the rest's + its gamma; the first least one is kept, and
only that candidate's two tails are solved again, for their orderings.
qdc runs the frame's search over the batches, walking each candidate's
two tails from its rows.

A frame that the budget would run out inside runs frame by frame, the
path that TAIL = 0 runs everywhere, so it raises where that path raises.
Values are summed in the floats of matrix.exact_floats: float32 while
the crossing matrix sums below 2^24, else float64, so every sum is
exact. Both solvers read TAIL; only qdc reads BATCH_BYTES. TAIL is set by
measurement: raising it from 6 to 8 made the roots of n_v = 7 and 8
tails and their dc + qdc solves 3.5x faster, and a count map stays under
500 KB at any base size up to 8, while a 9-member tail with base size 5
would enumerate 120 orderings per base case (a 10 MB map). dc's frames of
at most TAIL members stay tails: at n_v 3 to 8 a tail solves in 0.05-0.07
ms, where layers took 0.15-0.65 ms. BATCH_BYTES is set by measurement
too: at n_v = 10, 4 KB (3 candidates a batch) keeps the traced peak of a
sampled qdc solve at ~18.6 KB, where solving one tail at a time read
17.5-22.5 KB, while 8 KB (7 candidates) raises it to ~27 KB.

Live state is modelled, not measured: dc_peak_state_bytes(n_v,
base_size) is the peak of a fixed byte model along the ceil-half spine,
dc_max_depth frames deep, and split_min writes both to ledger.meta. The
figures depend on n_v and base_size alone. They witness that no
exponential structure is ever live: a tail's count map and a layered
frame's layers are bounded by the frame's at most 2 * TAIL members, and
the model leaves them out. They do not profile the allocator, and
tests/test_dc.py holds tracemalloc's peak between 1 and 100 times the
model. An optional node budget stops runs at sizes too big to
finish; its exception carries the same modelled pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby, permutations
from math import comb, ceil, factorial
from typing import NamedTuple

import numpy as np

from . import colex
from .bigraph import BipartiteInstance, Solution
from .errors import SizeLimitError, NodeBudgetExceeded
from .ledger import CostLedger
from .matrix import build_crossing_matrix, cross_sum, exact_floats, order_sum

# Frames of more than base_size and at most TAIL members are tails.
TAIL = 8
# The bytes of float32 value rows that one batch of a _Halves frame fills.
BATCH_BYTES = 4096
_F32 = np.dtype(np.float32)


@dataclass(frozen=True)
class DcConfig:
    base_size: int = 2
    count_only: bool = False
    node_budget: int | None = None

    def __post_init__(self):
        if self.base_size < 1:
            raise ValueError("base_size must be >= 1")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive when set")


@lru_cache(maxsize=None)
def dc_node_count(k: int, base_size: int = 2) -> int:
    """Recursion-tree size for a subset of k vertices (instance independent)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if base_size < 1:
        raise ValueError("base_size must be >= 1")
    if k <= base_size:
        return 1
    half = ceil(k / 2)
    return 1 + comb(k, half) * (dc_node_count(k - half, base_size)
                                + dc_node_count(half, base_size))


@lru_cache(maxsize=None)
def dc_gamma_count(k: int, base_size: int = 2) -> int:
    """Gamma evaluations for a subset of k vertices: one per split candidate
    of every internal node (instance independent)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if base_size < 1:
        raise ValueError("base_size must be >= 1")
    if k <= base_size:
        return 0
    half = ceil(k / 2)
    return comb(k, half) * (1 + dc_gamma_count(k - half, base_size)
                            + dc_gamma_count(half, base_size))


def dc_max_depth(k: int, base_size: int = 2) -> int:
    """Deepest live frame chain: the ceil-half spine of the recursion."""
    depth = 1
    while k > base_size:
        k = ceil(k / 2)
        depth += 1
    return depth


def dc_peak_state_bytes(k: int, base_size: int = 2) -> int:
    """Modelled peak bytes of live state for a subset of k vertices.

    The deepest descent runs down the ceil halves. Each internal frame on
    it holds 96 bytes of scalars and 8 per member (member list, best value,
    split-enumerator state), plus its kept best ordering, 32 bytes and one
    per member, set by its first candidate; the base frame at the bottom
    holds 96 bytes and 8 per member.
    """
    peak = 0
    while k > base_size:
        peak += 96 + 8 * k + 32 + k
        k = ceil(k / 2)
    return peak + 96 + 8 * k


def base_case(rows, members) -> tuple:
    """Best crossings of a tiny subset and its lexicographically least
    optimal ordering, by enumerating the orderings of ``members`` (sorted).

    ``rows`` is the crossing matrix as nested Python lists.
    """
    best_val, best_perm = None, ()
    for perm in permutations(members):
        tot = order_sum(rows, perm)
        if best_val is None or tot < best_val:
            best_val, best_perm = tot, perm
    return best_val, best_perm


def local_matrix(c: np.ndarray, members) -> np.ndarray:
    """The crossing matrix restricted to the sorted ``members``, in member
    order: c itself when they are all of its rows."""
    if len(members) == len(c):
        return c
    return c.take(members, 0).take(members, 1)


class _TailPlan:
    """Tables of a tail frame of s members (base_size < s <= TAIL).

    A node of the frame's subtree is a sorted tuple of positions in the
    frame's sorted members. Nodes are numbered base cases first, then
    internal nodes by size, smallest first, so every child is numbered
    before its parent and the root last. ``inner`` holds each internal
    node's split count m, first split row ``at`` and the numbers of its
    splits' W and rest sides, splits in lexicographic order of W. ``fill``
    gives one row of values per local matrix, laid out as

    - base-case orderings' crossings, ``per`` columns per base case: its
      permutations in lexicographic order, the last repeated;
    - then the ``head`` that a search walks, offsets counted from its
      start: split gammas, gamma(W, rest),
      one per split of every internal node, nodes in number order (g
      columns, g splits in all); split values, W's exact value + the
      rest's + gamma (a node's from g + at); node exact values, node x at
      2g + x.

    ``walks`` says how a search walks internal node x, in walks[x]: (m,
    offset, W's kind, W offsets, rest's kind, rest offsets). A bottom
    node, whose sides are all base cases, searches its m split values
    from the offset; its entry holds no sides. Any other node searches
    its m gammas from the offset plus its sides' values, and a side's
    kind says how its offset per split is read: None, a base case's
    value column; a positive m, a bottom node's split values; 0, another
    internal node, walked by its number. A node's Ws all share one size,
    and so one kind, as do its rests.

    The orderings' crossings and the gammas are sums of local-matrix
    entries, so one product of the flattened s x s local matrices with
    the dense (s^2, size) 0/1 map ``counts`` gives them all, in the row
    it fills (the map's split and node value columns are zero). Per node
    size, bottom-up from the base cases, a take and a sum give the size's
    split values, and a min each node's exact value (an argmin its first
    best ordering row or split, when asked for).
    """

    def __init__(self, s, base_size):
        def halves(pos):            # as _scalar_splits enumerates them
            return [(w, tuple([v for v in pos if v not in w]))
                    for w in combinations(pos, ceil(len(pos) / 2))]

        seen = {}

        def visit(pos):
            if pos not in seen:
                seen[pos] = halves(pos) if len(pos) > base_size else None
                for w, rest in seen[pos] or ():
                    visit(w)
                    visit(rest)

        visit(tuple(range(s)))
        base = [pos for pos, parts in seen.items() if parts is None]
        inner = sorted((pos for pos, parts in seen.items() if parts), key=len)
        number = {pos: x for x, pos in enumerate(base + inner)}
        self.n_base, self.root = len(base), len(seen) - 1
        self.inner, splits = [], []
        for pos in inner:
            parts = seen[pos]
            self.inner.append((len(parts), len(splits),
                               tuple([number[w] for w, _ in parts]),
                               tuple([number[r] for _, r in parts])))
            splits += parts
        g, n_base = len(splits), len(base)
        # Occurrences pushed down the graph, parents first: the root counts
        # 1, and each split adds its node's to its W and to its rest.
        occurs = [0] * self.root + [1]
        self.n_gammas = 0
        for x in range(self.root, n_base - 1, -1):
            m, _, w_ids, r_ids = self.inner[x - n_base]
            self.n_gammas += occurs[x] * m
            for y in w_ids + r_ids:
                occurs[y] += occurs[x]
        self.n_nodes = sum(occurs)

        def sides(ids):             # a node's Ws or rests: kind, offsets
            if ids[0] < n_base:
                return None, tuple([2 * g + y for y in ids])
            m, _, w_ids, _ = self.inner[ids[0] - n_base]
            if w_ids[0] >= n_base:
                return 0, ids
            return m, tuple([g + self.inner[y - n_base][1] for y in ids])

        self.walks = [None] * n_base
        for m, at, w_ids, r_ids in self.inner:
            if w_ids[0] < n_base:       # a bottom node
                self.walks.append((m, g + at, None, None, None, None))
            else:
                self.walks.append((m, at, *sides(w_ids), *sides(r_ids)))
        self.per = factorial(max(map(len, base)))
        self.orders = []
        for pos in base:
            perms = list(permutations(pos))
            self.orders += perms + perms[-1:] * (self.per - len(perms))
        o = len(self.orders)
        self.size = o + 2 * g + len(seen)
        self.head = slice(o, self.size)
        self.exact = o + 2 * g + self.root      # the root's exact value
        terms = chain(([(a, b) for i, a in enumerate(order)
                        for b in order[i + 1:]] for order in self.orders),
                      ([(a, b) for a in w for b in r] for w, r in splits))
        counts = np.zeros((s * s, self.size), dtype=_F32)
        counts.ravel()[np.fromiter(((a * s + b) * self.size + col
                                    for col, pairs in enumerate(terms)
                                    for a, b in pairs), np.intp)] = 1
        self.counts = {_F32: counts}
        # Per size, base cases first: the value columns each split value
        # sums (W's, the rest's, its gamma; none for base cases, whose
        # ordering rows the product fills), the columns of its split
        # values or ordering rows and their (nodes, m) shape, and its
        # nodes' value columns and picks.
        nodes_at = o + 2 * g
        self.levels = [(None, slice(0, o), (len(base), self.per),
                        slice(nodes_at, nodes_at + len(base)),
                        slice(0, len(base)))]
        x = len(base)
        for m, group in groupby(self.inner, key=lambda node: node[0]):
            nodes = list(group)
            at, n = nodes[0][1], len(nodes)
            sums = [[nodes_at + w for _, _, ws, _ in nodes for w in ws],
                    [nodes_at + r for _, _, _, rs in nodes for r in rs],
                    list(range(o + at, o + at + n * m))]
            self.levels.append((np.array(sums, dtype=np.intp),
                                slice(o + g + at, o + g + at + n * m), (n, m),
                                slice(nodes_at + x, nodes_at + x + n),
                                slice(x, x + n)))
            x += n

    def fill(self, x: np.ndarray, picks: np.ndarray = None) -> np.ndarray:
        """The values of the flattened local matrix ``x``, or one row of
        values per row of a 2-D ``x``, in x's dtype: float32 or float64,
        exact while the matrix sums below 2^24 or 2^53. With ``picks``
        (root + 1 intp, per row), each node's first best ordering row (a
        base case) or split (an internal node)."""
        counts = self.counts.get(x.dtype)
        if counts is None:                  # float64, built on first use
            counts = self.counts[x.dtype] = self.counts[_F32].astype(x.dtype)
        lead = x.shape[:-1]
        v = np.dot(x, counts)
        for sums, cols, shape, values, chosen in self.levels:
            block = v[..., cols]
            if sums is not None:
                np.add.reduce(v.take(sums, -1), -2, out=block)
            block = block.reshape(lead + shape)
            np.minimum.reduce(block, -1, out=v[..., values])
            if picks is not None:
                block.argmin(-1, out=picks[..., chosen])
        return v

    def solve(self, sub: np.ndarray, members) -> tuple:
        """The values of the local matrix ``sub`` of the sorted ``members``,
        the root's exact value and its first best ordering of members."""
        picks = np.empty(self.root + 1, dtype=np.intp)
        values = self.fill(sub.ravel(), picks)
        order = self.order(picks.tolist(), self.root)
        return (values, int(values[self.exact]),
                tuple([members[p] for p in order]))

    def order(self, picks, x) -> tuple:
        """Positions of node x in its first best ordering, down its picks."""
        if x < self.n_base:
            return self.orders[x * self.per + picks[x]]
        _, _, w_ids, r_ids = self.inner[x - self.n_base]
        return (self.order(picks, w_ids[picks[x]])
                + self.order(picks, r_ids[picks[x]]))


_tail_plan = lru_cache(maxsize=None)(_TailPlan)   # <= 28 (s, base_size) keys


class _Halves:
    """A qdc frame of s members whose W and rest sides are both tails (s >
    TAIL, ceil(s/2) <= TAIL, floor(s/2) > base_size), solved in batches
    of candidates.

    ``pos`` holds each candidate's W positions, then its rest's, in the
    frame's sorted members, one column per candidate in lexicographic
    order of W: the split rows that qdp's searches read too
    (colex.split_rows). Each batch derives its gathers from these rows. A
    batch stacks its candidates' W and rest local matrices and fills their
    value rows (_TailPlan.fill), both sides through one product when they
    are of one size, and sums each candidate's gamma as the W rows' totals
    less W's local matrix. A batch holds at most BATCH_BYTES of float32
    value rows, or one candidate's.
    """

    def __init__(self, s, base_size):
        self.h = ceil(s / 2)
        self.w = _tail_plan(self.h, base_size)
        self.r = _tail_plan(s - self.h, base_size)
        self.pos = colex.split_rows(s, self.h)
        count = self.pos.shape[1]
        self.n_nodes = 1 + count * (self.w.n_nodes + self.r.n_nodes)
        self.n_gammas = count * (1 + self.w.n_gammas + self.r.n_gammas)
        self.rows = max(1, BATCH_BYTES // (_F32.itemsize
                                           * (self.w.size + self.r.size)))

    def batch(self, sub: np.ndarray, totals: np.ndarray, lo: int) -> tuple:
        """W's value rows, the rest's and the gammas of the batch of
        candidates from lo, over the frame's local matrix ``sub`` and its
        row totals."""
        h, w, r = self.h, self.w, self.r
        pos = self.pos[:, lo:lo + self.rows].T.astype(np.intp, order="C")
        if w is r:                      # rows W, rest, W, rest, ...
            both = pos.reshape(-1, h)
            x = sub[both[:, :, None], both[:, None]].reshape(len(both), -1)
            v = w.fill(x)
            x_w, v_w, v_r = x[0::2], v[0::2], v[1::2]
        else:
            w_pos, r_pos = pos[:, :h], pos[:, h:]
            x_w = sub[w_pos[:, :, None], w_pos[:, None]].reshape(len(pos), -1)
            x_r = sub[r_pos[:, :, None], r_pos[:, None]].reshape(len(pos), -1)
            v_w, v_r = w.fill(x_w), r.fill(x_r)
        return v_w, v_r, totals.take(pos[:, :h]).sum(1) - x_w.sum(1)


_halves = lru_cache(maxsize=None)(_Halves)   # <= 8 sizes s per base_size


def frame_counts(f, widths):
    """Nodes and gamma evaluations of a frame of f members whose subsets
    of size s split at W size widths[s] (a size absent from widths is a
    base case): occurrences are pushed down the sizes from a root of 1,
    each of a size's splits adding the size's occurrences to its W's size
    and to its rest's."""
    occurs = [0] * (f + 1)
    occurs[f] = 1
    nodes = gammas = 0
    for s in range(f, 0, -1):
        nodes += occurs[s]
        if s in widths:
            calls = occurs[s] * comb(s, widths[s])
            gammas += calls
            occurs[widths[s]] += calls
            occurs[s - widths[s]] += calls
    return nodes, gammas


class _Layers(NamedTuple):
    """The plan of a frame of f members evaluated as subset layers.

    ``steps`` depend on f alone: one layer per size s >= 3 that the
    ceil-half recursion of f reaches, split at ceil(s/2), smallest first,
    as colex.split_layers' (s, k, chunk, row plan) with no row plan.
    base_size picks only ``widths``, which maps each reached size above it
    to ceil(s/2): n_nodes and n_gammas are counted from them
    (frame_counts), and the ordering walk splits those above 2 too."""

    widths: dict
    steps: tuple
    n_nodes: int
    n_gammas: int


@lru_cache(maxsize=None)                # <= 8 sizes f per base_size
def _layer_plan(f, base_size):
    """The _Layers plan of a frame of f members at base_size."""
    widths, sizes = {}, [f]
    for s in sizes:
        if s > 1 and s not in widths:
            widths[s] = ceil(s / 2)
            sizes += [ceil(s / 2), s // 2]
    steps = tuple((s, k, _chunk(f, s, k), None)
                  for s, k in sorted(widths.items()) if s > 2)
    widths = {s: k for s, k in widths.items() if s > base_size}
    return _Layers(widths, steps, *frame_counts(f, widths))


def _chunk(f, s, k):
    """The chunk of the kernel's layer of s-subsets of a frame of f members
    split at k. A chunk of m subsets holds about m(f + C(s, k)) values at
    once, the member map's and one key per split, and at most C(2h, h), h
    = ceil(f/2): the root's splits at an even f, twice them at an odd f,
    whose root is half the next frame's while its other layers are nearly
    as large."""
    splits, h = comb(s, k), ceil(f / 2)
    return splits * max(1, comb(2 * h, h) // (f + splits))


def _solve_layers(floats, rows, members, plan):
    """The exact value and first best ordering of a layered frame over the
    sorted ``members`` (a _Layers plan; module docstring). Singletons and
    pairs are seeded: a pair {a, b} is worth min(c[a][b], c[b][a]) and has
    Sym c[a][b] + c[b][a]. Values are in colex.value_dtype of the local
    matrix's sum. The kernel reads no row plan and no pick map: a frame's
    own tables are what a budgeted solve's traced peak counts."""
    sub = local_matrix(floats, members)
    f = len(members)
    values = colex.value_dtype(int(sub.sum(dtype=np.float64)))
    a, b = colex.members(f, 2)
    ab, ba = sub[a, b], sub[b, a]
    opt = {1: np.zeros(f, values), 2: np.minimum(ab, ba).astype(values)}
    sym = {1: opt[1], 2: (ab + ba).astype(values)}  # the local diagonal is 0
    del a, b, ab, ba
    choice = colex.split_layers(sub, plan.steps, opt, sym, picked=0)
    # pairs have no choices: base_case orders a pair as its first best
    # split would, a before b unless c[b][a] < c[a][b]
    walk = {s: k for s, k in plan.widths.items() if s > 2}
    ordering = colex.split_order(
        list(range(f)), choice, walk,
        lambda at: base_case(rows, [members[p] for p in at])[1])
    return int(opt[f][0]), ordering


def _scalar_splits(rows, members):
    """(W, rest, gamma(W, rest)) for every split W of ``members`` into
    ceil(|S|/2) and the rest, W in lexicographic order."""
    for w in combinations(members, ceil(len(members) / 2)):
        rest = tuple([v for v in members if v not in w])
        yield w, rest, cross_sum(rows, w, rest)


def _exact_min(n_values, value_fn):
    return min(map(value_fn, range(n_values))), 0


def split_min(c: np.ndarray, cfg: DcConfig, search, ledger: CostLedger):
    """The dc and qdc solve: minimum over balanced splits of the matrix ``c``.

    A frame over the sorted member tuple S counts one node, then either
    solves S by enumeration (|S| <= base_size) or hands
    ``search(n_values, value_fn)`` the C(|S|, ceil(|S|/2)) splits W of S,
    in lexicographic order. ``search`` must call value_fn once per index
    in ascending order and return (searched minimum, oracle calls).
    value_fn(i) solves W and then S minus W, counts one gamma evaluation,
    and returns their searched values plus gamma(W, S minus W). With
    ``search`` None, each node takes the exact minimum and charges 0 (dc).

    A frame of more than base_size and at most TAIL members is a tail
    (_TailPlan), and so can be both sides of a larger frame's candidates.
    A larger frame of at most 2 * TAIL members is, with ``search`` None,
    a layered frame (_Layers), and otherwise, when both its sides are
    tails, a two-tail frame (_Halves); the module docstring says how each
    is solved. When such a frame's nodes fit in the node budget, it is
    counted whole: the ledger adds the nodes and gammas its plan counts,
    the figure its budget check reads. With ``search`` None that is all;
    otherwise a two-tail frame searches its candidates over the batches' rows, and
    every tail's internal nodes are walked in the frame-by-frame
    pre-order, each node's search reading base-case values and searching
    internal sides, so every search sees the values, and returns the
    calls, that it sees and returns frame by frame. A frame whose nodes
    do not fit runs frame by frame, as TAIL = 0 runs every frame, so every
    output, ledger field and raise point equals that recursion's.

    Every frame returns (searched value, exact value, oracle charge,
    ordering). The frame keeps only its first strictly best candidate by
    exact value, so the ordering (W's ordering, then the rest's) comes out
    of the same pass. The charge is calls * (W's charge + the rest's
    charge + 1), with both children's charges taken from the last
    candidate searched. That rule is a modelling choice. Under cost-model
    searches every candidate's children charge the same, so any candidate
    gives the same total. Under sampled (state-vector) searches each
    child's charge is random, and the rule takes the last candidate's as
    the charge of every call rather than, say, averaging over the
    candidates. tests/split_recursion_golden.json pins the sampled charges
    this rule gives.

    ``c`` holds nonnegative crossing counts, so no partial sum of a tail
    or a layered frame exceeds the sum of all of c, which picks float32
    or float64 (matrix.exact_floats).

    Writes the modelled peak state and depth, dc_peak_state_bytes and
    dc_max_depth of (n, base size), to ledger.meta on entry. Returns the
    root's tuple once its ordering recounts to the exact value (else
    AssertionError). Raises SizeLimitError past 64 vertices and
    NodeBudgetExceeded, carrying the same modelled pair, past
    cfg.node_budget nodes.
    """
    n = len(c)
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    rows = c.tolist()
    base_size, node_budget, tails = cfg.base_size, cfg.node_budget, TAIL
    peak = ledger.meta["peak_state_bytes"] = dc_peak_state_bytes(n, base_size)
    depth = ledger.meta["max_depth"] = dc_max_depth(n, base_size)
    minimize = search or _exact_min
    if n > base_size:
        floats = exact_floats(c)  # what tails sum

    def internal(s, candidates, child):
        """Search an entered internal node's splits, given as (W, rest,
        gamma) candidates whose sides ``child`` solves."""
        best = None                 # (exact value, W ordering, rest ordering)
        child_charge = 0            # both children's, last candidate

        def value_fn(_):
            nonlocal best, child_charge
            w, rest, g = next(candidates)
            w_searched, w_exact, w_charge, w_order = child(w)
            r_searched, r_exact, r_charge, r_order = child(rest)
            ledger.gamma_evals += 1
            exact = w_exact + r_exact + g
            if best is None or exact < best[0]:
                best = (exact, w_order, r_order)
            child_charge = w_charge + r_charge
            return w_searched + r_searched + g

        searched, calls = minimize(comb(s, ceil(s / 2)), value_fn)
        return searched, best[0], calls * (child_charge + 1), best[1] + best[2]

    def walk(plan, v, x):
        """Search internal tail node x over its value row ``v``:
        (searched value, charge). Base-case sides are read, bottom ones
        searched over their split values, others walked."""
        m, at, w_m, ws, r_m, rs = plan.walks[x]
        if ws is None:                      # a bottom node
            return search(m, v[at:at + m].__getitem__)
        child_charge = 0                    # both sides', last candidate

        def value_fn(i):
            nonlocal child_charge
            w = ws[i]
            if w_m:
                w_searched, child_charge = search(w_m, v[w:w + w_m].__getitem__)
            else:
                w_searched, child_charge = walk(plan, v, w)
            r = rs[i]
            if r_m is None:
                r_searched = v[r]
            else:
                if r_m:
                    r_searched, r_charge = search(r_m, v[r:r + r_m].__getitem__)
                else:
                    r_searched, r_charge = walk(plan, v, r)
                child_charge += r_charge
            return w_searched + r_searched + v[at + i]

        searched, calls = search(m, value_fn)
        return searched, calls * (child_charge + 1)

    def tail(plan, members):
        """Solve and search a tail frame without entering frames."""
        values, exact, order = plan.solve(local_matrix(floats, members),
                                          members)
        if search is None:
            return exact, exact, 0, order
        values = values[plan.head].astype(np.int64).tolist()  # frees the array
        searched, charge = walk(plan, values, plan.root)
        return searched, exact, charge, order

    def halves(pair, members):
        """Solve and search a two-tail frame in row batches, without
        entering frames. The first candidate of least exact value
        is kept, and only its two tails are solved again, for their
        orderings."""
        w, r, per_batch = pair.w, pair.r, pair.rows
        sub = local_matrix(floats, members)
        totals = sub.sum(1)
        best, at = None, 0                  # least exact value, its candidate
        held = None                         # the batch being searched
        child_charge = 0                    # both sides', last candidate

        def value_fn(i):
            nonlocal best, at, held, child_charge
            k = i % per_batch
            if not k:
                held = None                 # frees the last batch first
                v_w, v_r, gammas = pair.batch(sub, totals, i)
                exact = v_w[:, w.exact] + v_r[:, r.exact] + gammas
                j = int(exact.argmin())
                if best is None or exact[j] < best:
                    best, at = exact[j], i + j
                held = v_w, v_r, gammas.astype(np.int64).tolist()
            v_w, v_r, gammas = held
            w_searched, child_charge = walk(
                w, v_w[k, w.head].astype(np.int64).tolist(), w.root)
            r_searched, r_charge = walk(
                r, v_r[k, r.head].astype(np.int64).tolist(), r.root)
            child_charge += r_charge
            return w_searched + r_searched + gammas[k]

        searched, calls = search(pair.pos.shape[1], value_fn)
        pos, ordering = pair.pos[:, at].tolist(), ()
        for plan, part in ((w, pos[:pair.h]), (r, pos[pair.h:])):
            part = [members[p] for p in part]
            ordering += plan.solve(local_matrix(floats, part), part)[2]
        return searched, int(best), calls * (child_charge + 1), ordering

    def layered(plan, members):
        """Solve a frame as subset layers, without entering frames."""
        exact, ordering = _solve_layers(floats, rows, members, plan)
        return exact, exact, 0, ordering

    def frame(members):
        s = len(members)
        if base_size < s <= tails:
            whole, solve = _tail_plan(s, base_size), tail
        elif tails < s <= 2 * tails and base_size < s and search is None:
            whole, solve = _layer_plan(s, base_size), layered
        elif tails < s <= 2 * tails and s // 2 > base_size:
            whole, solve = _halves(s, base_size), halves
        else:
            whole = None
        if whole is not None and (node_budget is None or
                                  ledger.nodes + whole.n_nodes <= node_budget):
            ledger.nodes += whole.n_nodes
            ledger.gamma_evals += whole.n_gammas
            return solve(whole, members)
        ledger.nodes += 1
        if node_budget is not None and ledger.nodes > node_budget:
            raise NodeBudgetExceeded(ledger, peak, depth)
        if s <= base_size:
            value, order = base_case(rows, members)
            return value, value, 0, order
        return internal(s, _scalar_splits(rows, members), frame)

    searched, exact, charge, ordering = frame(tuple(range(n)))
    recount = order_sum(rows, ordering)
    if recount != exact:
        raise AssertionError(f"kept ordering recounts to {recount}, not {exact}")
    return searched, exact, charge, ordering


def solve_dc(inst: BipartiteInstance, cfg: DcConfig = None):
    """Solve one instance in polynomial space; returns (Solution, CostLedger).

    Raises NodeBudgetExceeded when cfg.node_budget is set and the recursion
    outgrows it.
    """
    cfg = cfg or DcConfig()
    ledger = CostLedger(algo="dc",
                        meta={"n_v": inst.n_v, "base_size": cfg.base_size})
    _, total, _, ordering = split_min(build_crossing_matrix(inst), cfg, None,
                                      ledger)
    return Solution(None if cfg.count_only else ordering, total), ledger
