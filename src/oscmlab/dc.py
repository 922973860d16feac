"""Exact minimum crossings by divide and conquer in polynomial space.

Each subset S is split into every W of size ceil(|S|/2) (the complement
keeps the floor); the best split value is OPT(W) + OPT(S\\W) + gamma(W, S\\W)
and nothing is memoized, so memory stays polynomial while the recursion
tree has

    nodes(k) = 1 + C(k, ceil(k/2)) * (nodes(floor(k/2)) + nodes(ceil(k/2)))

nodes, nodes(k <= base_size) = 1. Subsets of at most base_size vertices are
solved by direct enumeration. split_min is the solve, shared with the
quantum divide and conquer in qdc: the caller supplies the minimizer over a
node's splits (min here). Each frame keeps only its best split's value and
ordering, so one pass yields both the optimum and an ordering, recounted
before it is returned, and the ledger equals dc_node_count on every run.

Frames of more than base_size and at most TAIL members are tails. A tail
whose whole subtree fits in the node budget is counted whole: the ledger
adds its dc_node_count nodes and dc_gamma_count gammas in one step, and
the meter records the peak and depth its frames would reach. One NumPy
gather over index tables cached per frame size gives every base-case
ordering's crossings and every split's gamma, a few whole-array steps per
node size then give every node's exact value and first best split,
bottom-up, and the tail's ordering is rebuilt once along those splits. dc
reads the exact value and enters no tail node; qdc walks the internal
nodes only, to run their searches. A tail that the budget would run out
inside runs frame by frame, the path that TAIL = 0 runs everywhere, so it
raises where that path raises. TAIL is set by measurement: raising it
from 6 to 8 made the roots of n_v = 7 and 8 tails and their dc + qdc
solves 3.5x faster, and a frame's tables stay under 12k indices at any
base size up to 8, while a 9-member tail with base size 5 would enumerate
120 orderings per base case (244k indices).

A SpaceMeter tracks live algorithm state in bytes under a fixed accounting
model, and an optional node budget lets instrumented runs at sizes too big
to finish still observe the peak (it stabilizes once the first descent
reaches maximum depth). A tail counted whole charges the meter the peak
and depth its entered frames would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, permutations
from math import comb, ceil, factorial

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .errors import SizeLimitError, NodeBudgetExceeded
from .ledger import CostLedger
from .matrix import build_crossing_matrix, cross_sum, order_sum

# Frames of more than base_size and at most TAIL members are tails.
TAIL = 8


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


class SpaceMeter:
    """Byte accounting for live solver state.

    Model: every live recursion frame charges 96 bytes of scalars plus 8
    bytes per member of its subset (member list, best-so-far value,
    split-enumerator state). A frame past its first candidate split also
    holds its kept best ordering, 32 bytes plus one per member, until it
    returns. Deterministic by construction — the point is a reproducible
    "no exponential structure is ever live" witness, not an
    allocator-accurate profile. A tail frame counted whole enters no
    frame: ``reach`` records the peak and depth its frames would reach
    (the same for every tail of a size and base size).
    """

    def __init__(self):
        self.current = 0
        self.peak = 0
        self.depth = 0
        self.max_depth = 0

    @staticmethod
    def frame_bytes(subset_size: int) -> int:
        return 96 + 8 * subset_size

    @staticmethod
    def trace_bytes(subset_size: int) -> int:
        return 32 + subset_size

    def enter(self, nbytes: int):
        self.current += nbytes
        self.depth += 1
        if self.current > self.peak:
            self.peak = self.current
        if self.depth > self.max_depth:
            self.max_depth = self.depth

    def exit(self, nbytes: int):
        self.current -= nbytes
        self.depth -= 1

    def hold(self, nbytes: int):
        """Charge retained (non-frame) state, e.g. a kept best ordering."""
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def release(self, nbytes: int):
        self.current -= nbytes

    def reach(self, nbytes: int, levels: int):
        """Record frames ``levels`` deep, peaking at ``nbytes`` above the
        current state, entered and left again."""
        if self.current + nbytes > self.peak:
            self.peak = self.current + nbytes
        if self.depth + levels > self.max_depth:
            self.max_depth = self.depth + levels


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
    """The crossing matrix restricted to ``members``, in member order."""
    return c.take(members, 0).take(members, 1)


class _TailPlan:
    """Index tables of a tail frame of s members (base_size < s <= TAIL).

    A node of the frame's subtree is a sorted tuple of positions in the
    frame's sorted members. Nodes are numbered base cases first, then
    internal nodes by size, smallest first, so every child is numbered
    before its parent and the root last. ``inner`` holds each internal
    node's split count m, first split row ``at`` and the numbers of its
    splits' W and rest sides, splits in lexicographic order of W. A solve
    fills an array of values laid out as

    - split gammas, gamma(W, rest), one row per split of every internal
      node, nodes in number order (n_splits rows);
    - split values, W's exact value + the rest's + gamma (n_splits rows,
      a node's from n_splits + at);
    - node exact values, node x at ``values_at`` + x;
    - base-case orderings' crossings, ``per`` rows per base case: its
      permutations in lexicographic order, the last repeated.

    ``idx`` holds the flat index into the s x s local matrix of every pair
    term of a gamma or an ordering, and ``row`` its row, so one take and
    one bincount sum them all. The base cases' minima, then each size's
    split values and minima, follow in a few whole-array steps per size.
    """

    def __init__(self, s, base_size):
        self.n_nodes = dc_node_count(s, base_size)
        self.n_gammas = dc_gamma_count(s, base_size)
        # The deepest descent runs down the ceil halves; each internal frame
        # on it holds a best ordering, as its first candidate set one.
        self.depth, self.peak, k = dc_max_depth(s, base_size), 0, s
        while k > base_size:
            self.peak += SpaceMeter.frame_bytes(k) + SpaceMeter.trace_bytes(k)
            k = ceil(k / 2)
        self.peak += SpaceMeter.frame_bytes(k)

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
        g = self.n_splits = len(splits)
        self.values_at = 2 * g
        self.per = factorial(max(map(len, base)))
        self.orders = []
        for pos in base:
            perms = list(permutations(pos))
            self.orders += perms + perms[-1:] * (self.per - len(perms))
        orders_at = self.values_at + len(seen)
        self.size = orders_at + len(self.orders)
        terms = [[a * s + b for a in w for b in r] for w, r in splits]
        terms += [[a * s + b for i, a in enumerate(order) for b in order[i + 1:]]
                  for order in self.orders]
        rows = [*range(g), *range(orders_at, self.size)]
        self.idx = np.array([t for ts in terms for t in ts], dtype=np.intp)
        self.row = np.array([r for r, ts in zip(rows, terms) for _ in ts],
                            dtype=np.intp)
        self.head = slice(0, orders_at)
        self.base_level = (slice(orders_at, self.size), (len(base), self.per),
                           slice(self.values_at, self.values_at + len(base)),
                           slice(0, len(base)))
        # Per size (its nodes share their split count m): the value rows
        # each split value sums (W's, the rest's, its gamma), then, as for
        # the base cases, the rows of its split values, their (nodes, m)
        # shape, and its nodes' value rows and picks.
        self.levels, x = [], len(base)
        for m, group in groupby(self.inner, key=lambda node: node[0]):
            nodes = list(group)
            at, n = nodes[0][1], len(nodes)
            sums = [[self.values_at + w for _, _, ws, _ in nodes for w in ws],
                    [self.values_at + r for _, _, _, rs in nodes for r in rs],
                    list(range(at, at + n * m))]
            self.levels.append((np.array(sums, dtype=np.intp),
                                slice(g + at, g + at + n * m), (n, m),
                                slice(self.values_at + x, self.values_at + x + n),
                                slice(x, x + n)))
            x += n

    def solve(self, sub: np.ndarray) -> tuple:
        """The value array from the local matrix ``sub``, in float64 (exact
        while crossing counts stay below 2^53), and the positions of the
        root's first best ordering. Each node picks its first best
        ordering row (a base case) or split (an internal node). The terms
        are taken from a float64 copy of ``sub``, so bincount, which sums
        in float64, holds no cast copy of them next to its output."""
        vals = np.bincount(self.row, sub.astype(np.float64).take(self.idx),
                           self.size)
        picks = np.empty(self.root + 1, dtype=np.intp)
        rows, shape, values, chosen = self.base_level
        block = vals[rows].reshape(shape)
        np.minimum.reduce(block, 1, out=vals[values])
        block.argmin(1, out=picks[chosen])
        for sums, rows, shape, values, chosen in self.levels:
            block = vals[rows]
            np.add.reduce(vals.take(sums), 0, out=block)
            block = block.reshape(shape)
            np.minimum.reduce(block, 1, out=vals[values])
            block.argmin(1, out=picks[chosen])
        return vals, self.order(picks.tolist(), self.root)

    def order(self, picks, x) -> tuple:
        """Positions of node x in its first best ordering, down its picks."""
        if x < self.n_base:
            return self.orders[x * self.per + picks[x]]
        _, _, w_ids, r_ids = self.inner[x - self.n_base]
        return (self.order(picks, w_ids[picks[x]])
                + self.order(picks, r_ids[picks[x]]))


_tail_plan = lru_cache(maxsize=None)(_TailPlan)   # <= 28 (s, base_size) keys


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
    (_TailPlan). When its dc_node_count nodes fit in the node budget, it
    is counted whole: the ledger adds its node and gamma counts, and the
    meter the peak and depth its frames reach (SpaceMeter.reach). One
    gather over its local crossing submatrix then gives every node's
    exact value and first best split, and its ordering follows those
    splits. With ``search`` None that is all; otherwise its internal
    nodes are walked in the frame-by-frame pre-order, each node's search
    reading base-case values and searching internal sides, so every
    search sees the values, and returns the calls, that it sees and
    returns frame by frame. A tail whose nodes do not fit runs frame by
    frame, as TAIL = 0 runs every frame, so every output, ledger field,
    meter reading and raise point equals that recursion's.

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

    Returns the root's tuple once its ordering recounts to the exact value
    (else AssertionError), with the SpaceMeter's peak and depth in
    ledger.meta. Raises SizeLimitError past 64 vertices and
    NodeBudgetExceeded past cfg.node_budget nodes.
    """
    n = len(c)
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    rows, meter = c.tolist(), SpaceMeter()
    base_size, node_budget, tail = cfg.base_size, cfg.node_budget, TAIL
    minimize = search or _exact_min

    def enter(nbytes):
        meter.enter(nbytes)
        ledger.nodes += 1
        if node_budget is not None and ledger.nodes > node_budget:
            raise NodeBudgetExceeded(ledger, meter.peak, meter.max_depth)

    def internal(s, candidates, child):
        """Search an entered internal node's splits, given as (W, rest,
        gamma) candidates whose sides ``child`` solves."""
        best = None                 # (exact value, W ordering, rest ordering)
        held = 0
        child_charge = 0            # both children's, last candidate

        def value_fn(_):
            nonlocal best, held, child_charge
            w, rest, g = next(candidates)
            w_searched, w_exact, w_charge, w_order = child(w)
            r_searched, r_exact, r_charge, r_order = child(rest)
            ledger.gamma_evals += 1
            exact = w_exact + r_exact + g
            if best is None or exact < best[0]:
                if not held:
                    held = SpaceMeter.trace_bytes(s)
                    meter.hold(held)
                best = (exact, w_order, r_order)
            child_charge = w_charge + r_charge
            return w_searched + r_searched + g

        try:
            searched, calls = minimize(comb(s, ceil(s / 2)), value_fn)
        finally:
            if held:
                meter.release(held)
        return searched, best[0], calls * (child_charge + 1), best[1] + best[2]

    def walk(plan, v, x):
        """Search internal tail node x over the gathered values ``v``:
        (searched value, charge). Base-case sides are read, internal ones
        searched."""
        m, at, w_ids, r_ids = plan.inner[x - plan.n_base]
        n_base = plan.n_base
        if w_ids[0] < n_base:               # W, the larger side, is a base case
            at += plan.n_splits
            return search(m, v[at:at + m].__getitem__)
        values_at = plan.values_at
        child_charge = 0                    # both sides', last candidate

        def value_fn(i):
            nonlocal child_charge
            w_searched, child_charge = walk(plan, v, w_ids[i])
            r = r_ids[i]
            if r < n_base:
                r_searched = v[values_at + r]
            else:
                r_searched, r_charge = walk(plan, v, r)
                child_charge += r_charge
            return w_searched + r_searched + v[at + i]

        searched, calls = search(m, value_fn)
        return searched, calls * (child_charge + 1)

    def whole(plan, members):
        """Count, solve and search a tail frame without entering frames."""
        ledger.nodes += plan.n_nodes
        ledger.gamma_evals += plan.n_gammas
        meter.reach(plan.peak, plan.depth)
        values, order = plan.solve(local_matrix(c, members))
        exact = int(values[plan.values_at + plan.root])
        order = tuple([members[p] for p in order])
        if search is None:
            return exact, exact, 0, order
        values = values[plan.head].astype(np.int64).tolist()   # frees the array
        searched, charge = walk(plan, values, plan.root)
        return searched, exact, charge, order

    def frame(members):
        s = len(members)
        if base_size < s <= tail:
            plan = _tail_plan(s, base_size)
            if node_budget is None or ledger.nodes + plan.n_nodes <= node_budget:
                return whole(plan, members)
        nbytes = SpaceMeter.frame_bytes(s)
        enter(nbytes)
        try:
            if s <= base_size:
                value, order = base_case(rows, members)
                return value, value, 0, order
            return internal(s, _scalar_splits(rows, members), frame)
        finally:
            meter.exit(nbytes)

    searched, exact, charge, ordering = frame(tuple(range(n)))
    recount = order_sum(rows, ordering)
    if recount != exact:
        raise AssertionError(f"kept ordering recounts to {recount}, not {exact}")
    ledger.meta["peak_state_bytes"] = meter.peak
    ledger.meta["max_depth"] = meter.max_depth
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
