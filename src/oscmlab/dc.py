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

Frames of at most TAIL members are tails: their subtrees read every
base-case value and gamma from one NumPy gather over index tables cached
per frame size, while Python still visits each internal node, so searches
and counts are those of the frame-by-frame recursion (split_min). TAIL is
set by measurement: raising it from 6 to 8 made the roots of n_v = 7 and
8 tails and their dc + qdc solves 3.5x faster, and a frame's tables stay
under 12k indices at any base size up to 8, while a 9-member tail with
base size 5 would enumerate 120 orderings per base case (244k indices).

A SpaceMeter tracks live algorithm state in bytes under a fixed accounting
model, and an optional node budget lets instrumented runs at sizes too big
to finish still observe the peak (it stabilizes once the first descent
reaches maximum depth). Tails charge the meter exactly as entered frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, permutations
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
    allocator-accurate profile.
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


_BASE, _BOTTOM, _SPLIT = range(3)


class _TailPlan:
    """Index tables of a tail frame of s members (base_size < s <= TAIL).

    A node of the frame's subtree is the bitmask of its positions in the
    frame's sorted members, and nodes[mask] describes it:

    - (_BASE, size, slot, frame bytes): a base case. Its orderings are
      block ``slot`` of ``orders``: every permutation of its positions in
      lexicographic order, the last repeated to fill ``per`` rows.
    - (_BOTTOM, size, offset, slots, peak bytes): an internal node whose
      children are all base cases. Its splits are bottom gamma rows
      offset, offset + 1, ..., and slots holds each split's (W slot,
      rest slot).
    - (_SPLIT, size, offset, W masks, rest masks): any other internal
      node. Its splits are split gamma rows offset, offset + 1, ...

    An ordering row sums the local matrix over the ordering's pairs, a
    gamma row over its split's W x rest. ``idx`` holds their flat indices
    into the s x s local matrix and ``row`` the row of each, so one take
    and one bincount give every row sum. Rows run base orderings, split
    gammas, then bottom gammas.
    """

    def __init__(self, s, base_size):
        self.root = (1 << s) - 1
        self.nodes = [None] * (1 << s)
        base, split_rows, bottom_rows, bottom_slots = [], [], [], []

        def visit(mask):
            if self.nodes[mask] is not None:
                return self.nodes[mask]
            pos = tuple(i for i in range(s) if mask >> i & 1)
            size = len(pos)
            if size <= base_size:
                self.nodes[mask] = (_BASE, size, len(base),
                                    SpaceMeter.frame_bytes(size))
                base.append(pos)
                return self.nodes[mask]
            k = ceil(size / 2)
            parts = [(w, tuple(v for v in pos if v not in w))
                     for w in combinations(pos, k)]
            w_masks = tuple(sum(1 << v for v in w) for w, _ in parts)
            r_masks = tuple(mask ^ w for w in w_masks)
            if k <= base_size:
                slots = tuple((visit(w)[2], visit(r)[2])
                              for w, r in zip(w_masks, r_masks))
                peak = (SpaceMeter.frame_bytes(size) + SpaceMeter.trace_bytes(size)
                        + SpaceMeter.frame_bytes(k))
                self.nodes[mask] = (_BOTTOM, size, len(bottom_rows), slots, peak)
                bottom_rows.extend(parts)
                bottom_slots.extend(slots)
                return self.nodes[mask]
            self.nodes[mask] = (_SPLIT, size, len(split_rows), w_masks, r_masks)
            split_rows.extend(parts)
            for w, r in zip(w_masks, r_masks):
                visit(w)
                visit(r)
            return self.nodes[mask]

        visit(self.root)
        self.per = factorial(max(map(len, base)))
        self.orders = []
        for pos in base:
            perms = list(permutations(pos))
            self.orders += perms + perms[-1:] * (self.per - len(perms))
        rows = [[a * s + b for i, a in enumerate(order) for b in order[i + 1:]]
                for order in self.orders]
        rows += [[a * s + b for a in w for b in r]
                 for w, r in split_rows + bottom_rows]
        self.idx = np.array([t for terms in rows for t in terms], dtype=np.intp)
        self.row = np.array([i for i, terms in enumerate(rows) for _ in terms],
                            dtype=np.intp)
        self.n_rows, self.n_split = len(rows), len(split_rows)
        self.w_slots = np.array([w for w, _ in bottom_slots], dtype=np.intp)
        self.r_slots = np.array([r for _, r in bottom_slots], dtype=np.intp)

    def gather(self, sub: np.ndarray) -> tuple:
        """From the local matrix ``sub``: split gammas, bottom split values
        (W's value + the rest's + gamma), base values and each base case's
        first best ordering row, as lists. bincount sums in float64, exact
        while crossing counts stay below 2^53."""
        sums = np.bincount(self.row, sub.take(self.idx),
                           self.n_rows).astype(np.int64)
        base = sums[:len(self.orders)].reshape(-1, self.per)
        values = base.min(axis=1)
        gammas = sums[len(self.orders):]
        bottom = (values.take(self.w_slots) + values.take(self.r_slots)
                  + gammas[self.n_split:])
        return (gammas[:self.n_split].tolist(), bottom.tolist(),
                values.tolist(), base.argmin(axis=1).tolist())

    def order(self, data, slot):
        """The first best ordering of base case ``slot``."""
        return self.orders[slot * self.per + data[3][slot]]


_tail_plan = lru_cache(maxsize=None)(_TailPlan)   # <= 28 (s, base_size) keys


def _scalar_splits(rows, members):
    """(W, rest, gamma(W, rest)) for every split W of ``members`` into
    ceil(|S|/2) and the rest, W in lexicographic order."""
    for w in combinations(members, ceil(len(members) / 2)):
        rest = tuple([v for v in members if v not in w])
        yield w, rest, cross_sum(rows, w, rest)


def split_min(c: np.ndarray, cfg: DcConfig, search, ledger: CostLedger):
    """The dc and qdc solve: minimum over balanced splits of the matrix ``c``.

    A frame over the sorted member tuple S counts one node, then either
    solves S by enumeration (|S| <= base_size) or hands
    ``search(n_values, value_fn)`` the C(|S|, ceil(|S|/2)) splits W of S,
    in lexicographic order. ``search`` must call value_fn once per index
    in ascending order and return (searched minimum, oracle calls).
    value_fn(i) solves W and then S minus W, counts one gamma evaluation,
    and returns their searched values plus gamma(W, S minus W).

    A frame of more than base_size and at most TAIL members is a tail
    (_TailPlan): one gather over its local crossing submatrix gives every
    base-case value and ordering of its subtree and every split's gamma,
    and each bottom node (an internal node whose children are all base
    cases) gets its split values from that gather too. The recursion
    still visits every internal node of a tail in the same pre-order and
    hands its search the same values, but a tail's base cases, and a
    bottom node with its 2m base-case children, are counted without
    entering frames: the meter records the peak and depth those frames
    reach (SpaceMeter.reach), the ledger their node and gamma counts, and
    a node budget that runs out among them raises with the counts and
    readings the frame-by-frame recursion has at that node. Every output,
    ledger field, meter reading and raise point equals that recursion's,
    which TAIL = 0 runs.

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
            searched, calls = search(comb(s, ceil(s / 2)), value_fn)
        finally:
            if held:
                meter.release(held)
        return searched, best[0], calls * (child_charge + 1), best[1] + best[2]

    def overrun(s, m):
        """Raise where the frame-by-frame recursion raises when the budget
        runs out inside a tail node of s members with m base-case splits
        (m = 0 for a base case), whose frames the fast path skips."""
        enter(SpaceMeter.frame_bytes(s))
        done = node_budget - ledger.nodes       # children that return
        ledger.nodes = node_budget
        ledger.gamma_evals += done // 2
        if done >= 2:
            meter.hold(SpaceMeter.trace_bytes(s))
        enter(SpaceMeter.frame_bytes(ceil(s / 2)))   # W's bytes bound the rest's

    def count(s, m, peak, levels):
        """Count a tail node of s members and its m splits' 2m base-case
        children without entering their frames."""
        if node_budget is not None and ledger.nodes + 1 + 2 * m > node_budget:
            overrun(s, m)
        ledger.nodes += 1 + 2 * m
        ledger.gamma_evals += m
        meter.reach(peak, levels)

    def in_tail(plan, data, mask):
        node = plan.nodes[mask]
        if node[0] == _BASE:
            _, s, slot, nbytes = node
            count(s, 0, nbytes, 1)
            value = data[2][slot]
            return value, value, 0, plan.order(data, slot)
        if node[0] == _BOTTOM:
            _, s, offset, slots, peak = node
            m = len(slots)
            count(s, m, peak, 2)
            values = data[1][offset:offset + m]
            searched, calls = search(m, values.__getitem__)
            first = values.index(min(values))
            w, rest = slots[first]
            return (searched, values[first], calls,
                    plan.order(data, w) + plan.order(data, rest))
        _, s, offset, w_masks, r_masks = node
        nbytes = SpaceMeter.frame_bytes(s)
        enter(nbytes)
        try:
            return internal(s, zip(w_masks, r_masks,
                                   data[0][offset:offset + len(w_masks)]),
                            partial(in_tail, plan, data))
        finally:
            meter.exit(nbytes)

    def frame(members):
        s = len(members)
        if base_size < s <= tail:
            plan = _tail_plan(s, base_size)
            searched, exact, charge, order = in_tail(
                plan, plan.gather(local_matrix(c, members)), plan.root)
            return searched, exact, charge, tuple([members[p] for p in order])
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
    _, total, _, ordering = split_min(
        build_crossing_matrix(inst), cfg,
        lambda n_values, value_fn: (min(map(value_fn, range(n_values))), 0), ledger)
    return Solution(None if cfg.count_only else ordering, total), ledger
