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

A SpaceMeter tracks live algorithm state in bytes under a fixed accounting
model, and an optional node budget lets instrumented runs at sizes too big
to finish still observe the peak (it stabilizes once the first descent
reaches maximum depth).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from dataclasses import dataclass
from math import comb, ceil

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .errors import SizeLimitError, NodeBudgetExceeded
from .ledger import CostLedger
from .matrix import build_crossing_matrix, cross_sum, order_sum


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


def split_min(c: np.ndarray, cfg: DcConfig, search, ledger: CostLedger):
    """The dc and qdc solve: minimum over balanced splits of the matrix ``c``.

    A frame over the sorted member tuple S counts one node, then either
    solves S by enumeration (|S| <= base_size) or hands
    ``search(n_values, value_fn)`` the C(|S|, ceil(|S|/2)) splits W of S,
    which stream from itertools.combinations in lexicographic order.
    ``search`` must call value_fn once per index in ascending order and
    return (searched minimum, oracle calls). value_fn(i) solves W and then
    S minus W, counts one gamma evaluation, and returns their searched
    values plus gamma(W, S minus W).

    Every frame returns (searched value, exact value, oracle charge,
    ordering). The frame keeps only its first strictly best candidate by
    exact value, so the ordering (W's ordering, then the rest's) comes out
    of the same pass. The charge is calls * (W's charge + the rest's
    charge + 1), with both children's charges taken from the last
    candidate searched.

    Returns the root's tuple once its ordering recounts to the exact value
    (else AssertionError), with the SpaceMeter's peak and depth in
    ledger.meta. Raises SizeLimitError past 64 vertices and
    NodeBudgetExceeded past cfg.node_budget nodes.
    """
    n = len(c)
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    rows, meter = c.tolist(), SpaceMeter()
    base_size, node_budget = cfg.base_size, cfg.node_budget

    def frame(members):
        s = len(members)
        nbytes = SpaceMeter.frame_bytes(s)
        meter.enter(nbytes)
        held = 0
        try:
            ledger.nodes += 1
            if node_budget is not None and ledger.nodes > node_budget:
                raise NodeBudgetExceeded(ledger, meter.peak, meter.max_depth)
            if s <= base_size:
                value, order = base_case(rows, members)
                return value, value, 0, order
            k = ceil(s / 2)
            splits = combinations(members, k)
            best = None                 # (exact value, W ordering, rest ordering)
            child_charge = 0            # both children's, last candidate

            def value_fn(_):
                nonlocal best, held, child_charge
                w = next(splits)
                rest = tuple([v for v in members if v not in w])
                w_searched, w_exact, w_charge, w_order = frame(w)
                r_searched, r_exact, r_charge, r_order = frame(rest)
                g = cross_sum(rows, w, rest)
                ledger.gamma_evals += 1
                exact = w_exact + r_exact + g
                if best is None or exact < best[0]:
                    if not held:
                        held = SpaceMeter.trace_bytes(s)
                        meter.hold(held)
                    best = (exact, w_order, r_order)
                child_charge = w_charge + r_charge
                return w_searched + r_searched + g

            searched, calls = search(comb(s, k), value_fn)
            charge = calls * (child_charge + 1)
            return searched, best[0], charge, best[1] + best[2]
        finally:
            if held:
                meter.release(held)
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
