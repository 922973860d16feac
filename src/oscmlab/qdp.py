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
size is one layer too, and the search sizes are one chain of colex's
split kernel, smallest first (colex.split_layers), each subset keeping
its first strictly-best split in the order of dc.split_min. A search
layer keeps Sym per subset beside its optimum; the Sym of a table size
that a search reads as its W side is summed before the searches run,
from the same product as a search layer's rho (dp's table layers carry
none). The optimum of a subset does not depend on which search reached
it, so one value per subset stands for all of them; charges are the
analytic counts above, composed along the plan of search sizes. The
ordering is rebuilt at the end down the winning splits to table leaves,
which peel their last vertices (colex.split_order, colex.peel).

The searches run in colex's cached regime (colex module docstring): their
chunks, row plans and pick maps are colex's, kept across solves.

Space: sum_{i<=t} C(n, i) table entries, a choice per subset of each
search size s (C(n, s) of them, in int8, int16 or int32 by C(s, k), as
colex says), and one chunk at a time. The optimum and Sym of a size, in
the value dtype, are dropped after the last search that reads them, and
a search size keeps its Sym only where a larger search reads it as a W
side (colex.split_layers). Warm tracemalloc peaks of n = 15 and 16 solves
(random_instance, n_u 8, p 0.5) read 311 and 333 KB. The row plans hold
0.20, 8.08 and 8.13 MB at n = 12, 15 and 16, and all the tables the
chain leaves cached (members, splits, pick maps and plans) 0.27, 8.3 and
8.6 MB, which ledger.meta["plan_bytes"] reports (colex.table_bytes).

Alpha is capped at 0.5: with alpha <= 1 - alpha the third level's split
size ceil(alpha*n/4) and its complement both fit the table (ceilings are
superadditive, so ceil(n/4) <= ceil(alpha*n/4) + ceil((1-alpha)*n/4)),
which is what keeps the search depth at three.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

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
    opt, choice = {}, {}
    for s, layer in enumerate(subset_layers(c, n, n if fallback else t)):
        opt[s], choice[s] = layer
        ledger.recurrence_evals += len(opt[s]) * s
        ledger.meta["qram_entries"] += len(opt[s])

    if fallback:
        ledger.table_reads += 1
        order = colex.peel(choice, list(range(n)))
        return Solution(tuple(order), int(opt[n][0])), ledger

    # Phase 2: the nested searches, one layer per search size, smallest
    # first so that both sides of every split are already evaluated.
    # Each charged query at a level carries one search on its W side, whose
    # charge the smaller size has already composed.
    plan = sorted(_search_plan(n, t, ceil(cfg.alpha * n / 4.0)).items())
    floats = exact_floats(c)
    sym = {k: colex.sym(floats, k, opt[0].dtype) for _, k in plan if k <= t}
    choice.update(colex.split_layers(floats, plan, opt, sym, True))
    charge = {}
    for s, k in plan:
        ledger.table_reads += comb(n, s) * comb(s, k) * ((k <= t) + (s - k <= t))
        charge[s] = (cost_model_calls(comb(s, k), cfg.call_constant)
                     * (1 + charge.get(k, 0)))
    ledger.oracle_calls = charge[n]
    widths = dict(plan)
    ledger.meta["plan_bytes"] = colex.table_bytes(n, widths)
    order = colex.split_order(list(range(n)), choice, widths,
                              lambda members: colex.peel(choice, members))
    return Solution(tuple(order), int(opt[n][0])), ledger
