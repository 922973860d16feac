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
NumPy, on dp's table format: a layer holds every subset of one size by its
combinatorial-number-system (colex) rank, so reading a smaller subset's
optimum is an array gather. Phase 1 is dp's kernel (dp.subset_layers) run
up to size t, keeping for each subset its optimum, its Sym and its chosen
last vertex (ties keep the smallest vertex). Phase 2 rests on the searches
reaching every subset of each search size: level 1 enumerates all
ceil(n/2)-subsets and their complements, and so on down. So each search
size is one layer too, evaluated bottom-up after the sizes it splits into.
A split (W, S\\W) of a subset S costs

    OPT(W) + OPT(S\\W) + sum_{v in W} rho_S(v) - Sym(W),

with rho_S(v) = sum_{u in S} c[v][u] and Sym(W) = sum_{v,u in W} c[v][u]
kept per subset beside its optimum. Splits are enumerated lexicographically
over the ascending member positions (the order of dc.split_min) and a
subset keeps its first strictly-best split. The optimum of a subset does
not depend on which search reached it, so one value per subset stands for
all of them; charges are the analytic counts above, taken from the chain
of search layers that ran. The ordering is rebuilt at the end by
concatenating the winning splits' orders down to table leaves.

Space: sum_{i<=t} C(n, i) table entries plus C(n, s) per search size s,
and at most _CHUNK candidate values at a time. Member and split tables
depend on n and the sizes alone and are cached across solves.

Alpha is capped at 0.5: with alpha <= 1 - alpha the third level's split
size ceil(alpha*n/4) and its complement both fit the table (ceilings are
superadditive, so ceil(n/4) <= ceil(alpha*n/4) + ceil((1-alpha)*n/4)),
which is what keeps the search depth at three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, comb

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .dp import (_CHUNK, _binomials, _by_chunks, _layer, _peel, _rank,
                 subset_layers)
from .errors import SizeLimitError
from .ledger import CostLedger
from .matrix import build_crossing_matrix
from .qmf import QmfConfig, cost_model_calls


@dataclass(frozen=True)
class QdpConfig:
    alpha: float = 0.055362
    min_quantum_n: int = 8
    qmf_cfg: QmfConfig = field(default_factory=QmfConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if self.min_quantum_n < 0:
            raise ValueError("min_quantum_n must be non-negative")
        if self.qmf_cfg.mode != "cost_model":
            raise ValueError("solve_qdp charges its searches and samples none; "
                             "qmf_cfg.mode must be 'cost_model'")


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
    c = cfg.qmf_cfg.call_constant
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
def _splits(s, k):
    """Member positions of W and of the rest for every split of an s-subset,
    W running over the k-combinations of range(s) in lexicographic order
    (their complements then run in reverse lexicographic order). Entry
    [i, j] is the position of the i-th member of that side in split j.
    Mapping x to s - 1 - x turns colex order with ascending rows into
    reverse lexicographic order with descending rows."""
    picks = np.ascontiguousarray((s - 1 - _layer(s, k))[::-1, ::-1].T)
    rest = np.ascontiguousarray((s - 1 - _layer(s, s - k))[:, ::-1].T)
    picks.setflags(write=False)
    rest.setflags(write=False)
    return picks, rest


def _sum_at(tables, positions):
    """sum_i tables[i][:, positions[i]]: one column per split."""
    total = tables[0][:, positions[0]]
    for table, at in zip(tables[1:], positions[1:]):
        total += table[:, at]
    return total


def _search_layer(c, n, s, k, w_side, rest_side):
    """Best split of every s-subset into a k-subset W and the rest; ties
    keep the first split."""
    picks, rest = _splits(s, k)
    binom = _binomials(n)[1:max(k, s - k) + 1]
    w_value = w_side.opt - w_side.sym

    def kernel(lo, rows):
        rho = c[rows[:, :, None], rows[:, None, :]].sum(axis=2)
        terms = [column[rows] for column in binom]  # C(member, i + 1)
        vals = _sum_at([rho] * k, picks)
        vals += w_value[_sum_at(terms, picks)]
        vals += rest_side.opt[_sum_at(terms, rest)]
        return vals.min(axis=1), rho.sum(axis=1), vals.argmin(axis=1)

    return _by_chunks(_layer(n, s), max(1, _CHUNK // picks.shape[1]), kernel)


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


def _ordering(n, layers, plan):
    """Optimal ordering of range(n) from the winning candidates: a search
    subset concatenates its split's two orders, a table subset peels its
    last vertices."""
    choice = {s: layer.choice for s, layer in layers.items()}

    def order_of(members):
        s = len(members)
        if s not in plan:
            return _peel(choice, members)
        picks, rest = _splits(s, plan[s])
        j = choice[s][_rank(members)]
        return (order_of([members[i] for i in picks[:, j]])
                + order_of([members[i] for i in rest[:, j]]))

    return tuple(order_of(list(range(n))))


def solve_qdp(inst: BipartiteInstance, cfg: QdpConfig = None):
    """Solve one instance exactly; returns (Solution, CostLedger)."""
    cfg = cfg or QdpConfig()
    n = inst.n_v
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    ledger = CostLedger(algo="qdp", meta={"alpha": cfg.alpha, "n_v": n})
    if n == 0:
        return Solution((), 0), ledger
    c = build_crossing_matrix(inst)

    t = table_threshold(n, cfg.alpha)
    fallback = n < cfg.min_quantum_n or t >= n

    # Phase 1: dp's table layers over all subsets of size <= t (all of
    # them on the fallback path).
    layers = dict(enumerate(subset_layers(c, n, n if fallback else t)))
    ledger.recurrence_evals += sum(len(layer.opt) * s
                                   for s, layer in layers.items())

    if fallback:
        ledger.table_reads += 1
        return Solution(_ordering(n, layers, {}), int(layers[n].opt[0])), ledger

    # Phase 2: the nested searches, one layer per search size, smallest
    # first so that both sides of every split are already evaluated.
    # Each charged query at a level carries one search on its W side, whose
    # charge the smaller size has already composed.
    plan = _search_plan(n, t, ceil(cfg.alpha * n / 4.0))
    charge = {}
    for s in sorted(plan):
        k = plan[s]
        layers[s] = _search_layer(c, n, s, k, layers[k], layers[s - k])
        ledger.table_reads += (len(layers[s].opt) * comb(s, k)
                               * ((k <= t) + (s - k <= t)))
        charge[s] = (cost_model_calls(comb(s, k), cfg.qmf_cfg.call_constant)
                     * (1 + charge.get(k, 0)))
    ledger.oracle_calls = charge[n]
    return Solution(_ordering(n, layers, plan), int(layers[n].opt[0])), ledger
