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

The simulation memoizes each subset's optimum and winning split in phase 2
— the optimum of a subset does not depend on which split rule reached it —
purely to keep desk-scale runs fast; charges are the analytic counts above.
The ordering is rebuilt once at the end by concatenating the winning
splits' orders down to table leaves.

Alpha is capped at 0.5: with alpha <= 1 - alpha the third level's split
size ceil(alpha*n/4) and its complement both fit the table (ceilings are
superadditive, so ceil(n/4) <= ceil(alpha*n/4) + ceil((1-alpha)*n/4)),
which is what keeps the search depth at three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import ceil, comb, sqrt

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .bits import mask_of, mask_members
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
    level1 = ceil(c * sqrt(comb(n, k1)))
    level2 = 0
    level3 = 0
    s2 = k1
    if s2 > t:
        k2 = ceil(s2 / 2)
        if 1 <= k2 < s2:
            level2 = ceil(c * sqrt(comb(s2, k2)))
            s3 = k2
            if s3 > t:
                k3 = ceil(cfg.alpha * n / 4.0)
                if 1 <= k3 < s3:
                    level3 = ceil(c * sqrt(comb(s3, k3)))
    quantum = level1 * (1 + level2 * (1 + level3))
    return classical, quantum


def _search_charge(level, s, n, t, alpha, call_constant):
    """Oracle charge of one nested search rooted at a size-s subset."""
    if level > 3 or s <= t:
        return 0
    k = ceil(s / 2) if level <= 2 else ceil(alpha * n / 4.0)
    if not 1 <= k < s:
        return 0
    calls = cost_model_calls(comb(s, k), call_constant)
    return calls * (1 + _search_charge(level + 1, k, n, t, alpha, call_constant))


def solve_qdp(inst: BipartiteInstance, cfg: QdpConfig = None):
    """Solve one instance exactly; returns (Solution, CostLedger)."""
    cfg = cfg or QdpConfig()
    n = inst.n_v
    if n > 64:
        raise SizeLimitError(f"subset solvers support n_v <= 64, got {n}")
    ledger = CostLedger(algo="qdp", meta={"alpha": cfg.alpha, "n_v": n})
    if n == 0:
        return Solution((), 0), ledger
    c = build_crossing_matrix(inst).counts

    t = table_threshold(n, cfg.alpha)
    fallback = n < cfg.min_quantum_n or t >= n
    t_eff = n if fallback else t

    # Phase 1: classical table over all subsets of size <= t_eff.
    table = {}
    for s in range(1, t_eff + 1):
        for combo in combinations(range(n), s):
            mask = mask_of(combo)
            if s == 1:
                table[mask] = (0, -1)
                ledger.recurrence_evals += 1
                continue
            idx = np.array(combo)
            best, best_w = None, None
            for w in combo:
                val = table[mask ^ (1 << w)][0] + int(c[idx, w].sum())
                ledger.recurrence_evals += 1
                if best is None or val < best:
                    best, best_w = val, w
            table[mask] = (best, best_w)

    def table_order(mask):
        out = []
        m = mask
        while m.bit_count() > 1:
            w = table[m][1]
            out.append(w)
            m ^= 1 << w
        if m:
            out.append(m.bit_length() - 1)
        out.reverse()
        return tuple(out)

    full = (1 << n) - 1
    if fallback:
        ledger.table_reads += 1
        return Solution(table_order(full), table[full][0]), ledger

    # Phase 2: nested searches over splits, leaves read from the table.
    # Splits of one subset are enumerated lexicographically over the
    # ascending member list (same order as dc.split_min), with all gammas
    # for the node computed in one vectorized pass: for membership matrix
    # P and the subset's matrix block B, gamma_i = p_i B (1 - p_i).
    k3 = ceil(cfg.alpha * n / 4.0)
    memo = {}

    def eval_opt(mask, level):
        s = mask.bit_count()
        if s <= t:
            ledger.table_reads += 1
            return table[mask][0]
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        if level > 3:
            raise AssertionError("split recursion exceeded three search levels")
        k = ceil(s / 2) if level <= 2 else k3
        members = mask_members(mask)
        block = c[np.ix_(members, members)]
        combos = list(combinations(range(s), k))
        picks = np.zeros((len(combos), s), dtype=np.int64)
        picks[np.repeat(np.arange(len(combos)), k),
              np.fromiter(chain.from_iterable(combos), np.intp,
                          len(combos) * k)] = 1
        row_sums = picks @ block
        gammas = row_sums.sum(axis=1) - (row_sums * picks).sum(axis=1)
        bits = [1 << v for v in members]
        best = best_w = None
        for combo, gamma in zip(combos, gammas.tolist()):
            wmask = sum(bits[j] for j in combo)
            val = (eval_opt(wmask, level + 1)
                   + eval_opt(mask ^ wmask, level + 1) + gamma)
            if best is None or val < best:
                best, best_w = val, wmask
        memo[mask] = (best, best_w)
        return best

    def order_of(mask):
        if mask.bit_count() <= t:
            return table_order(mask)
        wmask = memo[mask][1]
        return order_of(wmask) + order_of(mask ^ wmask)

    value = eval_opt(full, 1)
    ledger.oracle_calls = _search_charge(1, n, n, t, cfg.alpha,
                                         cfg.qmf_cfg.call_constant)
    return Solution(order_of(full), value), ledger
