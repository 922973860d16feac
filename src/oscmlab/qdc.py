"""Quantum divide-and-conquer solver, simulated in polynomial space.

Each internal node delegates its min over balanced splits (|W| =
ceil(|S|/2), W preceding the complement) to the minimum-finding subroutine
in qmf; both children recurse. The oracle charge composes per node as

    Q(k) = 0                                        if k <= base_size
    Q(k) = L(k) * (Q(floor(k/2)) + Q(ceil(k/2)) + 1) otherwise,
    L(k) = ceil(c * sqrt(C(k, ceil(k/2))))

— every charged query at a node carries one full evaluation of each child —
and qdc_cost_model computes the same quantity in closed form so solver
ledgers can be checked against it exactly. The recursion is dc.split_min
with qmf as the minimizer, so recursion nodes are counted exactly as in
the classical divide-and-conquer solver and `nodes` matches dc_node_count.

Every frame also keeps its first exactly-best split and that split's
ordering, so the optimal ordering comes out of the same pass. split_trace
rebuilds the split tree from that ordering alone, as the JSON-ready dict
that `oscmlab solve --trace-out` writes: node "0,0" is the root, and node
"i,j" splits into "i+1,2j" (the first ceil(s/2) vertices, which precede)
and "i+1,2j+1" (the rest), down to base_size. Leaves keep their
enumerated internal ordering, since split bits alone cannot recover it
once base cases hold more than one vertex. extract_ordering walks that
dict (or json.loads of a trace file) pre-order and validates balance and
completeness along the way.

In cost-model mode (the default) the searched minimum is asserted equal to
the kept exact value, which split_min recounts on the kept ordering. In
state-vector mode each search sees its children's searched minima plus
gamma, and oracle charges reflect the sampled search rounds; a count-only
run reports the root's searched minimum (ledger.meta["search_missed"] says
whether it lies above the exact one), while a full run reports the exact
kept best and its ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, comb

import numpy as np

from .bigraph import BipartiteInstance, Solution
from .dc import DcConfig, split_min
from .ledger import CostLedger
from .matrix import build_crossing_matrix
from .qmf import QmfConfig, cost_model_calls, qmf


@dataclass(frozen=True)
class QdcConfig(DcConfig):
    """DcConfig plus the minimum-finding config of every node's search."""

    qmf_cfg: QmfConfig = field(default_factory=QmfConfig)


def qdc_cost_model(n_v: int, cfg: QdcConfig = None) -> int:
    """Closed-form oracle-call total the solver ledger must match exactly."""
    cfg = cfg or QdcConfig()
    return _charge(n_v, cfg.base_size, cfg.qmf_cfg.call_constant)


@lru_cache(maxsize=None)
def _charge(k: int, base_size: int, call_constant: float) -> int:
    if k <= base_size:
        return 0
    half = ceil(k / 2)
    calls = cost_model_calls(comb(k, half), call_constant)
    return calls * (_charge(k - half, base_size, call_constant)
                    + _charge(half, base_size, call_constant) + 1)


def extract_ordering(trace: dict, n_v: int = None) -> tuple:
    """Pre-order leaf concatenation of a split_trace dict; validates that
    the trace is a split tree of range(n_v)."""
    nodes, sizes, leaves = trace["nodes"], trace["sizes"], trace["leaves"]
    if n_v is not None and n_v != trace["n_v"]:
        raise ValueError(f"trace covers {trace['n_v']} vertices, expected {n_v}")
    if "0,0" not in nodes:
        raise ValueError("trace has no root node")

    def walk(i, j):
        key = f"{i},{j}"
        members = list(nodes[key])
        if key in leaves:
            leaf = list(leaves[key])
            if sorted(leaf) != members:
                raise ValueError(f"leaf {key} ordering does not match its members")
            return leaf
        left, right = f"{i + 1},{2 * j}", f"{i + 1},{2 * j + 1}"
        if left not in nodes or right not in nodes:
            raise ValueError(f"internal node {key} is missing a child")
        if sizes[left] != ceil(sizes[key] / 2):
            raise ValueError(f"unbalanced split at {key}")
        if sorted(list(nodes[left]) + list(nodes[right])) != members:
            raise ValueError(f"children of {key} do not partition it")
        return walk(i + 1, 2 * j) + walk(i + 1, 2 * j + 1)

    ordering = walk(0, 0)
    if sorted(ordering) != list(range(trace["n_v"])):
        raise ValueError("trace leaves do not cover every vertex exactly once")
    return tuple(ordering)


def split_trace(ordering, base_size: int) -> dict:
    """The split tree of an ordering, as the JSON-ready dict that
    --trace-out writes: each part splits into its first ceil(s/2) vertices
    and the rest, down to parts of base_size. Keys "i,j" run level by
    level; nodes hold sorted members, leaves their order in ``ordering``."""
    nodes, sizes, leaves = {}, {}, {}
    depth, level = 0, [(0, tuple(ordering))]
    while level:
        below = []
        for j, part in level:
            key = f"{depth},{j}"
            nodes[key] = sorted(part)
            sizes[key] = len(part)
            if len(part) <= base_size:
                leaves[key] = list(part)
            else:
                k = ceil(len(part) / 2)
                below += [(2 * j, part[:k]), (2 * j + 1, part[k:])]
        depth, level = depth + 1, below
    return {"n_v": len(ordering), "base_size": base_size,
            "nodes": nodes, "sizes": sizes, "leaves": leaves}


def solve_qdc(inst: BipartiteInstance, cfg: QdcConfig = None):
    """Solve one instance; returns (Solution, CostLedger)."""
    cfg = cfg or QdcConfig()
    sampled = cfg.qmf_cfg.mode == "state_vector"
    ledger = CostLedger(algo="qdc",
                        meta={"n_v": inst.n_v, "base_size": cfg.base_size,
                              "qmf_mode": cfg.qmf_cfg.mode})
    rng = np.random.default_rng(cfg.qmf_cfg.seed) if sampled else None

    def search(n_values, value_fn):
        res = qmf(n_values, value_fn, cfg.qmf_cfg, rng)
        return res.min_value, res.oracle_calls

    searched, exact, ledger.oracle_calls, ordering = split_min(
        build_crossing_matrix(inst), cfg, search, ledger)
    if sampled:
        ledger.meta["search_missed"] = searched != exact
    elif searched != exact:
        raise AssertionError(f"searched minimum {searched} is not the exact {exact}")
    if cfg.count_only:
        return Solution(None, searched), ledger
    return Solution(ordering, exact), ledger

