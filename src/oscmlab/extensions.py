"""Problem variants on top of the core solvers.

Same-color objective (one side fixed; only same-colored edge pairs count):
the crossing matrix is already built per color class, so every subset
solver minimizes this objective natively; solve_osscm is a thin dispatch
that tags the ledger. On single-color instances it coincides with the
plain objective.

Two-layer objective (both sides free; colors ignored): solve_tlcm
enumerates the smaller layer's permutations and solves the other layer
exactly for each one. The ledger models a square-root-speed search over
the enumerated side: oracle_calls holds ceil(c * sqrt(side!)) times the
cost an inner solve recorded in its own ledger (its recurrence evals plus
its oracle calls), while recurrence_evals tallies the classical work all
the inner runs performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .bigraph import BipartiteInstance, Solution
from .dc import DcConfig, solve_dc
from .dp import solve_dp
from .errors import SizeLimitError
from .ledger import CostLedger
from .oracle import MAX_NU_TLCM, orderings_scanned, solve_osscm_bruteforce
from .qdc import QdcConfig, solve_qdc
from .qdp import QdpConfig, solve_qdp
from .qmf import cost_model_calls

# The config class each solver reads; brute force and dp read none.
_CONFIG_CLASS = {"dc": DcConfig, "qdp": QdpConfig, "qdc": QdcConfig}


def solve_osscm(inst: BipartiteInstance, algo: str = "dp", cfg=None):
    """Minimize same-color crossings with the chosen solver.

    Returns (Solution, CostLedger); the ledger is the inner solver's with
    an objective tag added. ``algo="bruteforce"`` scans every ordering
    (up to oracle.MAX_NV) and reports the scan size as its ledger. A cfg
    of any class but the one the solver reads raises ValueError.
    """
    if cfg is not None and type(cfg) is not _CONFIG_CLASS.get(algo):
        raise ValueError(f"solver {algo!r} does not read a {type(cfg).__name__}")
    if algo == "bruteforce":
        sol = solve_osscm_bruteforce(inst)
        ledger = CostLedger(algo="bruteforce",
                            meta={"orderings_scanned": orderings_scanned(inst.n_v)})
    elif algo == "dp":
        sol, ledger = solve_dp(inst)
    elif algo == "dc":
        sol, ledger = solve_dc(inst, cfg)
    elif algo == "qdp":
        sol, ledger = solve_qdp(inst, cfg)
    elif algo == "qdc":
        sol, ledger = solve_qdc(inst, cfg)
    else:
        raise ValueError(f"unknown solver {algo!r}")
    ledger.meta["objective"] = "osscm"
    return sol, ledger


@dataclass(frozen=True)
class TlcmConfig:
    inner_algo: str = "dp"   # exact solver for the non-enumerated layer
    call_constant: float = 1.0  # c of the outer search's charged calls
    qdp: QdpConfig | None = None  # inner config, for inner_algo "qdp" only

    def __post_init__(self):
        if self.inner_algo not in ("dp", "qdp"):
            raise ValueError("inner solver must be 'dp' or 'qdp'")
        if self.call_constant <= 0:
            raise ValueError("call_constant must be positive")
        if self.qdp is not None and self.inner_algo != "qdp":
            raise ValueError("a qdp config needs inner_algo 'qdp'")


def transpose_instance(inst: BipartiteInstance) -> BipartiteInstance:
    """Swap the two layers (edges reversed, colors kept)."""
    return BipartiteInstance(inst.n_v, inst.n_u,
                             tuple((v, u) for u, v in inst.edges),
                             inst.colors, inst.n_colors)


def solve_tlcm(inst: BipartiteInstance, cfg: TlcmConfig = None):
    """Minimize crossings over both layer orders; colors are ignored.

    Returns (u_ordering, Solution, CostLedger) with Solution carrying the
    second-layer ordering and the total crossings. The smaller layer is
    enumerated (ties go to the first layer); the reported enumerated-side
    ordering is the lexicographically least one attaining the optimum.
    """
    cfg = cfg or TlcmConfig()
    if inst.n_colors > 1:
        inst = inst.uncolored()

    transposed = inst.n_v < inst.n_u
    base = transpose_instance(inst) if transposed else inst
    n_outer, n_inner = base.n_u, base.n_v
    if n_outer > MAX_NU_TLCM:
        raise SizeLimitError(
            f"enumerated layer has {n_outer} vertices; cap is {MAX_NU_TLCM}")

    ledger = CostLedger(algo="tlcm",
                        meta={"inner": cfg.inner_algo, "enumerated_side": n_outer,
                              "transposed": transposed})

    best = None  # (crossings, outer_perm, inner_ordering)
    for perm in permutations(range(n_outer)):
        pos = {u: i for i, u in enumerate(perm)}
        relabeled = BipartiteInstance(
            n_outer, n_inner, tuple((pos[u], v) for u, v in base.edges))
        if cfg.inner_algo == "dp":
            sol, inner = solve_dp(relabeled)
        else:
            sol, inner = solve_qdp(relabeled, cfg.qdp)
        ledger.recurrence_evals += inner.recurrence_evals
        if best is None or sol.crossings < best[0]:
            best = (sol.crossings, perm, sol.ordering)

    # Every inner solve of one size records the same cost; charge it per
    # outer search call.
    outer_calls = cost_model_calls(factorial(n_outer), cfg.call_constant)
    ledger.oracle_calls = outer_calls * (inner.recurrence_evals + inner.oracle_calls)

    crossings, outer, inner_order = best
    if transposed:
        u_ordering, v_ordering = inner_order, outer
    else:
        u_ordering, v_ordering = outer, inner_order
    return u_ordering, Solution(v_ordering, crossings), ledger
