"""Exact-solver laboratory for one-sided crossing minimization.

Classical subset DP and divide and conquer, plus simulated quantum
counterparts (hybrid DP with nested minimum-finding searches, and quantum
divide and conquer), all with deterministic cost ledgers that can be
checked against closed-form models.
"""

from .analysis import (GROVER_BASE, alpha_balance_residual, balanced_alpha,
                       binary_entropy, fit_exponent_base, fpt_crossover_k,
                       fpt_crossover_k_tight)
from .bigraph import (BipartiteInstance, Solution, count_crossings,
                      count_restricted_crossings, count_same_color_crossings,
                      count_two_level_crossings, format_instance, load_instance,
                      parse_instance_text, save_instance)
from .dc import DcConfig, dc_max_depth, dc_node_count, solve_dc
from .dp import DpTable, dp_recurrence_count, dp_table_entries, solve_dp
from .errors import InstanceParseError, NodeBudgetExceeded, SizeLimitError
from .extensions import TlcmConfig, solve_osscm, solve_tlcm, transpose_instance
from .generate import GenSpec, random_instance
from .ledger import CostLedger
from .matrix import build_crossing_matrix, gamma, ordering_cost
from .oracle import (OracleLimit, orderings_scanned, solve_bruteforce,
                     solve_osscm_bruteforce, solve_tlcm_bruteforce)
from .qdc import (QdcConfig, extract_ordering, qdc_cost_model, solve_qdc,
                  split_trace)
from .qdp import QdpConfig, qdp_cost_model, solve_qdp, table_threshold
from .qmf import QmfConfig, QmfResult, cost_model_calls, qmf, qmf_success_rate

__version__ = "0.1.0"

__all__ = [
    "GROVER_BASE",
    "BipartiteInstance", "Solution", "CostLedger",
    "DcConfig", "DpTable", "GenSpec", "InstanceParseError",
    "NodeBudgetExceeded", "OracleLimit", "QdcConfig", "QdpConfig",
    "QmfConfig", "QmfResult", "SizeLimitError", "TlcmConfig",
    "alpha_balance_residual", "balanced_alpha", "binary_entropy",
    "build_crossing_matrix", "cost_model_calls", "count_crossings",
    "count_restricted_crossings", "count_same_color_crossings",
    "count_two_level_crossings", "dc_max_depth", "dc_node_count",
    "dp_recurrence_count", "dp_table_entries", "extract_ordering",
    "fit_exponent_base", "format_instance", "fpt_crossover_k",
    "fpt_crossover_k_tight", "gamma", "load_instance", "ordering_cost",
    "orderings_scanned", "parse_instance_text", "qdc_cost_model",
    "qdp_cost_model", "qmf", "qmf_success_rate", "random_instance",
    "save_instance", "solve_bruteforce", "solve_dc", "solve_dp",
    "solve_osscm", "solve_osscm_bruteforce", "solve_qdc", "solve_qdp",
    "solve_tlcm", "solve_tlcm_bruteforce", "split_trace", "table_threshold",
    "transpose_instance",
]
