import random
from math import factorial

import pytest

from oscmlab import (BipartiteInstance, DcConfig, QdcConfig, QdpConfig,
                     SizeLimitError, TlcmConfig,
                     cost_model_calls, count_same_color_crossings,
                     count_two_level_crossings, dp_recurrence_count,
                     qdp_cost_model, solve_dp, solve_osscm,
                     solve_osscm_bruteforce, solve_qdp, solve_tlcm,
                     solve_tlcm_bruteforce, transpose_instance)

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

# Two K_{2,2} blocks on disjoint vertices, one per color class.
TWO_BLOCKS = BipartiteInstance(
    4, 4,
    ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)),
    (0, 0, 0, 0, 1, 1, 1, 1), 2)

# The only crossing pair joins different color classes.
CROSS_COLOR = BipartiteInstance(2, 2, ((0, 1), (1, 0)), (0, 1), 2)

SEEDS = [2, 13, 26, 38, 47, 61, 79, 94]

ALGOS = ["bruteforce", "dp", "dc", "qdp", "qdc"]


@pytest.mark.parametrize("algo", ALGOS)
def test_two_monochromatic_blocks_cost_two(algo):
    sol, ledger = solve_osscm(TWO_BLOCKS, algo)
    assert sol.crossings == 2
    assert count_same_color_crossings(TWO_BLOCKS, sol.ordering) == 2
    assert ledger.meta["objective"] == "osscm"


@pytest.mark.parametrize("algo", ALGOS)
def test_cross_color_pair_is_free(algo):
    sol, _ = solve_osscm(CROSS_COLOR, algo)
    assert sol.crossings == 0
    assert count_same_color_crossings(CROSS_COLOR, sol.ordering) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_single_color_reduces_to_plain_objective(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 7), 0.5)
    sol, _ = solve_osscm(inst, "dp")
    assert sol.crossings == solve_dp(inst)[0].crossings


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algo", ALGOS)
def test_colored_solvers_agree(seed, algo):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 6), 0.4,
                           h=3)
    sol, _ = solve_osscm(inst, algo)
    best = solve_osscm_bruteforce(inst)
    assert sol.crossings == best.crossings
    assert count_same_color_crossings(inst, sol.ordering) == sol.crossings


def test_osscm_bruteforce_ledger():
    _, ledger = solve_osscm(TWO_BLOCKS, "bruteforce")
    assert ledger.json_dict() == {"algo": "bruteforce",
                                  "orderings_scanned": factorial(4),
                                  "objective": "osscm"}


def test_osscm_accepts_solver_configs():
    sol, _ = solve_osscm(TWO_BLOCKS, "dc", DcConfig(base_size=3))
    assert sol.crossings == 2
    sol, _ = solve_osscm(TWO_BLOCKS, "qdc", QdcConfig(base_size=1))
    assert sol.crossings == 2


@pytest.mark.parametrize("algo,cfg", [
    ("bruteforce", DcConfig()), ("dp", DcConfig(base_size=3)),
    ("dp", QdpConfig()), ("dc", QdcConfig()), ("qdc", DcConfig()),
    ("qdp", QdcConfig()), ("qdc", QdpConfig()),
])
def test_osscm_rejects_a_config_its_solver_would_not_read(algo, cfg):
    """QdcConfig subclasses DcConfig, but dc reads none of its own fields,
    so the check is on the exact class."""
    with pytest.raises(ValueError, match=f"'{algo}'.*{type(cfg).__name__}"):
        solve_osscm(TWO_BLOCKS, algo, cfg)


def test_osscm_rejects_unknown_algo():
    with pytest.raises(ValueError):
        solve_osscm(K22, "anneal")


def test_transpose_swaps_layers():
    flipped = transpose_instance(CROSS_PAIR)
    assert (flipped.n_u, flipped.n_v) == (2, 2)
    assert flipped.edges == ((1, 0), (0, 1))
    assert transpose_instance(flipped) == CROSS_PAIR


def test_transpose_keeps_colors():
    flipped = transpose_instance(CROSS_COLOR)
    assert flipped.colors == (0, 1)
    assert flipped.n_colors == 2


def test_tlcm_k22():
    u_order, sol, _ = solve_tlcm(K22)
    assert (u_order, sol.crossings) == ((0, 1), 1)
    assert count_two_level_crossings(K22, u_order, sol.ordering) == 1


def test_tlcm_cross_pair_matches_bruteforce_exactly():
    u_order, sol, _ = solve_tlcm(CROSS_PAIR)
    brute_u, brute_sol = solve_tlcm_bruteforce(CROSS_PAIR)
    assert (u_order, sol) == (brute_u, brute_sol)
    assert sol.crossings == 0


def test_tlcm_single_u_reduces_to_one_inner_solve():
    inst = BipartiteInstance(1, 5, ((0, 1), (0, 3), (0, 4)))
    u_order, sol, _ = solve_tlcm(inst)
    assert u_order == (0,)
    assert sol == solve_dp(inst)[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_tlcm_matches_double_scan(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 4), rng.randint(4, 6), 0.5)
    u_order, sol, _ = solve_tlcm(inst)
    brute_u, brute_sol = solve_tlcm_bruteforce(inst)
    assert sol.crossings == brute_sol.crossings
    assert u_order == brute_u
    assert count_two_level_crossings(inst, u_order, sol.ordering) \
        == sol.crossings


def test_tlcm_ledger_model():
    rng = random.Random(42)
    inst = random_instance(rng, 3, 5, 0.5)
    _, _, ledger = solve_tlcm(inst)
    # ceil(sqrt(3!)) = 3 modeled outer queries, each charged one inner DP.
    assert ledger.oracle_calls == 3 * dp_recurrence_count(5)
    assert ledger.recurrence_evals == factorial(3) * dp_recurrence_count(5)
    assert ledger.json_dict() == {"algo": "tlcm", "enumerated_side": 3,
                                  "inner": "dp",
                                  "classical_evals": 450,
                                  "oracle_calls": 225}


def test_tlcm_qdp_inner():
    rng = random.Random(7)
    inst = random_instance(rng, 3, 8, 0.4)
    cfg = TlcmConfig(inner_algo="qdp")
    u_order, sol, ledger = solve_tlcm(inst, cfg)
    _, dp_sol, _ = solve_tlcm(inst)
    assert sol.crossings == dp_sol.crossings
    assert ledger.oracle_calls == 3 * sum(qdp_cost_model(8, QdpConfig()))
    assert ledger.json_dict()["inner"] == "qdp"
    assert count_two_level_crossings(inst, u_order, sol.ordering) \
        == sol.crossings


def test_tlcm_enumerates_smaller_layer():
    rng = random.Random(13)
    inst = random_instance(rng, 5, 3, 0.5)
    u_order, sol, ledger = solve_tlcm(inst)
    assert ledger.meta["transposed"] is True
    assert ledger.meta["enumerated_side"] == 3
    assert (len(u_order), len(sol.ordering)) == (5, 3)
    _, brute_sol = solve_tlcm_bruteforce(inst)
    assert sol.crossings == brute_sol.crossings
    assert count_two_level_crossings(inst, u_order, sol.ordering) \
        == sol.crossings


def test_tlcm_strips_colors():
    u_order, sol, _ = solve_tlcm(CROSS_COLOR)
    plain_u, plain_sol, _ = solve_tlcm(CROSS_PAIR)
    assert (u_order, sol) == (plain_u, plain_sol)


def test_tlcm_rejects_color_conflicts():
    conflicted = BipartiteInstance(2, 2, ((0, 0), (0, 0)), (0, 1), 2)
    with pytest.raises(ValueError):
        solve_tlcm(conflicted)


def test_tlcm_size_limits():
    """The enumerated layer is capped at oracle.MAX_NU_TLCM = 6, whichever
    layer it is; both refusals come before any enumeration."""
    with pytest.raises(SizeLimitError, match="cap is 6"):
        solve_tlcm(BipartiteInstance(7, 7))
    with pytest.raises(SizeLimitError, match="cap is 6"):
        solve_tlcm(BipartiteInstance(8, 7))


def test_tlcm_config_validation():
    with pytest.raises(ValueError):
        TlcmConfig(inner_algo="dc")


def test_tlcm_rejects_settings_it_would_not_read():
    """The outer search is charged, never sampled, so its one setting is a
    positive call constant; a qdp config needs a qdp inner solver."""
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="call_constant"):
            TlcmConfig(call_constant=c)
    with pytest.raises(ValueError, match="inner_algo 'qdp'"):
        TlcmConfig("dp", qdp=QdpConfig())


def test_tlcm_charges_one_inner_ledger_per_outer_call():
    """oracle_calls is the outer search's charge times the cost one inner
    solve records (recurrence evals plus oracle calls), here with three
    search levels and a non-default call constant."""
    rng = random.Random(11)
    inst = random_instance(rng, 4, 13, 0.4)
    qdp_cfg = QdpConfig(alpha=0.4, call_constant=2.0)
    _, _, ledger = solve_tlcm(inst, TlcmConfig("qdp", call_constant=2.0,
                                               qdp=qdp_cfg))
    _, inner = solve_qdp(inst, qdp_cfg)
    assert inner.oracle_calls > 0
    outer = cost_model_calls(factorial(4), 2.0)
    assert ledger.oracle_calls == outer * (inner.recurrence_evals
                                           + inner.oracle_calls)
    assert ledger.oracle_calls == outer * sum(qdp_cost_model(13, qdp_cfg))
    assert ledger.recurrence_evals == factorial(4) * inner.recurrence_evals
