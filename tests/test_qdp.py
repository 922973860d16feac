import json
import random
from math import ceil, comb
from pathlib import Path

import pytest

from oscmlab import (BipartiteInstance, QdpConfig, SizeLimitError,
                     count_crossings, qdp_cost_model, solve_dp, solve_qdp,
                     table_threshold)

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))

SEEDS = [6, 18, 30, 42, 54, 68, 82, 96]

# Outputs recorded from the dict-table solver with one memoized recursive
# call per candidate split, which the layer kernels replaced.
GOLDEN = json.loads(Path(__file__).with_name("qdp_golden.json").read_text())


def test_threshold_examples():
    assert table_threshold(16, 0.055362) == 4
    assert table_threshold(0, 0.5) == 0


@pytest.mark.parametrize("n", range(1, 33))
def test_threshold_half_alpha_is_eighth(n):
    assert table_threshold(n, 0.5) == ceil(n / 8)


def test_cost_model_pinned_values():
    assert qdp_cost_model(16) == (9216, 1140)
    assert qdp_cost_model(8) == (64, 36)
    assert qdp_cost_model(1) == (1, 0)  # all in table, zero search levels
    assert qdp_cost_model(7) == (7 * 2 ** 6, 0)  # below min_quantum_n


def test_cost_model_classical_term_is_binomial_sum():
    cfg = QdpConfig(alpha=0.2)
    for n in (10, 14, 21):
        t = table_threshold(n, 0.2)
        classical, _ = qdp_cost_model(n, cfg)
        assert classical == sum(comb(n, i) * i for i in range(1, t + 1))


def test_cost_model_third_level_activates_at_scale():
    # at the default alpha the innermost search only opens once
    # ceil(n/4) outgrows the table threshold
    cfg = QdpConfig()
    n = 80
    t = table_threshold(n, cfg.alpha)
    k1, s2 = ceil(n / 2), ceil(n / 2)
    k2, s3 = ceil(s2 / 2), ceil(s2 / 2)
    k3 = ceil(cfg.alpha * n / 4)
    assert s3 > t >= 1
    level1 = ceil(comb(n, k1) ** 0.5)
    level2 = ceil(comb(s2, k2) ** 0.5)
    level3 = ceil(comb(s3, k3) ** 0.5)
    _, quantum = qdp_cost_model(n, cfg)
    assert quantum == level1 * (1 + level2 * (1 + level3))


def test_k22_via_fallback():
    sol, ledger = solve_qdp(K22)
    assert sol.crossings == 1
    assert ledger.oracle_calls == 0
    assert ledger.table_reads == 1


def test_fallback_ledger():
    inst = random_instance(random.Random(3), 4, 7, 0.5)
    sol, ledger = solve_qdp(inst)
    assert ledger.recurrence_evals == 7 * 2 ** 6
    assert (ledger.oracle_calls, ledger.table_reads) == (0, 1)
    assert sol.crossings == solve_dp(inst)[0].crossings


@pytest.mark.parametrize("n_v,alpha", [(8, 0.055362), (10, 0.055362),
                                       (12, 0.3), (9, 0.5)])
def test_ledger_equals_cost_model(n_v, alpha):
    inst = random_instance(random.Random(n_v), 4, n_v, 0.5)
    cfg = QdpConfig(alpha=alpha)
    _, ledger = solve_qdp(inst, cfg)
    assert (ledger.recurrence_evals, ledger.oracle_calls) == qdp_cost_model(n_v, cfg)
    assert ledger.table_reads > 0
    assert ledger.json_dict()["alpha"] == alpha
    assert set(ledger.json_dict()) == {
        "algo", "alpha", "classical_evals", "oracle_calls", "table_reads"}


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_dp_small(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 11), 0.5)
    sol, _ = solve_qdp(inst)
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


def test_matches_dp_at_sixteen():
    inst = random_instance(random.Random(160), 5, 16, 0.4)
    sol, ledger = solve_qdp(inst)
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert (ledger.recurrence_evals, ledger.oracle_calls) == (9216, 1140)


def test_all_three_levels_live_with_wide_alpha():
    # alpha=0.4, n=16: threshold 3, so the size-4 subsets open a third search
    cfg = QdpConfig(alpha=0.4)
    inst = random_instance(random.Random(77), 4, 16, 0.5)
    sol, ledger = solve_qdp(inst, cfg)
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert (ledger.recurrence_evals, ledger.oracle_calls) == qdp_cost_model(16, cfg)
    assert ledger.oracle_calls == 114 * (1 + 9 * (1 + 3))


def test_matches_dp_at_eighteen():
    inst = random_instance(random.Random(180), 5, 18, 0.4)
    sol, _ = solve_qdp(inst)
    assert sol.crossings == solve_dp(inst)[0].crossings


def test_matches_dp_at_seventeen():
    inst = random_instance(random.Random(170), 6, 17, 0.5)
    sol, ledger = solve_qdp(inst)
    want = solve_dp(inst)[0].crossings
    assert sol.crossings == want
    assert count_crossings(inst, sol.ordering) == want
    assert (ledger.recurrence_evals, ledger.oracle_calls) == qdp_cost_model(17)


@pytest.mark.parametrize(
    "case", GOLDEN,
    ids=lambda case: f"n{case['n_v']}-a{case['alpha']}-q{case['min_quantum_n']}")
def test_outputs_match_the_dict_table_solver(case):
    inst = random_instance(random.Random(case["seed"]), case["n_u"],
                           case["n_v"], case["p"])
    cfg = QdpConfig(alpha=case["alpha"], min_quantum_n=case["min_quantum_n"])
    sol, ledger = solve_qdp(inst, cfg)
    assert list(sol.ordering) == case["ordering"]
    assert sol.crossings == case["crossings"]
    assert ledger.recurrence_evals == case["recurrence_evals"]
    assert ledger.table_reads == case["table_reads"]
    assert ledger.oracle_calls == case["oracle_calls"]


def test_empty_layer():
    sol, ledger = solve_qdp(BipartiteInstance(2, 0))
    assert (sol.ordering, sol.crossings) == ((), 0)
    assert ledger.recurrence_evals == 0


def test_validation():
    with pytest.raises(ValueError):
        QdpConfig(alpha=0.0)
    with pytest.raises(ValueError):
        QdpConfig(alpha=1.0)
    with pytest.raises(SizeLimitError):
        solve_qdp(BipartiteInstance(1, 65))


def test_rejects_a_nonpositive_call_constant():
    """solve_qdp charges its searches and samples none, so its one search
    setting is the call constant, which must be positive."""
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="call_constant"):
            QdpConfig(call_constant=c)
    assert QdpConfig(call_constant=2.0).call_constant == 2.0
