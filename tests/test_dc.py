import random
from math import ceil, comb

import pytest

from oscmlab import (BipartiteInstance, DcConfig, NodeBudgetExceeded,
                     count_crossings, dc_max_depth, dc_node_count,
                     solve_bruteforce, solve_dc, solve_dp)
from oscmlab.dc import dc_gamma_count

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))

SEEDS = [5, 16, 28, 39, 52, 66, 85, 99]


def node_recurrence(k, base):
    if k <= base:
        return 1
    half = ceil(k / 2)
    return 1 + comb(k, half) * (node_recurrence(k - half, base)
                                + node_recurrence(half, base))


def gamma_recurrence(k, base):
    if k <= base:
        return 0
    half = ceil(k / 2)
    return comb(k, half) * (1 + gamma_recurrence(k - half, base)
                            + gamma_recurrence(half, base))


def test_k22():
    sol, _ = solve_dc(K22)
    assert sol.crossings == 1
    assert count_crossings(K22, sol.ordering) == 1


def test_single_vertex_is_one_node():
    sol, ledger = solve_dc(BipartiteInstance(2, 1, ((0, 0),)),
                           DcConfig(base_size=1))
    assert (sol.crossings, ledger.nodes) == (0, 1)


@pytest.mark.parametrize("k,base,expected", [
    (1, 2, 1), (2, 2, 1), (2, 1, 5), (4, 1, 61),
])
def test_node_count_pinned_values(k, base, expected):
    assert dc_node_count(k, base) == expected


@pytest.mark.parametrize("k", range(1, 12))
@pytest.mark.parametrize("base", [1, 2, 3])
def test_node_count_matches_recurrence(k, base):
    assert dc_node_count(k, base) == node_recurrence(k, base)


@pytest.mark.parametrize("k", range(12))
@pytest.mark.parametrize("base", [1, 2, 3])
def test_gamma_count_matches_recurrence(k, base):
    assert dc_gamma_count(k, base) == gamma_recurrence(k, base)


def test_four_vertices_base_one_is_61_nodes():
    inst = random_instance(random.Random(4), 3, 4, 0.6)
    _, ledger = solve_dc(inst, DcConfig(base_size=1))
    assert ledger.nodes == 61


@pytest.mark.parametrize("n_v,base", [(4, 1), (6, 2), (7, 2), (8, 3)])
def test_ledger_matches_models(n_v, base):
    inst = random_instance(random.Random(n_v * 10 + base), 4, n_v, 0.5)
    _, ledger = solve_dc(inst, DcConfig(base_size=base))
    assert ledger.nodes == dc_node_count(n_v, base)
    assert ledger.gamma_evals == gamma_recurrence(n_v, base)
    assert ledger.json_dict() == {
        "algo": "dc", "nodes": ledger.nodes, "gamma_evals": ledger.gamma_evals,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_bruteforce(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 8), 0.5)
    sol, _ = solve_dc(inst)
    assert sol.crossings == solve_bruteforce(inst).crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


@pytest.mark.parametrize("base", [1, 2, 3, 4])
def test_base_size_never_changes_the_optimum(base):
    rng = random.Random(base)
    inst = random_instance(rng, 4, 7, 0.5)
    ref, _ = solve_dp(inst)
    sol, _ = solve_dc(inst, DcConfig(base_size=base))
    assert sol.crossings == ref.crossings


def test_count_only_skips_reconstruction_not_counting():
    inst = random_instance(random.Random(8), 4, 6, 0.5)
    full_sol, full_led = solve_dc(inst)
    fast_sol, fast_led = solve_dc(inst, DcConfig(count_only=True))
    assert fast_sol.ordering is None
    assert fast_sol.crossings == full_sol.crossings
    assert fast_led.nodes == full_led.nodes  # reconstruction is uncounted
    assert fast_led.gamma_evals == full_led.gamma_evals


def test_space_meter_reports_spine_depth():
    inst = random_instance(random.Random(9), 4, 10, 0.5)
    _, ledger = solve_dc(inst, DcConfig(count_only=True))
    assert ledger.meta["max_depth"] == dc_max_depth(10, 2) == 4
    assert 0 < ledger.meta["peak_state_bytes"] < 2048


def test_node_budget_exception_carries_witnesses():
    inst = random_instance(random.Random(10), 4, 9, 0.5)
    with pytest.raises(NodeBudgetExceeded) as info:
        solve_dc(inst, DcConfig(count_only=True, node_budget=500))
    exc = info.value
    assert exc.ledger.nodes == 501
    assert exc.max_depth == dc_max_depth(9, 2)
    assert 0 < exc.peak_state_bytes < 2048


def test_config_validation():
    with pytest.raises(ValueError):
        DcConfig(base_size=0)
    with pytest.raises(ValueError):
        DcConfig(node_budget=0)


@pytest.mark.parametrize("k,base", [(5, 2), (20, 2), (33, 1)])
def test_max_depth_is_the_halving_chain(k, base):
    depth, size = 1, k
    while size > base:
        size = ceil(size / 2)
        depth += 1
    assert dc_max_depth(k, base) == depth
    assert dc_max_depth(20, 2) == 5
