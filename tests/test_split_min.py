"""The split recursion shared by dc and qdc (dc.split_min).

Outputs are pinned from the two-pass recursion it replaced (a value pass,
then a second pass re-deriving the winning splits), recorded before the
switch in split_recursion_golden.json. The peak test measures real
allocation at criterion 7's configuration, and the agreement test checks
the engine against dp where brute force no longer reaches. The golden test
also checks qdc's miss flag, and the last tests cover what else the shared
solve adds around the recursion: the recount of the kept ordering and one
gamma count per candidate.
"""

import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscmlab import (BipartiteInstance, DcConfig, NodeBudgetExceeded,
                     QdcConfig, QmfConfig, count_crossings, solve_dc,
                     solve_dp, solve_qdc, split_trace)
from oscmlab.dc import split_min
from oscmlab.ledger import CostLedger

GOLDEN = json.loads(
    Path(__file__).with_name("split_recursion_golden.json").read_text())


def random_instance(rng, n_u, n_v, p):
    edges = tuple((u, v) for u in range(n_u) for v in range(n_v)
                  if rng.random() < p)
    return BipartiteInstance(n_u, n_v, edges)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: f"n{case['n_v']}")
def test_outputs_match_the_two_pass_recursion(case):
    inst = random_instance(random.Random(case["seed"]), case["n_u"],
                           case["n_v"], case["p"])
    dc_sol, _ = solve_dc(inst)
    assert dc_sol.crossings == case["crossings"]
    assert list(dc_sol.ordering) == case["dc_ordering"]

    sol, ledger = solve_qdc(inst)
    assert sol.crossings == case["crossings"]
    assert list(sol.ordering) == case["qdc_ordering"]
    assert split_trace(sol.ordering, 2) == case["qdc_trace"]
    assert "search_missed" not in ledger.meta

    qmf_cfg = QmfConfig(mode="state_vector", seed=case["sv_seed"])
    sampled, ledger = solve_qdc(inst, QdcConfig(qmf_cfg=qmf_cfg))
    assert ledger.oracle_calls == case["sv_oracle_calls"]
    assert list(sampled.ordering) == case["sv_ordering"]
    assert sampled.crossings == case["crossings"]
    # A count-only run reports what the sampled searches found, which
    # misses the optimum on the n=8 case; both runs flag that root search.
    missed = case["sv_count_only_crossings"] != case["crossings"]
    assert ledger.meta["search_missed"] is missed
    counted, ledger = solve_qdc(inst, QdcConfig(count_only=True, qmf_cfg=qmf_cfg))
    assert counted.crossings == case["sv_count_only_crossings"]
    assert ledger.meta["search_missed"] is missed


@pytest.mark.parametrize("solve,cfg", [
    (solve_dc, DcConfig(count_only=True, node_budget=100_000)),
    (solve_qdc, QdcConfig(count_only=True, node_budget=100_000)),
], ids=["dc", "qdc"])
def test_measured_peak_stays_polynomial(solve, cfg):
    inst = random_instance(random.Random(20), 5, 20, 0.4)
    tracemalloc.start()
    try:
        with pytest.raises(NodeBudgetExceeded) as info:
            solve(inst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert info.value.peak_state_bytes < peak


@pytest.mark.parametrize("n_v,seed", [(11, 1), (11, 2), (12, 1), (12, 2)])
def test_dc_qdc_and_dp_agree_past_brute_force(n_v, seed):
    inst = random_instance(random.Random(n_v * 100 + seed), 5, n_v, 0.5)
    want = solve_dp(inst)[0].crossings
    for sol, _ in (solve_dc(inst), solve_qdc(inst)):
        assert sol.crossings == want
        assert count_crossings(inst, sol.ordering) == want


def test_charge_takes_both_siblings_from_the_last_candidate():
    """At even sizes W and the rest have one size but their own searches;
    a node charges calls * (W's charge + the rest's charge + 1)."""
    entered = []

    def search(n_values, value_fn):
        entered.append(n_values)
        calls = len(entered)            # a different count for every search
        return min(value_fn(i) for i in range(n_values)), calls

    c = np.zeros((4, 4), dtype=np.int64)
    _, _, charge, _ = split_min(c, DcConfig(base_size=1), search,
                                CostLedger("qdc"))
    # Search 1 is the root's over C(4, 2) = 6 splits. Each split searches
    # its W, then its rest (two splits each, base cases charge 0), so the
    # last candidate's children are searches 12 and 13.
    assert entered == [6] + [2] * 12
    assert charge == 1 * (12 + 13 + 1)


@pytest.mark.parametrize("solve,cfg", [
    (solve_dc, DcConfig(base_size=1)),
    (solve_qdc, QdcConfig(base_size=1)),
], ids=["dc", "qdc"])
def test_an_ordering_that_does_not_recount_raises(solve, cfg, monkeypatch):
    """With gamma summed as 0 every value is 0 at base size 1, while the
    kept ordering of a dense instance crosses: the recount catches it."""
    monkeypatch.setattr("oscmlab.dc.cross_sum", lambda rows, first, second: 0)
    inst = random_instance(random.Random(5), 4, 6, 0.7)
    assert solve_dp(inst)[0].crossings > 0
    with pytest.raises(AssertionError, match="recounts"):
        solve(inst, cfg)


@pytest.mark.parametrize("mode", ["cost_model", "state_vector"])
def test_qdc_counts_one_gamma_per_candidate_as_dc_does(mode):
    inst = random_instance(random.Random(9), 5, 8, 0.5)
    _, dc_ledger = solve_dc(inst)
    _, ledger = solve_qdc(inst, QdcConfig(qmf_cfg=QmfConfig(mode=mode)))
    assert ledger.gamma_evals == dc_ledger.gamma_evals > 0
    assert "gamma_evals" not in ledger.json_dict()

