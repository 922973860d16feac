"""The split recursion shared by dc and qdc (dc.split_min).

Outputs are pinned from the two-pass recursion it replaced (a value pass,
then a second pass re-deriving the winning splits), recorded before the
switch in split_recursion_golden.json; its sampled (sv_*) figures are
those of the BBHT schedule in qmf. The peak test measures real allocation
at criterion 7's configuration, and the agreement test checks the engine
against dp where brute force no longer reaches. The golden test also
checks qdc's miss flag. The tail test checks that tail frames, solved from
one product, qdc's frames whose halves are tails, solved in row batches,
and dc's frames of 9 to 16 members, solved as subset layers, report what
frame-by-frame recursion (TAIL = 0) reports, and the search test that
their searches see what those frames' searches see; the float test that
sums too large for float32 are taken in float64. The last tests
cover what else the shared solve adds around the recursion: the recount
of the kept ordering and one gamma count per candidate.
"""

import json
import random
import tracemalloc
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from oscmlab import (DcConfig, NodeBudgetExceeded, QdcConfig, QmfConfig,
                     count_crossings, dc_node_count, solve_dc, solve_dp,
                     solve_qdc, split_trace)
import oscmlab.dc
from oscmlab.dc import split_min
from oscmlab.ledger import CostLedger
from oscmlab.matrix import build_crossing_matrix

from instances import random_instance

GOLDEN = json.loads(
    Path(__file__).with_name("split_recursion_golden.json").read_text())


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
    # A count-only run reports what the sampled searches found; both runs
    # flag a root search that missed the optimum (none of these cases do).
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
    """The peak of a budgeted solve, warm: an untraced solve first builds
    the tables and plans that colex and dc cache across solves."""
    inst = random_instance(random.Random(20), 5, 20, 0.4)
    with pytest.raises(NodeBudgetExceeded):
        solve(inst, cfg)
    tracemalloc.start()
    try:
        with pytest.raises(NodeBudgetExceeded) as info:
            solve(inst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert info.value.peak_state_bytes < peak


@pytest.mark.parametrize("n_v,seed", [(11, 1), (11, 2), (12, 1), (12, 2),
                                      (13, 1), (14, 1)])
def test_dc_qdc_and_dp_agree_past_brute_force(n_v, seed):
    inst = random_instance(random.Random(n_v * 100 + seed), 5, n_v, 0.5)
    want = solve_dp(inst)[0].crossings
    for sol, _ in (solve_dc(inst), solve_qdc(inst)):
        assert sol.crossings == want
        assert count_crossings(inst, sol.ordering) == want


def outcome(solve, inst, cfg):
    """What a solve reports, or where its node budget ran out. The
    modelled peak and depth depend on n_v and base size alone, and
    tests/test_dc.py checks them on both paths."""
    try:
        sol, ledger = solve(inst, cfg)
    except NodeBudgetExceeded as err:
        return ("raised", err.ledger.nodes, err.ledger.gamma_evals)
    return (sol.crossings, sol.ordering, ledger.nodes, ledger.gamma_evals,
            ledger.oracle_calls, ledger.meta)


def inside_the_root(n_v, base):
    """Budgets that stop a solve at n_v = 11 or 12 inside its root, a
    frame whose halves are tails: early, and in the W and the rest of the
    root's fourth candidate. The full solve joins them where frame-by-frame
    recursion finishes it in a fifth of a second (n_v = 11, base 3)."""
    total = dc_node_count(n_v, base)
    w, r = dc_node_count(ceil(n_v / 2), base), dc_node_count(n_v // 2, base)
    fourth = 2 + 3 * (w + r)
    return {1, 2, 5, fourth, fourth + w} | ({None} if total < 50_000 else set())


def by_size(budgets):
    return sorted(budgets, key=lambda b: b or 0)


@pytest.mark.parametrize("base", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("solve,config", [(solve_dc, DcConfig),
                                          (solve_qdc, QdcConfig)],
                         ids=["dc", "qdc"])
def test_tail_frames_report_what_scalar_frames_report(monkeypatch, solve,
                                                      config, base):
    """Budgets of a few nodes, of a third and of all but one of the tree
    stop inside a tail (the whole tree is one up to n_v = TAIL, and at
    n_v = 9 and 10 all but its root is), and at n_v = 11 and 12 budgets
    stop inside the root, whose halves are tails (at base 5, n_v = 11's
    rest is a base case). Unbudgeted, dc solves n_v = 9 to 12 as layered
    frames, whose layers are the same at every base size; at base sizes 4
    and 5 their ordering walk must still hand base cases of 4 and 5
    members to base_case."""
    for n_v in range(1, 13):
        inst = random_instance(random.Random(1000 + n_v), 5, n_v, 0.5)
        total = dc_node_count(n_v, base)
        budgets = (inside_the_root(n_v, base) if n_v > 10 else
                   {None, 1, 2, 5, total // 3 + 1, total - 1} - {0})
        for budget in by_size(budgets):
            cfg = config(base_size=base, node_budget=budget)
            tails = outcome(solve, inst, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(oscmlab.dc, "TAIL", 0)
                assert outcome(solve, inst, cfg) == tails, (n_v, budget)


def search_log(monkeypatch, inst, cfg):
    """Every search of a qdc solve in the order entered: its domain, the
    values it saw and the oracle calls it returned; then the node count
    where the node budget ran out, if it did."""
    original, log = oscmlab.qdc.qmf, []

    def recording(n_values, value_fn, qmf_cfg, rng):
        entry, seen = [n_values], []
        log.append(entry)

        def recorded(i):
            seen.append(value_fn(i))
            return seen[-1]

        res = original(n_values, recorded, qmf_cfg, rng)
        entry += [seen, res.oracle_calls]
        return res

    monkeypatch.setattr(oscmlab.qdc, "qmf", recording)
    try:
        solve_qdc(inst, cfg)
    except NodeBudgetExceeded as err:
        log.append(err.ledger.nodes)
    return log


@pytest.mark.parametrize("mode", ["cost_model", "state_vector"])
@pytest.mark.parametrize("base", [1, 2, 3])
def test_tail_searches_see_what_scalar_searches_see(monkeypatch, mode, base):
    """A tail walks only its internal nodes and reads base-case values,
    and a frame whose halves are tails reads each candidate's row of a
    batch, yet their searches are entered in the same order, see the same
    values and return the same calls as frame-by-frame recursion's
    (TAIL = 0), so sampled searches draw the same stream. At n_v = 11 and
    12 node budgets also stop the solve inside the root."""
    qmf_cfg = QmfConfig(mode=mode, seed=base)
    for n_v in range(1, 13):
        inst = random_instance(random.Random(2000 + n_v), 5, n_v, 0.5)
        budgets = inside_the_root(n_v, base) if n_v > 10 else {None}
        for budget in by_size(budgets):
            cfg = QdcConfig(base_size=base, node_budget=budget,
                            qmf_cfg=qmf_cfg)
            with monkeypatch.context() as patch:
                tails = search_log(patch, inst, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(oscmlab.dc, "TAIL", 0)
                assert search_log(patch, inst, cfg) == tails, (n_v, budget)


def test_sums_past_float32_stay_exact():
    """Tails sum in float32 only while the crossing matrix sums below
    2^24; past it (here 7.7e7, optimum 3.8e7) float32 would round the
    root's values, and the recount of the kept ordering would fail."""
    inst = random_instance(random.Random(7), 2600, 10, 0.5)
    assert build_crossing_matrix(inst).sum() >= 2 ** 24
    want = solve_dp(inst)[0].crossings
    for sol, _ in (solve_dc(inst), solve_qdc(inst)):
        assert sol.crossings == want


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
    kept ordering of a dense instance crosses: the recount catches it.
    Tail frames sum gamma from their local matrix, zeroed here too."""
    monkeypatch.setattr("oscmlab.dc.cross_sum", lambda rows, first, second: 0)
    monkeypatch.setattr("oscmlab.dc.local_matrix",
                        lambda c, members: np.zeros((len(members),) * 2,
                                                    dtype=np.int64))
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

