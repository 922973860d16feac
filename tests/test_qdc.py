import json
import random
from math import ceil, comb, sqrt

import pytest

from oscmlab import (BipartiteInstance, NodeBudgetExceeded, QdcConfig,
                     QmfConfig, QmfResult, count_crossings, dc_max_depth,
                     dc_node_count, dc_peak_state_bytes, extract_ordering,
                     qdc_cost_model,
                     solve_bruteforce, solve_dc, solve_dp, solve_qdc,
                     split_trace)
from oscmlab.qmf import qmf

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

SEEDS = [7, 19, 31, 44, 58, 71, 86, 93]


def charge_recurrence(k, base, c=1.0):
    if k <= base:
        return 0
    half = ceil(k / 2)
    calls = max(1, ceil(c * sqrt(comb(k, half))))
    return calls * (charge_recurrence(k - half, base, c)
                    + charge_recurrence(half, base, c) + 1)


def trace(n_v, base_size, nodes, sizes, leaves):
    """A trace in the JSON form that split_trace returns."""
    return {"n_v": n_v, "base_size": base_size, "nodes": nodes,
            "sizes": sizes, "leaves": leaves}


def two_leaf_trace():
    # Root splits {0,1} with vertex 1 on the preceding side.
    return trace(2, 1,
                 nodes={"0,0": [0, 1], "1,0": [1], "1,1": [0]},
                 sizes={"0,0": 2, "1,0": 1, "1,1": 1},
                 leaves={"1,0": [1], "1,1": [0]})


@pytest.mark.parametrize("k,base,expected", [
    (1, 2, 0), (2, 2, 0), (2, 1, 2), (4, 1, 15), (6, 2, 25), (8, 2, 63),
])
def test_cost_model_pinned_values(k, base, expected):
    assert qdc_cost_model(k, QdcConfig(base_size=base)) == expected


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("base", [1, 2, 3])
def test_cost_model_matches_recurrence(k, base):
    assert qdc_cost_model(k, QdcConfig(base_size=base)) \
        == charge_recurrence(k, base)


def test_cost_model_call_constant():
    cfg = QdcConfig(qmf_cfg=QmfConfig(call_constant=0.5))
    assert qdc_cost_model(8, cfg) == 25
    assert qdc_cost_model(8, cfg) == charge_recurrence(8, 2, 0.5)


def test_k22_is_one_base_node():
    sol, ledger = solve_qdc(K22)
    assert sol.crossings == 1
    assert count_crossings(K22, sol.ordering) == 1
    assert (ledger.oracle_calls, ledger.nodes) == (0, 1)


def test_single_vertex():
    sol, ledger = solve_qdc(BipartiteInstance(3, 1, ((0, 0), (2, 0))))
    assert (sol.ordering, sol.crossings) == ((0,), 0)
    assert (ledger.oracle_calls, ledger.nodes) == (0, 1)


def test_empty_layer():
    sol, ledger = solve_qdc(BipartiteInstance(2, 0))
    assert (sol.ordering, sol.crossings) == ((), 0)
    assert ledger.nodes == dc_node_count(0)
    assert extract_ordering(split_trace(sol.ordering, 2)) == ()


def test_cross_pair_split_and_extract():
    sol, ledger = solve_qdc(CROSS_PAIR, QdcConfig(base_size=1))
    assert (sol.ordering, sol.crossings) == ((1, 0), 0)
    assert (ledger.oracle_calls, ledger.nodes) == (2, 5)
    split = split_trace(sol.ordering, 1)
    assert split["nodes"] == {"0,0": [0, 1], "1,0": [1], "1,1": [0]}
    assert extract_ordering(split) == (1, 0)
    assert extract_ordering(split, 2) == (1, 0)


@pytest.mark.parametrize("n_v", range(4, 11))
@pytest.mark.parametrize("base", [1, 2, 3])
def test_ledger_matches_cost_model(n_v, base):
    inst = random_instance(random.Random(n_v * 10 + base), 4, n_v, 0.5)
    cfg = QdcConfig(base_size=base)
    _, ledger = solve_qdc(inst, cfg)
    assert ledger.oracle_calls == qdc_cost_model(n_v, cfg)
    assert ledger.nodes == dc_node_count(n_v, base)
    assert ledger.json_dict() == {"algo": "qdc",
                                  "oracle_calls": ledger.oracle_calls,
                                  "nodes": ledger.nodes}


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_bruteforce(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 8), 0.5)
    sol, _ = solve_qdc(inst)
    assert sol.crossings == solve_bruteforce(inst).crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


@pytest.mark.parametrize("n_v", [9, 10])
def test_matches_dp_and_dc(n_v):
    inst = random_instance(random.Random(n_v), 5, n_v, 0.4)
    value = solve_qdc(inst)[0].crossings
    assert value == solve_dp(inst)[0].crossings
    assert value == solve_dc(inst)[0].crossings


def test_base_size_never_changes_optimum():
    inst = random_instance(random.Random(123), 4, 9, 0.6)
    values = {solve_qdc(inst, QdcConfig(base_size=b))[0].crossings
              for b in (1, 2, 3, 4)}
    assert len(values) == 1


def test_ledger_reports_the_modelled_peak_state():
    inst = random_instance(random.Random(321), 4, 10, 0.5)
    _, ledger = solve_qdc(inst)
    assert ledger.meta["peak_state_bytes"] == dc_peak_state_bytes(10, 2)
    assert ledger.meta["max_depth"] == dc_max_depth(10, 2) == 4


def test_node_budget_witness_carries_the_modelled_peak_state():
    inst = random_instance(random.Random(99), 4, 10, 0.5)
    cfg = QdcConfig(count_only=True, node_budget=100)
    with pytest.raises(NodeBudgetExceeded) as info:
        solve_qdc(inst, cfg)
    err = info.value
    assert err.ledger.algo == "qdc"
    assert err.ledger.nodes == 101
    assert err.peak_state_bytes == dc_peak_state_bytes(10, 2)
    assert err.max_depth <= dc_max_depth(10, 2)


def test_count_only_skips_reconstruction():
    inst = random_instance(random.Random(55), 4, 8, 0.5)
    sol, ledger = solve_qdc(inst, QdcConfig(count_only=True))
    assert sol.ordering is None
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert ledger.nodes == dc_node_count(8, 2)


def test_state_vector_mode_stays_exact():
    inst = random_instance(random.Random(8), 4, 8, 0.5)
    cfg = QdcConfig(qmf_cfg=QmfConfig(mode="state_vector", seed=11))
    sol, ledger = solve_qdc(inst, cfg)
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings
    # The recorded sampled charge; that it equals qdc_cost_model(8) is chance.
    assert ledger.oracle_calls == 63
    assert ledger.nodes == dc_node_count(8, 2)
    again, ledger2 = solve_qdc(inst, cfg)
    assert (again.ordering, ledger2.oracle_calls) \
        == (sol.ordering, ledger.oracle_calls)


def test_every_sampled_search_that_misses_is_counted(monkeypatch):
    """A stub search that misses on chosen searches, numbered in the order
    they are entered (the root's is 0), and returns their largest value:
    searches_missed counts every one of them, the root's or not, and the
    ledger's JSON keeps its schema. A cost-model run records no count."""
    chosen = {2, 5, 11}
    entered = []

    def stub(n_values, value_fn, cfg=None, rng=None):
        index = len(entered)
        entered.append(n_values)
        values = [value_fn(i) for i in range(n_values)]
        if index in chosen:
            return QmfResult(values.index(max(values)), max(values), 1, False)
        return QmfResult(values.index(min(values)), min(values), 1, True)

    monkeypatch.setattr("oscmlab.qdc.qmf", stub)
    inst = random_instance(random.Random(8), 4, 8, 0.5)
    for count_only in (False, True):
        entered.clear()
        cfg = QdcConfig(count_only=count_only,
                        qmf_cfg=QmfConfig(mode="state_vector", seed=11))
        _, ledger = solve_qdc(inst, cfg)
        assert len(entered) > max(chosen)
        assert ledger.meta["searches_missed"] == len(chosen)
        assert list(ledger.json_dict()) == ["algo", "oracle_calls", "nodes"]
    _, ledger = solve_qdc(inst)
    assert "searches_missed" not in ledger.meta


@pytest.mark.parametrize("n_v,seed", [(8, 11), (10, 3)])
def test_searches_missed_counts_what_the_searches_report(monkeypatch, n_v,
                                                         seed):
    """Seeded sampled runs against a recording search: the count is the
    number of results flagged unsuccessful, of one search per internal
    node (none of these runs misses)."""
    results = []

    def recording(*args):
        results.append(qmf(*args))
        return results[-1]

    monkeypatch.setattr("oscmlab.qdc.qmf", recording)
    inst = random_instance(random.Random(seed), 5, n_v, 0.5)
    cfg = QdcConfig(qmf_cfg=QmfConfig(mode="state_vector", seed=seed))
    _, ledger = solve_qdc(inst, cfg)
    assert ledger.meta["searches_missed"] == sum(
        not result.success_flag for result in results)
    assert len(results) == internal_nodes(n_v, 2)


def internal_nodes(k, base):
    """Recursion nodes of more than base members: one search each."""
    if k <= base:
        return 0
    half = ceil(k / 2)
    return 1 + comb(k, half) * (internal_nodes(half, base)
                                + internal_nodes(k - half, base))


def test_solution_ordering_equals_extracted_trace():
    inst = random_instance(random.Random(77), 5, 9, 0.5)
    sol, _ = solve_qdc(inst)
    dumped = json.loads(json.dumps(split_trace(sol.ordering, 2)))
    assert extract_ordering(dumped) == sol.ordering
    assert extract_ordering(dumped, 9) == sol.ordering


def test_extract_two_vertex_example():
    assert extract_ordering(two_leaf_trace()) == (1, 0)


def test_extract_rejects_empty_side():
    # A split leaving every vertex on one side violates balance.
    unbalanced = trace(2, 1,
                       nodes={"0,0": [0, 1], "1,0": [], "1,1": [0, 1]},
                       sizes={"0,0": 2, "1,0": 0, "1,1": 2},
                       leaves={"1,0": [], "1,1": [0, 1]})
    with pytest.raises(ValueError, match="unbalanced"):
        extract_ordering(unbalanced)


def test_extract_rejects_missing_root():
    with pytest.raises(ValueError, match="root"):
        extract_ordering(trace(1, 1, nodes={}, sizes={}, leaves={}))


def test_extract_rejects_missing_child():
    one_child = trace(2, 1,
                      nodes={"0,0": [0, 1], "1,0": [1]},
                      sizes={"0,0": 2, "1,0": 1},
                      leaves={"1,0": [1]})
    with pytest.raises(ValueError, match="missing a child"):
        extract_ordering(one_child)


def test_extract_rejects_non_partition():
    overlapping = trace(2, 1,
                        nodes={"0,0": [0, 1], "1,0": [1], "1,1": [1]},
                        sizes={"0,0": 2, "1,0": 1, "1,1": 1},
                        leaves={"1,0": [1], "1,1": [1]})
    with pytest.raises(ValueError, match="partition"):
        extract_ordering(overlapping)


def test_extract_rejects_leaf_member_mismatch():
    broken = two_leaf_trace()
    broken["leaves"] = {"1,0": [0], "1,1": [0]}
    with pytest.raises(ValueError, match="leaf"):
        extract_ordering(broken)


def test_extract_rejects_incomplete_cover():
    short = trace(3, 2,
                  nodes={"0,0": [0, 1]},
                  sizes={"0,0": 2},
                  leaves={"0,0": [1, 0]})
    with pytest.raises(ValueError, match="every vertex"):
        extract_ordering(short)


def test_extract_takes_sizes_from_the_members():
    # The "sizes" entries claim a 2 + 1 split of a root whose members split
    # 1 + 2, so the members show the split unbalanced.
    lying = trace(3, 1,
                  nodes={"0,0": [0, 1, 2], "1,0": [0], "1,1": [1, 2],
                         "2,2": [1], "2,3": [2]},
                  sizes={"0,0": 3, "1,0": 2, "1,1": 1, "2,2": 1, "2,3": 1},
                  leaves={"1,0": [0], "2,2": [1], "2,3": [2]})
    with pytest.raises(ValueError, match="unbalanced split at 0,0"):
        extract_ordering(lying)
    miscounted = two_leaf_trace()
    miscounted["sizes"]["0,0"] = 3
    with pytest.raises(ValueError, match="size of node 0,0"):
        extract_ordering(miscounted)


def test_extract_makes_leaves_exactly_the_small_nodes():
    # With base 1, a two-vertex leaf must be split instead.
    big_leaf = trace(3, 1,
                     nodes={"0,0": [0, 1, 2], "1,0": [0, 1], "1,1": [2]},
                     sizes={"0,0": 3, "1,0": 2, "1,1": 1},
                     leaves={"1,0": [1, 0], "1,1": [2]})
    with pytest.raises(ValueError, match="node 1,0 is a leaf iff"):
        extract_ordering(big_leaf)
    # With base 2, a two-vertex node must be a leaf, not split.
    split_small = two_leaf_trace()
    split_small["base_size"] = 2
    with pytest.raises(ValueError, match="node 0,0 is a leaf iff"):
        extract_ordering(split_small)


@pytest.mark.parametrize("field", ["n_v", "base_size", "nodes", "sizes",
                                   "leaves", "sizes 1,1"])
def test_extract_rejects_a_missing_entry(field):
    broken = two_leaf_trace()
    if field == "sizes 1,1":
        del broken["sizes"]["1,1"]
    else:
        del broken[field]
    with pytest.raises(ValueError):
        extract_ordering(broken)


@pytest.mark.parametrize("field", ["base_size", "n_v", "leaf", "node member",
                                   "nodes"])
def test_extract_rejects_a_wrong_typed_entry(field):
    broken = two_leaf_trace()
    if field == "leaf":
        broken["leaves"]["1,0"] = 1
    elif field == "node member":
        broken["nodes"]["1,1"] = ["0"]
    elif field == "nodes":
        broken["nodes"] = [[0, 1]]
    else:
        broken[field] = str(broken[field])
    with pytest.raises(ValueError):
        extract_ordering(broken)


def test_extract_rejects_wrong_size_argument():
    with pytest.raises(ValueError, match="expected 3"):
        extract_ordering(two_leaf_trace(), 3)


def test_trace_json_shape():
    sol, _ = solve_qdc(CROSS_PAIR, QdcConfig(base_size=1))
    assert split_trace(sol.ordering, 1) == {
        "n_v": 2,
        "base_size": 1,
        "nodes": {"0,0": [0, 1], "1,0": [1], "1,1": [0]},
        "sizes": {"0,0": 2, "1,0": 1, "1,1": 1},
        "leaves": {"1,0": [1], "1,1": [0]},
    }


def test_config_validation():
    with pytest.raises(ValueError):
        QdcConfig(base_size=0)
    with pytest.raises(ValueError):
        QdcConfig(node_budget=0)
