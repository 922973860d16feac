import json
import random
import tracemalloc
from itertools import combinations
from math import ceil, comb
from pathlib import Path

import numpy as np
import pytest

from oscmlab import (BipartiteInstance, QdpConfig, SizeLimitError,
                     build_crossing_matrix, count_crossings, qdp_cost_model,
                     solve_dp, solve_qdp, table_threshold)
from oscmlab import colex, dc, dp, qdp
from oscmlab.matrix import exact_floats

from instances import random_instance
from layer_references import enumerated_layers, reference_layers, rows

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
    assert count_crossings(inst, sol.ordering) == sol.crossings


def test_top_split_index_past_int16():
    """The top search of n_v = 18 picks among C(18, 9) = 48620 splits; this
    instance's winner is split 37437, past int16, and the ordering rebuilt
    from it still has the optimum's crossing count."""
    inst = random_instance(random.Random(181), 5, 18, 0.4)
    sol, _ = solve_qdp(inst)
    top = list(combinations(range(18), 9)).index(tuple(sorted(sol.ordering[:9])))
    assert top == 37437
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


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


@pytest.mark.parametrize("n,min_quantum_n,limit", [
    (23, 8, 22), (30, 8, 22), (64, 8, 22), (24, 64, 23), (30, 64, 23), (40, 64, 23)])
def test_practical_size_cap(n, min_quantum_n, limit):
    """Past n_v = 22 a search solve raises SizeLimitError, and past dp's n_v
    = 23 so does the dp fallback, before either builds a matrix or a member
    table."""
    before = colex.members.cache_info()
    with pytest.raises(SizeLimitError, match=f"limit {limit}"):
        solve_qdp(BipartiteInstance(1, n), QdpConfig(min_quantum_n=min_quantum_n))
    assert colex.members.cache_info() == before


def test_fallback_solves_past_the_search_cap():
    """n_v = 23 is past the search layers' cap but within dp's, so the dp
    fallback still solves it."""
    inst = random_instance(random.Random(230), 4, 23, 0.3)
    sol, ledger = solve_qdp(inst, QdpConfig(min_quantum_n=64))
    want, _ = solve_dp(inst)
    assert (sol.ordering, sol.crossings) == (want.ordering, want.crossings)
    assert (ledger.recurrence_evals, ledger.oracle_calls) == (23 * 2 ** 22, 0)


def test_rejects_a_nonpositive_call_constant():
    """solve_qdp charges its searches and samples none, so its one search
    setting is the call constant, which must be positive."""
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="call_constant"):
            QdpConfig(call_constant=c)
    assert QdpConfig(call_constant=2.0).call_constant == 2.0


# Wide-valued instances, recorded from the row-major search kernel that
# the position-major one replaced: (seed, n_u, n_v, p, alpha) -> ordering,
# crossings and ledger (classical_evals, table_reads, oracle_calls). The
# first keeps int32 values and int32 search keys, the second's c.sum() of
# 2630439656 takes int64 values, the last two keep int32 values but their
# top layer's (c.sum() + 1) * C(n, ceil(n/2)) passes 2^31, so its keys are
# int64; the third runs all three search levels.
WIDE = [
    ((1201, 60, 10, 0.9, 0.055362), [4, 8, 0, 1, 5, 3, 7, 2, 9, 6], 60803,
     (460, 5040, 80)),
    ((1202, 9000, 9, 0.95, 0.055362), [5, 3, 7, 8, 2, 0, 1, 4, 6], 1313002785,
     (333, 4032, 60)),
    ((1203, 240, 12, 0.9, 0.4), [9, 6, 0, 3, 11, 7, 2, 1, 5, 10, 8, 4],
     1531864, (144, 1320, 496)),
    ((1204, 70, 16, 0.9, 0.055362),
     [1, 11, 15, 6, 0, 14, 13, 9, 3, 8, 12, 2, 5, 4, 7, 10], 223536,
     (9216, 1801800, 1140)),
]


@pytest.mark.parametrize("spec,ordering,crossings,counts", WIDE,
                         ids=[f"seed{case[0][0]}" for case in WIDE])
def test_outputs_at_wide_values(spec, ordering, crossings, counts):
    seed, n_u, n_v, p, alpha = spec
    inst = random_instance(random.Random(seed), n_u, n_v, p)
    sol, ledger = solve_qdp(inst, QdpConfig(alpha=alpha))
    assert list(sol.ordering) == ordering
    assert sol.crossings == crossings
    assert (ledger.recurrence_evals, ledger.table_reads,
            ledger.oracle_calls) == counts


def search_arrays(c, n, t, plan, chunk=None):
    """The layers and Sym arrays solve_qdp evaluates for the crossing
    matrix c, as {s: (opt, sym, choice)}; sym is None where qdp computes
    none. The kernel runs layer by layer in the order of qdp's chain, with
    qdp's chunk and row plans, or, given a chunk, with that chunk and no
    row plan, as dc's frames run it; every layer is kept, where
    colex.split_layers drops each after the last step that reads it."""
    layers = dict(enumerate(dp.subset_layers(c, n, t)))
    values = layers[0].opt.dtype
    floats = exact_floats(c)
    step = qdp._CHUNK if chunk is None else chunk
    sym = {k: colex.sym(floats, k, values, step)
           for k in set(plan.values()) if k <= t}
    for s in sorted(plan):
        k = plan[s]
        layers[s], sym[s] = colex.search_layer(
            floats, s, k, layers[k].opt - sym[k], layers[s - k].opt, step,
            None if chunk else layer_plan(n, s, k))
    return {s: (layer.opt, sym.get(s), layer.choice) for s, layer in layers.items()}


def search_layers(c, n, t, plan, chunk=None):
    """search_arrays as {s: [(opt, sym, choice)]}, sym None where qdp
    computes none."""
    return rows(search_arrays(c, n, t, plan, chunk))


# The kernel tests check each case as qdp runs the kernel and again with
# a small chunk and no row plan, as dc's frames run it.
SMALL_CHUNK = 64


def complete(n_u, n_v):
    return BipartiteInstance(n_u, n_v, tuple((u, v) for u in range(n_u)
                                             for v in range(n_v)))


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("alpha", [0.055362, 0.4])
@pytest.mark.parametrize("n", range(8, 13))
def test_search_layers_match_a_plain_loop(n, alpha, kind):
    """Every table and search layer, subset by subset: optimum and first
    best split, and Sym for every search size and every table size a
    search reads as its W side, against the plain loop, which the bitmask
    enumeration matches first. Edgeless and complete bipartite instances
    tie every split of a subset, so each keeps split 0."""
    inst = {"random": lambda: random_instance(random.Random(n), 5, n, 0.5),
            "edgeless": lambda: BipartiteInstance(3, n),
            "complete": lambda: complete(3, n)}[kind]()
    c = build_crossing_matrix(inst)
    t = table_threshold(n, alpha)
    plan = qdp._search_plan(n, t, ceil(alpha * n / 4.0))
    assert (ceil(n / 4) > t) == (alpha == 0.4 and n > 8)  # level 3 live
    want = reference_layers(c.tolist(), n, t, plan)
    assert rows(enumerated_layers(c, n, t, plan)) == want
    got = search_layers(c, n, t, plan)
    assert got == want
    assert search_layers(c, n, t, plan, SMALL_CHUNK) == want
    if kind != "random":
        assert all(choice == 0 for s in plan for _, _, choice in got[s])


@pytest.mark.parametrize("weight", [2 ** 30 - 2, 2 ** 30, 2 ** 31 - 1])
@pytest.mark.parametrize("row", [0, 1])
def test_search_keys_at_the_int32_bound(weight, row):
    """Two vertices, c.sum() = weight = c[row][1 - row]: the split whose W
    is {row} is worth c.sum(), so its key value * 2 + j passes 2^31 - 1
    from weight 2^30 on, which the int64 keys hold; the other split, worth
    0, wins."""
    c = np.zeros((2, 2), np.int64)
    c[row, 1 - row] = weight
    got = search_layers(c, 2, 1, {2: 1})
    assert got == reference_layers(c.tolist(), 2, 1, {2: 1})
    assert got[2] == [(0, weight, 1 - row)]
    assert search_layers(c, 2, 1, {2: 1}, SMALL_CHUNK) == got


def plan_for(n, alpha):
    t = table_threshold(n, alpha)
    return t, qdp._search_plan(n, t, ceil(alpha * n / 4.0))


def layer_plan(n, s, k):
    """The row plan the search layer of s-subsets split at k reads."""
    return qdp._plan(n, s, k, qdp._CHUNK // comb(s, k))


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("alpha", [0.055362, 0.4])
@pytest.mark.parametrize("n", range(8, 18))
def test_search_layers_match_the_reference_kernel(n, alpha, kind):
    """Every layer's optima, choices and Sym, bit for bit, against the
    enumeration of every subset's splits over bitmasks. The small chunk
    runs up to n = 12: past it its runs of splits take seconds a case."""
    inst = {"random": lambda: random_instance(random.Random(n), 8, n, 0.5),
            "edgeless": lambda: BipartiteInstance(3, n),
            "complete": lambda: complete(3, n)}[kind]()
    c = build_crossing_matrix(inst)
    t, plan = plan_for(n, alpha)
    want = rows(enumerated_layers(c, n, t, plan))
    assert search_layers(c, n, t, plan) == want
    if n <= 12:
        assert search_layers(c, n, t, plan, SMALL_CHUNK) == want


def test_float64_products_past_two_to_the_24():
    """c.sum() >= 2^24 takes rho and the W-side sums in float64, which
    float32 would round; the layers still match the plain loop."""
    inst = random_instance(random.Random(1205), 1000, 8, 0.9)
    c = build_crossing_matrix(inst)
    assert 2 ** 24 <= c.sum() < 2 ** 31  # int32 values, float64 products
    for alpha in (0.055362, 0.4):
        t, plan = plan_for(8, alpha)
        got = search_layers(c, 8, t, plan)
        assert got == reference_layers(c.tolist(), 8, t, plan)
        assert search_layers(c, 8, t, plan, SMALL_CHUNK) == got
        assert got == rows(enumerated_layers(c, 8, t, plan))
    sol, _ = solve_qdp(inst)
    assert sol.crossings == solve_dp(inst)[0].crossings


def test_both_rank_dtypes_run(monkeypatch):
    """Ranks are summed in colex's index dtype, int16 while every rank of a
    side fits it: at n_v = 18 the levels below the root do, the root's
    9-subsets (C(18, 9) = 48620 ranks) take int32, and the solve still
    matches dp and the enumeration over bitmasks. dp's plan for n_v = 18
    is built first and qdp's plans are cleared, so only qdp's rank rows
    are built under the recording index dtype."""
    seen = set()
    index_dtype = colex.index_dtype

    def recorded(size):
        seen.add((size, index_dtype(size)))
        return index_dtype(size)

    inst = random_instance(random.Random(182), 8, 18, 0.5)
    want = solve_dp(inst)[0].crossings
    monkeypatch.setattr(colex, "index_dtype", recorded)
    qdp._plan.cache_clear()
    sol, _ = solve_qdp(inst)
    assert (comb(18, 9), np.int32) in seen
    assert (comb(18, 5), np.int16) in seen
    assert sol.crossings == want
    assert count_crossings(inst, sol.ordering) == sol.crossings
    c = build_crossing_matrix(inst)
    t, plan = plan_for(18, 0.055362)
    assert search_layers(c, 18, t, plan) == rows(enumerated_layers(c, 18, t, plan))


@pytest.mark.parametrize("chunk", [1 << 10, 1 << 12])
def test_root_in_split_runs(monkeypatch, chunk):
    """With a chunk smaller than C(15, 8) = 6435, the n_v = 15 root runs
    in runs of splits whose keys carry the global split index, so its first
    best split, and every other layer, match the enumeration over bitmasks
    and dp."""
    monkeypatch.setattr(qdp, "_CHUNK", chunk)
    inst = random_instance(random.Random(150), 8, 15, 0.5)
    c = build_crossing_matrix(inst)
    t, plan = plan_for(15, 0.055362)
    assert comb(15, plan[15]) > chunk
    assert search_layers(c, 15, t, plan) == rows(enumerated_layers(c, 15, t, plan))
    sol, _ = solve_qdp(inst)
    assert sol.crossings == solve_dp(inst)[0].crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", ["random", "complete"])
def test_split_runs_of_any_width(monkeypatch, chunk, kind):
    """Chunks narrower than a layer's splits cut every layer into runs,
    whose keys must cover every split once with its global index."""
    monkeypatch.setattr(qdp, "_CHUNK", chunk)
    inst = {"random": lambda: random_instance(random.Random(9), 5, 9, 0.5),
            "complete": lambda: complete(3, 9)}[kind]()
    c = build_crossing_matrix(inst)
    for alpha in (0.055362, 0.4):
        t, plan = plan_for(9, alpha)
        assert search_layers(c, 9, t, plan) == reference_layers(c.tolist(), 9, t, plan)


@pytest.mark.parametrize("n", [15, 16])
def test_warm_peak_stays_within_460_kb(n):
    """The warm tracemalloc peak of a qdp-mid sized solve: the search
    layers' chunks, not the split count, bound it."""
    inst = random_instance(random.Random(n), 8, n, 0.5)
    solve_qdp(inst)
    tracemalloc.start()
    try:
        solve_qdp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 460_000


@pytest.fixture
def fresh_plans():
    """Clear the row plans before and after a test that patches what they
    are built from."""
    qdp._plan.cache_clear()
    yield
    qdp._plan.cache_clear()


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("alpha", [0.055362, 0.4])
@pytest.mark.parametrize("n,chunk", [(n, None) for n in range(8, 19)]
                         + [(9, 1), (9, 7), (15, 1 << 10), (15, 1 << 12)])
def test_both_routes_to_the_rank_rows(monkeypatch, fresh_plans, n, chunk,
                                      alpha, kind):
    """A layer reads its index rows from its plan or, past _PLAN_BYTES,
    builds them per chunk; with the budget at 0 every layer builds them,
    and every layer's optima, choices and Sym match the planned run's, in
    value and dtype."""
    if chunk is not None:
        monkeypatch.setattr(qdp, "_CHUNK", chunk)
    inst = {"random": lambda: random_instance(random.Random(n), 8, n, 0.5),
            "edgeless": lambda: BipartiteInstance(3, n),
            "complete": lambda: complete(3, n)}[kind]()
    c = build_crossing_matrix(inst)
    t, plan = plan_for(n, alpha)
    planned = search_arrays(c, n, t, plan)
    monkeypatch.setattr(qdp, "_PLAN_BYTES", 0)
    qdp._plan.cache_clear()
    built = search_arrays(c, n, t, plan)
    assert all(layer_plan(n, s, k) is None for s, k in plan.items())
    assert planned.keys() == built.keys()
    for s, arrays in planned.items():
        for want, got in zip(arrays, built[s]):
            assert (want is None) == (got is None)
            if want is not None:
                assert want.dtype == got.dtype
                assert np.array_equal(want, got)


# split_layers' inputs: dc's layered frames of 9-16 members at base sizes
# 1-3 (singleton and pair layers given), and qdp's searches at n 8-22 (the
# table given), as each caller builds them.
CHAINS = ([("dc", f, base) for f in range(dc.TAIL + 1, 2 * dc.TAIL + 1)
           for base in (1, 2, 3)]
          + [("qdp", n, alpha) for n in list(range(8, 21)) + [22]
             for alpha in (0.055362, 0.4)])


def chain(kind, n, arg):
    """(steps, sizes of the given optima, sizes of the given Sym)."""
    if kind == "dc":
        return dc._layer_plan(n, arg).steps, {1, 2}, {1, 2}
    t, plan = plan_for(n, arg)
    steps = [(s, k, qdp._CHUNK, None) for s, k in sorted(plan.items())]
    return steps, set(range(t + 1)), {k for k in plan.values() if k <= t}


@pytest.mark.parametrize("kind,n,arg", CHAINS,
                         ids=[f"{kind}-{n}-{arg}" for kind, n, arg in CHAINS])
def test_split_layers_drop_what_no_later_step_reads(kind, n, arg, monkeypatch):
    """At each step, before the kernel runs, opt and sym hold only sizes
    that this step or a later one still reads, or that no step reads; a
    size keeps its Sym only where a later step reads it as a W side. What
    is left is the root's optimum and the arrays no step reads. A stand-in
    kernel returns zero layers, so the rule is checked at n 22 too."""
    steps, given_opt, given_sym = chain(kind, n, arg)
    last = {}
    for i, (s, k, *_) in enumerate(steps):
        last[k] = last[s - k] = i
    w_sizes = {k for _, k, *_ in steps}
    opt = {x: np.zeros(comb(n, x), np.int16) for x in given_opt}
    sym = {x: np.zeros(comb(n, x), np.int16) for x in given_sym}
    made = []

    def kernel(c, s, k, w_value, rest_opt, chunk, plan=None, picked=None):
        i = len(made)
        assert (s, k, chunk, plan) == tuple(steps[i])
        assert (len(w_value), len(rest_opt)) == (comb(n, k), comb(n, s - k))
        live = {x for x in given_opt | set(made) if last.get(x, i + 1) > i}
        assert set(opt) == live
        assert set(sym) == {x for x in given_sym | (set(made) & w_sizes)
                            if last.get(x, i + 1) > i}
        made.append(s)
        count = comb(n, s)
        return (colex.Layer(np.zeros(count, np.int16), np.zeros(count, np.int8)),
                np.zeros(count, np.int16))

    monkeypatch.setattr(colex, "search_layer", kernel)
    choices = colex.split_layers(np.zeros((n, n), np.float32), steps, opt, sym)
    assert made == [s for s, *_ in steps] == list(choices)
    assert set(opt) == {steps[-1][0]} | (given_opt - set(last))
    assert set(sym) == given_sym - set(last)


def cleared_solve(inst, cfg=None):
    """A solve after clearing the caches qdp reads: (ledger, bytes it leaves
    allocated)."""
    for cache in (colex.members, colex.split_rows, colex.pick_map, qdp._plan):
        cache.cache_clear()
    tracemalloc.start()
    try:
        _, ledger = solve_qdp(inst, cfg)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return ledger, left


@pytest.mark.parametrize("n", [12, 15, 16])
def test_plan_bytes_are_what_a_cold_solve_leaves(n):
    """plan_bytes counts qdp's caches after a solve: member layers, split
    rows, pick maps and the row plans, which hold every layer at these
    sizes. A solve after clearing them leaves that much allocated, within
    10%; dp's caches are warm from a first solve."""
    inst = random_instance(random.Random(n), 8, n, 0.5)
    solve_qdp(inst)
    ledger, left = cleared_solve(inst)
    t, plan = plan_for(n, 0.055362)
    assert all(layer_plan(n, s, k) is not None for s, k in plan.items())
    assert abs(left - ledger.meta["plan_bytes"]) <= 0.1 * ledger.meta["plan_bytes"]
    assert "plan_bytes" not in ledger.json_dict()


def test_layers_past_the_budget_keep_no_rows():
    """At n_v = 20 the size-10 layer's rows would take far more than
    _PLAN_BYTES and the root runs its splits in runs, so neither keeps a
    plan, and plan_bytes, still what the solve leaves allocated, is the
    member, split and pick tables alone."""
    inst = random_instance(random.Random(20), 8, 20, 0.5)
    solve_qdp(inst)
    ledger, left = cleared_solve(inst)
    t, plan = plan_for(20, 0.055362)
    assert plan == {20: 10, 10: 5}
    assert all(layer_plan(20, s, k) is None for s, k in plan.items())
    assert abs(left - ledger.meta["plan_bytes"]) <= 0.1 * ledger.meta["plan_bytes"]


@pytest.mark.parametrize("n,alpha", [(8, 0.055362), (12, 0.055362), (16, 0.055362),
                                     (13, 0.2), (16, 0.4), (14, 0.5)])
def test_ledger_reports_the_qram_table_size(n, alpha):
    """qram_entries counts the table entries phase 1 built, sum_{i<=t}
    C(n, i), and stays out of the JSON ledger."""
    inst = random_instance(random.Random(n), 4, n, 0.5)
    _, ledger = solve_qdp(inst, QdpConfig(alpha=alpha))
    t = table_threshold(n, alpha)
    assert ledger.meta["qram_entries"] == sum(comb(n, i) for i in range(t + 1))
    assert "qram_entries" not in ledger.json_dict()


@pytest.mark.parametrize("n,min_quantum_n", [(1, 8), (5, 8), (7, 8), (10, 64)])
def test_fallback_reports_the_full_table(n, min_quantum_n):
    """The dp fallback builds every subset's entry: 2^n of them."""
    inst = random_instance(random.Random(n), 4, n, 0.5)
    _, ledger = solve_qdp(inst, QdpConfig(min_quantum_n=min_quantum_n))
    assert ledger.meta["qram_entries"] == 2 ** n


def test_empty_layer_builds_no_table():
    _, ledger = solve_qdp(BipartiteInstance(2, 0))
    assert ledger.meta["qram_entries"] == 0
