import json
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from oscmlab import (BipartiteInstance, SizeLimitError, count_crossings,
                     dp_peak_state_bytes, dp_recurrence_count,
                     dp_table_entries, solve_bruteforce, solve_dp)
from oscmlab import colex, dp, qdp
from oscmlab.matrix import build_crossing_matrix

from instances import random_instance
from layer_references import enumerated_layers, reference_layers, rows

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
CROSS_PAIR = BipartiteInstance(2, 2, ((0, 1), (1, 0)))

SEEDS = [2, 13, 27, 44, 58, 72, 91, 109, 125, 140]


def test_k22():
    sol, _ = solve_dp(K22)
    assert sol.crossings == 1
    assert count_crossings(K22, sol.ordering) == 1


def test_cross_pair_ordering():
    sol, _ = solve_dp(CROSS_PAIR)
    assert (sol.ordering, sol.crossings) == ((1, 0), 0)


def test_single_vertex():
    sol, ledger = solve_dp(BipartiteInstance(3, 1, ((0, 0), (2, 0))))
    assert (sol.ordering, sol.crossings) == ((0,), 0)
    assert ledger.recurrence_evals == 0


def test_empty_layer():
    sol, _ = solve_dp(BipartiteInstance(2, 0))
    assert (sol.ordering, sol.crossings) == ((), 0)


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 0), (2, 2), (3, 9), (10, 5110)])
def test_recurrence_count_closed_form(n, expected):
    assert dp_recurrence_count(n) == expected
    assert dp_table_entries(n) == 2 ** n


@pytest.mark.parametrize("n_v", [2, 5, 8, 11])
def test_ledger_matches_closed_form(n_v):
    inst = random_instance(random.Random(n_v), 4, n_v, 0.5)
    _, ledger = solve_dp(inst)
    assert ledger.recurrence_evals == dp_recurrence_count(n_v)
    assert ledger.gamma_evals == dp_recurrence_count(n_v)
    assert ledger.json_dict() == {
        "algo": "dp",
        "n_v": n_v,
        "recurrence_evals": dp_recurrence_count(n_v),
        "gamma_evals": dp_recurrence_count(n_v),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_matches_bruteforce(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 8), 0.5)
    sol, _ = solve_dp(inst)
    assert sol.crossings == solve_bruteforce(inst).crossings
    assert count_crossings(inst, sol.ordering) == sol.crossings


def test_table_queries():
    sol, _, table = solve_dp(K22, keep_table=True)
    assert table.entry_count == 4
    assert table.opt_of([]) == 0
    assert table.opt_of([0]) == 0
    assert table.opt_of([1]) == 0
    assert table.opt_of([0, 1]) == 1
    assert table.order_of([0, 1]) == sol.ordering
    with pytest.raises(KeyError):
        table.opt_of([2])


def test_table_queries_take_members_in_any_order():
    rng = random.Random(31)
    inst = random_instance(rng, 4, 6, 0.5)
    _, _, table = solve_dp(inst, keep_table=True)
    for members in ([4, 1, 3], [5, 0], [2, 5, 0, 3]):
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert table.opt_of(shuffled) == table.opt_of(sorted(members))
        assert table.order_of(shuffled) == table.order_of(sorted(members))
    assert table.order_of([5, 4, 3, 2, 1, 0]) == solve_dp(inst)[0].ordering


@pytest.mark.parametrize("members", [[6], [-1], [0, 6], [1, 1], [2, 0, 2]],
                         ids=["past-top", "negative", "one-out", "repeat",
                              "repeat-unsorted"])
def test_table_queries_reject_a_non_subset(members):
    _, _, table = solve_dp(random_instance(random.Random(5), 3, 6, 0.5),
                           keep_table=True)
    with pytest.raises(KeyError):
        table.opt_of(members)
    with pytest.raises(KeyError):
        table.order_of(members)


def test_table_subsets_agree_with_sub_solves():
    rng = random.Random(77)
    inst = random_instance(rng, 4, 7, 0.5)
    _, _, table = solve_dp(inst, keep_table=True)
    # every size-4 subset's table value equals a brute scan of that subset
    from itertools import combinations, permutations
    from oscmlab import count_restricted_crossings
    for combo in combinations(range(7), 4):
        best = None
        rest = [v for v in range(7) if v not in combo]
        for perm in permutations(combo):
            val = count_restricted_crossings(inst, perm + tuple(rest), combo)
            if best is None or val < best:
                best = val
        assert table.opt_of(combo) == best


def test_size_limits():
    with pytest.raises(SizeLimitError):
        solve_dp(BipartiteInstance(1, 24))
    with pytest.raises(SizeLimitError):
        solve_dp(BipartiteInstance(1, 65))


# Outputs recorded from the mask-indexed kernel with an n x 2^n column-sum
# table, which the rank-layer kernel replaced.
GOLDEN = json.loads(Path(__file__).with_name("dp_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["solves"],
    ids=lambda case: f"n{case['n_v']}-p{case['p']}")
def test_outputs_match_the_mask_table_solver(case):
    inst = random_instance(random.Random(case["seed"]), case["n_u"],
                           case["n_v"], case["p"])
    sol, ledger = solve_dp(inst)
    assert list(sol.ordering) == case["ordering"]
    assert sol.crossings == case["crossings"]
    assert ledger.recurrence_evals == case["recurrence_evals"]
    assert ledger.gamma_evals == case["gamma_evals"]


@pytest.mark.parametrize("case", GOLDEN["tables"], ids=lambda case: f"p{case['p']}")
def test_table_queries_match_the_mask_table_solver(case):
    inst = random_instance(random.Random(case["seed"]), case["n_u"],
                           case["n_v"], case["p"])
    _, _, table = solve_dp(inst, keep_table=True)
    assert table.entry_count == 2 ** case["n_v"]
    subsets = [[v for v in range(case["n_v"]) if m >> v & 1]  # mask m's members
               for m in range(2 ** case["n_v"])]
    assert [table.opt_of(members) for members in subsets] == case["opt"]
    assert [list(table.order_of(members)) for members in subsets] == case["order"]


def test_peak_memory_at_twenty():
    """Rows of two adjacent layers, only for the columns the next layer
    reads, plus 2^n int8 choices: dp_peak_state_bytes(20) is 15.0 MB with
    int16 values. Keeping every layer's rows whole peaked at 29.4 MB here,
    and the mask-indexed kernel at 112 MB."""
    inst = random_instance(random.Random(200), 6, 20, 0.5)
    # a first call builds dp's caches and the colex tables it reads
    for cached in (*vars(dp).values(), *vars(colex).values()):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for call in ("first", "warm"):
        tracemalloc.start()
        try:
            solve_dp(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 10 ** 6, (call, peak)


@pytest.mark.parametrize("n", [10, 12, 14, 17, 20])
def test_space_model_bounds_the_traced_peak(n):
    """solve_dp writes dp_peak_state_bytes to ledger.meta, outside its JSON
    ledger, and the tracemalloc peak of a warm solve lies within 1.5x of
    it either way: solves whose every column comes from the plan (n 10,
    12) and solves with sliced tops (n 14, 17, 20) read 0.95-1.03x, seed
    200."""
    inst = random_instance(random.Random(200), 6, n, 0.5)
    assert int(build_crossing_matrix(inst).sum()) < 2 ** 15  # int16 values
    _, ledger = solve_dp(inst)  # builds the caches a first solve builds
    model = dp_peak_state_bytes(n, 2)
    assert ledger.meta["peak_state_bytes"] == model
    assert "peak_state_bytes" not in ledger.json_dict()
    tracemalloc.start()
    try:
        solve_dp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model / 1.5 < peak < model * 1.5, (peak, model)


def matrix_summing_to(n, total, seed):
    """A random n x n matrix with a zero diagonal that sums to total (to 0
    when n < 2, which has no off-diagonal entry)."""
    c = np.random.default_rng(seed).integers(0, 1000, size=(n, n))
    np.fill_diagonal(c, 0)
    if n < 2:
        return c
    c = c * (total // c.sum())
    c[0, 1] += total - c.sum()
    return c


def value_dtype(total):
    """The narrowest value dtype that holds a matrix total."""
    return "int16" if total < 2 ** 15 else "int32" if total < 2 ** 31 else "int64"


def assert_layers_match_the_enumeration(c, n, tops, dtype):
    """Every layer's optima and choices at each top equal the bitmask
    enumeration's, computed once for the largest top; optima take dtype
    and choices int8, and on the all-zero matrix every choice is 0."""
    want = enumerated_layers(c, n, max(tops))
    for top in tops:
        got = list(dp.subset_layers(c, n, top))
        assert len(got) == top + 1
        for s, layer in enumerate(got):
            opt, _, choice = want[s]
            assert layer.opt.dtype.name == dtype, (top, s)
            assert layer.choice.dtype == np.int8, (top, s)
            assert np.array_equal(layer.opt, opt), (top, s)
            assert np.array_equal(layer.choice, choice), (top, s)
            assert not (c.sum() == 0 and layer.choice.any()), (top, s)


def reference_tops(n):
    """Tops n, n // 2 and qdp's table threshold."""
    return {n, n // 2, qdp.table_threshold(n, qdp.QdpConfig().alpha)}


# The first c.sum() at which the keys of a 5-subset's candidates, value * 5
# + position, may pass 2^31 - 1 and are int64.
KEYS_WIDEN_AT = 2 ** 31 // 5


@pytest.mark.parametrize("total,dtype", [
    (2 ** 15 - 1, "int16"), (2 ** 15, "int32"),
    (KEYS_WIDEN_AT - 1, "int32"), (KEYS_WIDEN_AT, "int32"),
    (2 ** 31 - 1, "int32"), (2 ** 31, "int64"), (0, "int16")])
@pytest.mark.parametrize("n,pieces", [
    *(pytest.param(n, None, id=str(n)) for n in (5, 8, 13)),
    pytest.param(13, {"_SLICED": 1 << 6, "_PIECE": 1 << 8, "_WIDE": 32},
                 id="13-small-pieces")])
def test_layers_at_the_value_dtype_bounds(monkeypatch, n, pieces, total, dtype):
    """A matrix summing to just below or just at a dtype's limit, or to 0:
    the layers up to top n, n // 2 and qdp's table threshold take the
    narrowest dtype that holds the sum and agree with the plain recurrence
    everywhere, so nothing wraps, and on the all-zero matrix every choice
    is position 0. At n = 13 the subsets of sizes 6 and 7 whose top member
    is 12 have C(12, s - 1) >= 792 rests, so they are built from chunks
    of rests and not stored, as the top layer's columns are when top < n.

    With small pieces, tops with 64 rests or more are built from chunks of
    256 // s rests: most of them span several chunks, stored or not, and
    pieces on both sides of 32 columns take both reductions. At c.sum() =
    KEYS_WIDEN_AT - 1 and KEYS_WIDEN_AT all the weight is on c[v][n - 1]
    for v < 4, so the 5-subset {0, 1, 2, 3, n - 1} has a candidate worth
    c.sum() at position 4; at n = 13 it is
    reduced in a piece at least _WIDE columns wide, whose int32 keys would
    pass 2^31 - 1 at KEYS_WIDEN_AT."""
    for name, value in (pieces or {}).items():
        monkeypatch.setattr(dp, name, value)
    if pieces:  # a plan of its own for the patched piece sizes
        monkeypatch.setattr(dp, "_plan", lru_cache(dp._plan.__wrapped__))
    if total in (KEYS_WIDEN_AT - 1, KEYS_WIDEN_AT):
        c = np.zeros((n, n), np.int64)
        c[:4, n - 1] = total // 4
        c[0, n - 1] += total % 4
    else:
        c = matrix_summing_to(n, total, n + total)
    assert c.sum() == total
    if n == 13 and not pieces:
        assert [step.first for step in dp._plan(n)[4:6]] == [12, 12]
    want = reference_layers(c.tolist(), n, n)
    for top in reference_tops(n):
        got = list(dp.subset_layers(c, n, top))
        assert {(layer.opt.dtype.name, layer.choice.dtype.name)
                for layer in got} == {(dtype, "int8")}
        assert rows({s: (layer.opt, None, layer.choice)
                     for s, layer in enumerate(got)}) \
            == {s: want[s] for s in range(top + 1)}
        assert not (total == 0 and any(layer.choice.any() for layer in got))


def plan_bytes(n):
    """The bytes of dp's cached plan for n."""
    return sum(array.nbytes for step in dp._plan(n) for array in step[1:]
               if array is not None)


def test_a_solve_keeps_no_memory():
    """A cold solve leaves only dp's plan and small caches allocated once
    its result is dropped: under 1 MB at n_v = 20 (a 608 KB plan), and
    under 1.3 MB at dp's cap n_v = 23, whose plan the module docstring
    puts at 1.11 MB. No member rows or other tables outlive the solve."""
    assert dp._PRACTICAL_MAX_NV == 23
    for n, bound in ((20, 10 ** 6), (23, 1.3 * 10 ** 6)):
        inst = random_instance(random.Random(200), 6, n, 0.5)
        for cached in (*vars(dp).values(), *vars(colex).values()):
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        tracemalloc.start()
        try:
            solve_dp(inst)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert plan_bytes(n) < current < bound, (n, current)


@pytest.mark.parametrize("total,dtype", [
    (0, "int16"), (2 ** 15 - 1, "int16"), (10 ** 6, "int32"),
    (2 ** 31 - 1, "int32"), (2 ** 31 + 7, "int64")])
@pytest.mark.parametrize("n", range(13))
def test_planned_layers_match_the_kernel(n, total, dtype):
    """Up to n = 12 every column of every layer comes from the plan (no
    top has _SLICED rests); the layers equal the bitmask enumeration's in
    optima and choices at tops 0, n // 2, qdp's table threshold and n,
    with keys of both widths (2^31 - 1 makes them int64 from s = 2), take
    the narrowest value dtype that holds c.sum() and int8 choices, and on
    the all-zero matrix every choice is position 0."""
    assert all(dp._first(n, s) == n for s in range(2, n + 1))
    c = matrix_summing_to(n, total, n + total)
    if n >= 2:
        assert c.sum() == total
    assert_layers_match_the_enumeration(c, n, reference_tops(n) | {0},
                                        dtype if n >= 2 else "int16")


@pytest.mark.parametrize("n", [10, 12])
def test_planned_peak_follows_the_space_model(n):
    """The tracemalloc peak of a first and a warm solve whose layers all
    come from the plan lies within a factor of 1.5 of the docstring's
    model, either way, plus the plan's bytes on a first solve: a first
    solve reads 1.04-1.12x that (the plan's build holds int64 rank rows
    of its widest layers), a warm one 0.99-1.03x."""
    inst = random_instance(random.Random(200), 6, n, 0.5)
    assert int(build_crossing_matrix(inst).sum()) < 2 ** 15  # int16 values
    for cached in (*vars(dp).values(), *vars(colex).values()):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for first in (True, False):
        tracemalloc.start()
        try:
            solve_dp(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = dp_peak_state_bytes(n, 2) + (plan_bytes(n) if first else 0)
        assert model / 1.5 < peak < model * 1.5, (first, peak, model)


@pytest.mark.parametrize("n", [2, 7, 12, 13, 16, 23])
def test_plan_indexes_every_gathered_column(n):
    """Each layer's gathered columns are the s-subsets of range(first) in
    colex order; the plan holds, per member x_j, the rank of S without
    x_j (summed here from the binomials) and x_j's flat index into the
    half tables, and members and masks exactly for the layers whose next
    layer has a sliced top, over the columns that top reads."""
    h = dp._half_bits(n)
    assert h == (n if n <= 12 else (n + 1) // 2)
    binom = np.array([[comb(x, i) for x in range(n)] for i in range(n + 1)])
    for s, step in enumerate(dp._plan(n), start=2):
        assert step.first == dp._first(n, s)
        members = np.array(sorted(combinations(range(step.first), s),
                                  key=lambda m: m[::-1])).T
        terms = binom[np.arange(1, s + 1)[:, None], members]
        below = binom[np.arange(s)[:, None], members]
        ranks = terms.cumsum(0) - terms + below[::-1].cumsum(0)[::-1] - below
        without = (1 << members).sum(0) - (1 << members)
        assert np.array_equal(step.ranks, ranks)
        assert np.array_equal(step.low, (without % (1 << h)) * n + members)
        if h == n:
            assert step.high is None
        else:
            assert np.array_equal(step.high, (without >> h) * n + members)
        read = min(members.shape[1], comb(n - 1, s))
        if s < n and dp._first(n, s + 1) < n:
            assert np.array_equal(step.members, members[:, :read])
            assert np.array_equal(step.masks, (1 << members[:, :read]).sum(0))
            assert (step.members.dtype, step.masks.dtype) == (np.int8, np.int32)
        else:
            assert step.members is step.masks is None
        assert all(not array.flags.writeable for array in step[1:]
                   if array is not None)


@pytest.mark.parametrize("n", [7, 13, 16])
def test_half_tables_sum_every_column(n):
    """low[(m & (2^h - 1)) * n + x] + high[(m >> h) * n + x] is
    sum_{v in m} c[v][x] for every mask m and vertex x (no high table
    when h = n)."""
    c = np.random.default_rng(n).integers(0, 50, size=(n, n)).astype(np.int32)
    h = dp._half_bits(n)
    low, high = dp._half_sums(c, n, h)
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    want = bits @ c  # [m, x]
    got = low.reshape(1 << h, n)[masks & ((1 << h) - 1)]
    if high is not None:
        got = got + high.reshape(1 << n - h, n)[masks >> h]
    assert (high is None) == (h == n)
    assert np.array_equal(got, want)


def kind_matrix(kind, n):
    """A random matrix, the edgeless one (every candidate ties) or a
    complete bipartite graph's (every pair crosses alike)."""
    if kind == "random":
        inst = random_instance(random.Random(n), 8, n, 0.5)
        return build_crossing_matrix(inst)
    c = np.full((n, n), 0 if kind == "edgeless" else 9)
    np.fill_diagonal(c, 0)
    return c


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("n", range(11))
def test_the_shared_references_agree(n, kind):
    """The plain loop and the bitmask enumeration that dp's and qdp's layer
    tests compare against agree on every table layer, so that a fault in
    either shows up by itself."""
    c = kind_matrix(kind, n)
    assert rows(enumerated_layers(c, n, n)) == reference_layers(c.tolist(), n, n)


@pytest.mark.parametrize("n,kind", [
    *((n, "random") for n in range(13, 22)),
    *((n, kind) for n in range(13, 20) for kind in ("edgeless", "complete"))])
def test_layers_match_the_reference_kernel(n, kind):
    """Past the planned sizes the kernel's layers equal the bitmask
    enumeration's at tops n, n // 2 and qdp's table threshold, at odd and
    even n (whose two mask halves differ in width), in the narrowest value
    dtype; every candidate of an edgeless or complete matrix ties, so
    each keeps the first."""
    c = kind_matrix(kind, n)
    assert_layers_match_the_enumeration(c, n, reference_tops(n),
                                        value_dtype(int(c.sum())))
    if kind != "random":
        layers = dp.subset_layers(c, n, n)
        assert not any(layer.choice.any() for layer in layers)


@pytest.mark.parametrize("total", [
    2 ** 15 - 1, 2 ** 15, KEYS_WIDEN_AT - 1, KEYS_WIDEN_AT, 2 ** 31 - 1,
    2 ** 31])
@pytest.mark.parametrize("n,pieces", [
    *(pytest.param(n, None, id=str(n)) for n in (14, 15)),
    *(pytest.param(n, {"_SLICED": 1 << 6, "_PIECE": 1 << 8, "_WIDE": 32},
                   id=f"{n}-small-pieces") for n in (14, 15))])
def test_reference_kernel_at_the_value_dtype_bounds(monkeypatch, n, pieces,
                                                    total):
    """At the int16/int32/int64 value-total bounds, and with int32 or
    int64 keys, the layers equal the bitmask enumeration's at tops n,
    n // 2 and qdp's table threshold, in the value dtype of the total;
    with small pieces
    the sliced tops start at s = 3, chunks are narrower than most tops'
    prefixes and pieces on both sides of _WIDE take both reductions.
    The kernel reads the piece sizes when it runs."""
    for name, value in (pieces or {}).items():
        monkeypatch.setattr(dp, name, value)
    if pieces:  # a plan of its own for the patched piece sizes
        monkeypatch.setattr(dp, "_plan", lru_cache(dp._plan.__wrapped__))
        assert dp._plan(n)[1].first < n
    c = matrix_summing_to(n, total, n + total)
    assert c.sum() == total
    assert_layers_match_the_enumeration(c, n, reference_tops(n),
                                        value_dtype(total))


def test_masks_fit_int32_at_every_accepted_n(monkeypatch):
    """Stored rows carry each subset's bit mask as int32, which holds the
    mask of every subset at the largest n_v that dp (23) and qdp (22)
    accept; at n = 23 every stored mask matches its subset's members."""
    assert (dp._PRACTICAL_MAX_NV, qdp._PRACTICAL_MAX_NV) == (23, 22)
    assert (1 << dp._PRACTICAL_MAX_NV) - 1 <= np.iinfo(np.int32).max
    stored, grow = [], dp._grow

    def recording(*args):
        layer, rows = grow(*args)
        stored.append(rows)
        return layer, rows

    monkeypatch.setattr(dp, "_grow", recording)
    list(dp.subset_layers(kind_matrix("random", 23), 23, 6))
    # layer 3 keeps the plan's rows, 4 and 5 sliced ones; 2 and 6 none
    assert [rows is None for rows in stored] == [True, False, False, False,
                                                 True]
    assert [step.first for step in dp._plan(23)[1:4]] == [23, 16, 13]
    for rows in stored[1:-1]:
        assert rows.masks.dtype == np.int32
        want = np.left_shift(1, rows.members.astype(np.int64)).sum(axis=0)
        assert np.array_equal(rows.masks, want)
