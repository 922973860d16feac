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
                     dp_recurrence_count, dp_table_entries, solve_bruteforce,
                     solve_dp)
from oscmlab import dp, qdp
from oscmlab.matrix import build_crossing_matrix

from instances import random_instance

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
    reads, plus 2^n int8 choices: 7 B * max_s [s * C(n - 1, s)
    + (s + 1) * C(n - 1, s + 1)] + 2^n, 13.3 MB at n = 20. Keeping every
    layer's rows whole peaked at 29.4 MB here, and the mask-indexed kernel
    at 112 MB."""
    inst = random_instance(random.Random(200), 6, 20, 0.5)
    for cached in vars(dp).values():  # a first call builds dp's caches
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


def reference_layers(c, n):
    """(opt, choice) per size by the plain recurrence over Python ints,
    subsets in colex order (lexicographic in their reversed members)."""
    opt, layers = {(): 0}, []
    for s in range(n + 1):
        subsets = sorted(combinations(range(n), s), key=lambda m: m[::-1])
        layer = ([], [])
        for members in subsets:
            vals = [opt[members[:j] + members[j + 1:]]
                    + sum(c[v][w] for v in members) for j, w in enumerate(members)]
            best = min(vals) if vals else 0
            opt[members] = best
            layer[0].append(best)
            layer[1].append(vals.index(best) if vals else 0)
        layers.append(layer)
    return layers


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
    is 12 have C(12, s - 1) >= 792 rests, so they are built as slices in
    the scratch piece, as the top layer's columns are when top < n.

    With small pieces, tops with 64 rests or more are sliced into pieces
    of 256 values: most of them span several pieces, stored or in the
    scratch piece, and pieces on both sides of 32 columns take both
    reductions. At c.sum() = KEYS_WIDEN_AT - 1 and KEYS_WIDEN_AT all the
    weight is on c[v][n - 1] for v < 4, so the 5-subset {0, 1, 2, 3,
    n - 1} has a candidate worth c.sum() at position 4; at n = 13 it is
    reduced in a piece at least _WIDE columns wide, whose int32 keys would
    pass 2^31 - 1 at KEYS_WIDEN_AT."""
    for name, value in (pieces or {}).items():
        monkeypatch.setattr(dp, name, value)
    if pieces:  # a cache of its own for the patched piece sizes
        monkeypatch.setattr(dp, "_gathered", lru_cache(dp._gathered.__wrapped__))
    if total in (KEYS_WIDEN_AT - 1, KEYS_WIDEN_AT):
        c = np.zeros((n, n), np.int64)
        c[:4, n - 1] = total // 4
        c[0, n - 1] += total % 4
    else:
        c = np.random.default_rng(n + total).integers(0, 1000, size=(n, n))
        np.fill_diagonal(c, 0)
        c = c * (total // c.sum())
        c[0, 1] += total - c.sum()
    assert c.sum() == total
    if n == 13 and not pieces:
        assert dp._gathered(n, 6)[0] == dp._gathered(n, 7)[0] == 12
    want = reference_layers(c.tolist(), n)
    for top in {n, n // 2, qdp.table_threshold(n, qdp.QdpConfig().alpha)}:
        got = list(dp.subset_layers(c, n, top))
        assert {(layer.opt.dtype.name, layer.choice.dtype.name)
                for layer in got} == {(dtype, "int8")}
        for layer, (opt, choice) in zip(got, want[:top + 1], strict=True):
            assert layer.opt.tolist() == opt
            assert layer.choice.tolist() == choice
            assert not (total == 0 and layer.choice.any())


def test_a_solve_keeps_no_memory():
    """A cold solve at n_v = 20 leaves under 1 MB allocated once its result
    is dropped: no member rows or other tables outlive the solve."""
    inst = random_instance(random.Random(200), 6, 20, 0.5)
    for cached in vars(dp).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        solve_dp(inst)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 10 ** 6


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


@pytest.mark.parametrize("total,dtype", [
    (0, "int16"), (2 ** 15 - 1, "int16"), (10 ** 6, "int32"),
    (2 ** 31 - 1, "int32"), (2 ** 31 + 7, "int64")])
@pytest.mark.parametrize("n", range(13))
def test_planned_layers_match_the_kernel(monkeypatch, n, total, dtype):
    """Up to n = _PLANNED the layers come from the cached plan; with
    _PLANNED = 0 the same call runs the layer kernel. Both give the same
    optima, choices and dtypes at tops 0, n // 2, qdp's table threshold and
    n, with keys of both widths (2^31 - 1 makes them int64 from s = 2), and
    on the all-zero matrix every choice is position 0. The kernel's sliced
    and scratch pieces start at n = 13, so n = 13 stays on the kernel."""
    assert dp._PLANNED < 13
    c = matrix_summing_to(n, total, n + total)
    if n >= 2:
        assert c.sum() == total
    for top in {0, n // 2, qdp.table_threshold(n, qdp.QdpConfig().alpha), n}:
        planned = list(dp.subset_layers(c, n, top))
        with monkeypatch.context() as patch:
            patch.setattr(dp, "_PLANNED", 0)
            kernel = list(dp.subset_layers(c, n, top))
        assert len(planned) == top + 1
        for got, want in zip(planned, kernel, strict=True):
            assert got.opt.dtype == want.opt.dtype
            assert got.opt.dtype.name == (dtype if n >= 2 else "int16")
            assert got.choice.dtype == want.choice.dtype == np.int8
            assert got.opt.tolist() == want.opt.tolist()
            assert got.choice.tolist() == want.choice.tolist()
            assert not (c.sum() == 0 and got.choice.any())


def planned_space(n, first):
    """The dp docstring's space model of a planned solve with int16
    values: the (2^n, n) column-sum table, 16 bytes per candidate of the
    widest layer and 2^n int8 choices, plus the plan's n * 2^(n + 2) bytes
    on a first solve."""
    widest = max(s * comb(n, s) for s in range(2, n + 1))
    plan = n * 2 ** (n + 2) if first else 0
    return 2 ** n * n * 2 + 16 * widest + 2 ** n + plan


@pytest.mark.parametrize("n", [10, 12])
def test_planned_peak_follows_the_space_model(n):
    """The tracemalloc peak of a first and a warm planned solve lies within
    a factor of 1.5 of the docstring's model, either way. A first solve
    reads 1.3-1.4x the model (the plan's build holds intp rows of its
    widest layers), a warm one 0.97-1.03x; an intp plan (twice the bytes)
    reads 1.6-1.7x on a first solve."""
    inst = random_instance(random.Random(200), 6, n, 0.5)
    assert int(build_crossing_matrix(inst).sum()) < 2 ** 15  # int16 values
    for cached in vars(dp).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for first in (True, False):
        tracemalloc.start()
        try:
            solve_dp(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = planned_space(n, first)
        assert model / 1.5 < peak < model * 1.5, (first, peak, model)
