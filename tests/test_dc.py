import json
import random
import tracemalloc
from itertools import combinations
from math import ceil, comb
from pathlib import Path

import pytest

from oscmlab import (BipartiteInstance, DcConfig, NodeBudgetExceeded,
                     QdcConfig, QmfConfig, build_crossing_matrix,
                     count_crossings, dc_max_depth, dc_node_count,
                     dc_peak_state_bytes, solve_bruteforce, solve_dc, solve_dp,
                     solve_qdc)
import oscmlab.dc
from oscmlab.dc import dc_gamma_count, frame_counts

from instances import random_instance

K22 = BipartiteInstance(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))

SEEDS = [5, 16, 28, 39, 52, 66, 85, 99]

# Outputs past n_v = 12 at base sizes 1-3, and one wide-valued instance
# whose crossing matrix sums past 2^24, recorded from the frames whose
# halves are both tails (row batches of two tails per candidate), before
# frames of 9 to 16 members ran as subset layers.
GOLDEN = json.loads(Path(__file__).with_name("dc_golden.json").read_text())


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


@pytest.mark.parametrize(
    "case", GOLDEN, ids=lambda case: f"n{case['n_v']}-b{case['base_size']}"
                                     f"-u{case['n_u']}")
def test_outputs_match_the_recorded_frames(case):
    inst = random_instance(random.Random(case["seed"]), case["n_u"],
                           case["n_v"], case["p"])
    sol, ledger = solve_dc(inst, DcConfig(base_size=case["base_size"]))
    assert sol.crossings == case["crossings"]
    assert list(sol.ordering) == case["ordering"]
    assert (ledger.nodes, ledger.gamma_evals) == (case["nodes"],
                                                  case["gamma_evals"])
    if case["n_u"] > 100:
        assert build_crossing_matrix(inst).sum() >= 2 ** 24


# Frames counted whole: tails up to TAIL members, and the layered (dc) and
# two-tail (qdc) frames above them.
FRAMES = [(f, base) for base in (1, 2, 3)
          for f in range(base + 1, 2 * oscmlab.dc.TAIL + 1)]


def whole_plans(f, base):
    """The plans that count a frame of f members whole."""
    if f <= oscmlab.dc.TAIL:
        return [oscmlab.dc._tail_plan(f, base)]
    return [oscmlab.dc._layer_plan(f, base), oscmlab.dc._halves(f, base)]


@pytest.mark.parametrize("f,base", FRAMES, ids=[f"{f}-{b}" for f, b in FRAMES])
def test_layer_plans_count_the_closed_forms(f, base):
    """Each plan that counts a frame whole counts, from its own graph, the
    closed forms that frame-by-frame recursion counts: a layered frame's
    occurrences pushed down its widths from a root of 1 (frame_counts), a
    tail's down its split graph, and a two-tail frame's candidates times
    its two tails' counts."""
    want = (dc_node_count(f, base), dc_gamma_count(f, base))
    for plan in whole_plans(f, base):
        assert (plan.n_nodes, plan.n_gammas) == want
    if f > oscmlab.dc.TAIL:
        assert frame_counts(f, oscmlab.dc._layer_plan(f, base).widths) == want


def short_tail_plan(s, base, monkeypatch):
    """A tail plan of s members whose root lacks its last split."""
    def fewer(pos, k):
        splits = list(combinations(pos, k))
        return splits[:-1] if len(pos) == s else splits
    with monkeypatch.context() as patch:
        patch.setattr(oscmlab.dc, "combinations", fewer)
        return oscmlab.dc._TailPlan(s, base)


@pytest.mark.parametrize("f,base", FRAMES, ids=[f"{f}-{b}" for f, b in FRAMES])
def test_a_changed_width_counts_differently(f, base, monkeypatch):
    """The counts come from the plans' graphs. A tail plan whose root
    lacks its last split counts other totals, and at TAIL members changes
    dc's ledger; a layered frame whose root splits at ceil(f/2) + 1 (every
    other width as planned) counts other totals, and so does a two-tail
    frame whose W tail's root lacks a split."""
    want = (dc_node_count(f, base), dc_gamma_count(f, base))
    if f <= oscmlab.dc.TAIL:
        short = short_tail_plan(f, base, monkeypatch)
        assert short.n_nodes != want[0] and short.n_gammas != want[1]
        if f == oscmlab.dc.TAIL:
            monkeypatch.setattr(oscmlab.dc, "_tail_plan", lambda s, b: short)
            inst = random_instance(random.Random(f), 4, f, 0.5)
            _, ledger = solve_dc(inst, DcConfig(base_size=base))
            assert ledger.nodes == short.n_nodes
        return
    widths = dict(oscmlab.dc._layer_plan(f, base).widths)
    widths[f] += 1
    nodes, gammas = frame_counts(f, widths)
    assert nodes != want[0] and gammas != want[1]
    h = ceil(f / 2)
    short = short_tail_plan(h, base, monkeypatch)
    monkeypatch.setattr(oscmlab.dc, "_tail_plan",
                        lambda s, b: short if s == h else
                        oscmlab.dc._TailPlan(s, b))
    pair = oscmlab.dc._Halves(f, base)
    assert pair.n_nodes != want[0] and pair.n_gammas != want[1]


def test_dc_frames_build_no_two_tail_plans():
    """dc solves its frames of 9 to 16 members as subset layers and builds
    no two-tail plan, which qdc's searches still read."""
    oscmlab.dc._halves.cache_clear()
    for n_v in range(oscmlab.dc.TAIL + 1, 2 * oscmlab.dc.TAIL + 1):
        inst = random_instance(random.Random(900 + n_v), 5, n_v, 0.5)
        for base in (1, 2, 3):
            solve_dc(inst, DcConfig(base_size=base, count_only=True))
    assert oscmlab.dc._halves.cache_info().currsize == 0
    solve_qdc(random_instance(random.Random(910), 5, 10, 0.5))
    assert oscmlab.dc._halves.cache_info().currsize == 1


def test_layered_frames_split_every_reached_size_at_its_ceil_half(
        monkeypatch):
    """A layered frame's chain depends on its size alone: one layer per
    size s >= 3 that the ceil-half recursion of f reaches, smallest first,
    split at ceil(s/2), at every base size; singletons and pairs are
    seeded, so no solve runs the kernel on them. base_size picks only the
    sizes the ordering walk splits."""
    for f in range(oscmlab.dc.TAIL + 1, 2 * oscmlab.dc.TAIL + 1):
        reached, sizes = set(), [f]
        for s in sizes:
            if s not in reached:
                reached.add(s)
                sizes += [ceil(s / 2), s // 2]
        want = [(s, ceil(s / 2)) for s in sorted(reached) if s >= 2]
        steps = {oscmlab.dc._layer_plan(f, base).steps for base in range(1, 6)}
        assert len(steps) == 1
        assert [(s, k, plan) for s, k, _, plan in steps.pop()] == [
            (s, k, None) for s, k in want if s > 2]
        for base in range(1, 6):
            assert oscmlab.dc._layer_plan(f, base).widths == {
                s: k for s, k in want if s > base}
    kernel, layers = oscmlab.colex.search_layer, []

    def recording(c, s, k, *args, **kwargs):
        layers.append((s, k))
        return kernel(c, s, k, *args, **kwargs)

    monkeypatch.setattr(oscmlab.colex, "search_layer", recording)
    for n_v in (9, 16):
        inst = random_instance(random.Random(920 + n_v), 5, n_v, 0.5)
        for base in (1, 5):
            solve_dc(inst, DcConfig(base_size=base))
    assert layers and all(s >= 3 and k == ceil(s / 2) for s, k in layers)


def test_count_only_skips_reconstruction_not_counting():
    inst = random_instance(random.Random(8), 4, 6, 0.5)
    full_sol, full_led = solve_dc(inst)
    fast_sol, fast_led = solve_dc(inst, DcConfig(count_only=True))
    assert fast_sol.ordering is None
    assert fast_sol.crossings == full_sol.crossings
    assert fast_led.nodes == full_led.nodes  # reconstruction is uncounted
    assert fast_led.gamma_evals == full_led.gamma_evals


def spine_model(k, base):
    """The byte model summed frame by frame down the ceil-half spine:
    each internal frame 96 + 8k bytes and a kept ordering of 32 + k, the
    base frame 96 + 8k."""
    if k <= base:
        return 96 + 8 * k
    return 96 + 8 * k + 32 + k + spine_model(ceil(k / 2), base)


@pytest.mark.parametrize("k,base,expected", [
    (0, 2, 96), (2, 2, 112), (9, 2, 649), (10, 2, 658), (20, 2, 966),
    (32, 2, 1164), (64, 2, 1868),
])
def test_peak_state_bytes_pinned_values(k, base, expected):
    assert dc_peak_state_bytes(k, base) == spine_model(k, base) == expected


SV = QmfConfig(mode="state_vector", seed=3)


@pytest.mark.parametrize("tail", [oscmlab.dc.TAIL, 0], ids=["tails", "TAIL0"])
@pytest.mark.parametrize("solve,cfg,max_nv,cap", [
    (solve_dc, DcConfig, 14, 1_000_000),
    (solve_qdc, QdcConfig, 14, 200_000),
    (solve_qdc, lambda **kw: QdcConfig(qmf_cfg=SV, **kw), 10, 200_000),
], ids=["dc", "qdc", "qdc_sv"])
def test_space_model_reports_spine_depth(monkeypatch, solve, cfg, max_nv,
                                         cap, tail):
    """Every solve over n_v 0..max_nv and base sizes 1..3 reports the
    modelled pair of its size and base size in ledger.meta. A solve of
    more than ``cap`` nodes (5000 frame by frame, TAIL = 0) stops at a
    5000-node budget instead, and its exception carries the same pair."""
    monkeypatch.setattr(oscmlab.dc, "TAIL", tail)
    if tail == 0:
        cap = 5000
    for n_v in range(max_nv + 1):
        inst = random_instance(random.Random(300 + n_v), 4, n_v, 0.5)
        for base in (1, 2, 3):
            want = (dc_peak_state_bytes(n_v, base), dc_max_depth(n_v, base))
            budget = 5000 if dc_node_count(n_v, base) > cap else None
            try:
                _, ledger = solve(inst, cfg(base_size=base, count_only=True,
                                            node_budget=budget))
            except NodeBudgetExceeded as exc:
                got = (exc.peak_state_bytes, exc.max_depth)
            else:
                assert budget is None
                got = (ledger.meta["peak_state_bytes"],
                       ledger.meta["max_depth"])
            assert got == want, (n_v, base)


def test_node_budget_exception_carries_witnesses():
    """A raise carries the modelled pair of the whole solve: at n_v 9,
    base 2, 649 bytes at depth 4, however early the budget runs out."""
    inst = random_instance(random.Random(10), 4, 9, 0.5)
    for budget in (1, 500):
        with pytest.raises(NodeBudgetExceeded) as info:
            solve_dc(inst, DcConfig(count_only=True, node_budget=budget))
        exc = info.value
        assert exc.ledger.nodes == budget + 1
        assert (exc.peak_state_bytes, exc.max_depth) == (
            dc_peak_state_bytes(9, 2), dc_max_depth(9, 2)) == (649, 4)


@pytest.mark.parametrize("n_v", [10, 20, 32, 64])
@pytest.mark.parametrize("solve,config", [(solve_dc, DcConfig),
                                          (solve_qdc, QdcConfig)],
                         ids=["dc", "qdc"])
def test_space_model_bounds_the_traced_peak(solve, config, n_v):
    """The modelled peak is a lower bound on real allocation, and real
    allocation stays within 100x of it: a warm count-only solve, stopped
    by a 100 000-node budget past n_v = 10, traces 20-62x the model."""
    inst = random_instance(random.Random(7), 8, n_v, 0.5)
    cfg = config(base_size=2, count_only=True, node_budget=100_000)

    def run():
        try:
            solve(inst, cfg)
        except NodeBudgetExceeded:
            pass

    run()                               # warm: plans and count maps cached
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = dc_peak_state_bytes(n_v, 2)
    assert model <= peak <= 100 * model


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
