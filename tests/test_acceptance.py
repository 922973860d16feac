"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-contained and pins its tolerances inline; everything
random is seeded. Criteria 1 and 6 also assert their wall-clock budgets.
"""

import random
import time
import tracemalloc
from math import ceil

import pytest

from oscmlab import (DcConfig, NodeBudgetExceeded, QdcConfig, QdpConfig,
                     QmfConfig, balanced_alpha, binary_entropy,
                     build_crossing_matrix, count_restricted_crossings,
                     count_two_level_crossings, dc_max_depth, dc_node_count,
                     dp_table_entries, fit_exponent_base, fpt_crossover_k,
                     gamma, qdc_cost_model, qdp_cost_model, qmf,
                     solve_bruteforce, solve_dc, solve_dp, solve_osscm,
                     solve_qdc, solve_qdp, solve_tlcm, solve_tlcm_bruteforce)
from oscmlab import colex, dc

from instances import random_instance

EDGE_PROBS = (0.2, 0.5, 0.8)


def test_criterion_1_oracle_equivalence():
    """All four subset solvers equal brute force on 500 seeded instances."""
    start = time.perf_counter()
    for seed in range(500):
        rng = random.Random(seed)
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 9),
                               EDGE_PROBS[seed % 3])
        want = solve_bruteforce(inst).crossings
        got = (solve_dp(inst)[0].crossings, solve_dc(inst)[0].crossings,
               solve_qdp(inst)[0].crossings, solve_qdc(inst)[0].crossings)
        assert got == (want, want, want, want), f"seed {seed}: {got} != {want}"
    assert time.perf_counter() - start < 120.0


def test_criterion_2_separability():
    """The cross-term of a split is ordering-independent and equals gamma."""
    rng = random.Random(20_2)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(2, 8), 0.6)
        cm = build_crossing_matrix(inst)
        verts = list(range(inst.n_v))
        rng.shuffle(verts)
        cut = rng.randint(1, inst.n_v - 1)
        v1, v2 = verts[:cut], verts[cut:]
        expected = gamma(cm, v1, v2)
        differences = set()
        for _ in range(2):
            rng.shuffle(v1)
            rng.shuffle(v2)
            ordering = tuple(v1 + v2)
            both = count_restricted_crossings(inst, ordering, v1 + v2)
            first = count_restricted_crossings(inst, ordering, v1)
            second = count_restricted_crossings(inst, ordering, v2)
            differences.add(both - first - second)
        assert differences == {expected}


def test_criterion_3_alpha_balance():
    """Bisecting the phase-balance residual lands on the published alpha."""
    alpha_star = balanced_alpha(0.01, 0.5)
    assert alpha_star == pytest.approx(0.055362, abs=1e-4)
    base = 2.0 ** binary_entropy((1.0 - alpha_star) / 4.0)
    assert base == pytest.approx(1.728, abs=2e-3)


def test_criterion_4_growth_rates():
    """Fitted per-n growth bases of the four cost curves sit in their bands."""
    dp_ns = range(12, 25)
    dp_fit = fit_exponent_base(list(dp_ns), [dp_table_entries(n) for n in dp_ns])
    assert 1.95 <= dp_fit <= 2.05

    qdp_ns = range(16, 41)
    qdp_fit = fit_exponent_base(list(qdp_ns),
                                [sum(qdp_cost_model(n)) for n in qdp_ns])
    assert 1.70 <= qdp_fit <= 1.76

    dc_ns = range(8, 21)
    dc_fit = fit_exponent_base(list(dc_ns), [dc_node_count(n, 2) for n in dc_ns])
    assert 3.6 <= dc_fit <= 4.4

    qdc_ns = range(8, 33)
    qdc_fit = fit_exponent_base(list(qdc_ns), [qdc_cost_model(n) for n in qdc_ns])
    assert 1.95 <= qdc_fit <= 2.10


def test_criterion_5_ledger_exactness():
    """Solver ledgers equal their closed-form models on every run."""
    rng = random.Random(55)
    alphas = (0.055362, 0.3, 0.5)
    constants = (0.5, 1.0, 2.0)
    for n_v in range(1, 13):
        inst = random_instance(rng, rng.randint(1, 5), n_v, 0.5)
        base = n_v % 3 + 1
        _, dc_ledger = solve_dc(inst, DcConfig(base_size=base))
        assert dc_ledger.nodes == dc_node_count(n_v, base)

        qdc_cfg = QdcConfig(base_size=base, qmf_cfg=QmfConfig(
            call_constant=constants[n_v % 3]))
        _, qdc_ledger = solve_qdc(inst, qdc_cfg)
        assert qdc_ledger.oracle_calls == qdc_cost_model(n_v, qdc_cfg)

        qdp_cfg = QdpConfig(alpha=alphas[n_v % 3],
                            call_constant=constants[(n_v + 1) % 3])
        _, qdp_ledger = solve_qdp(inst, qdp_cfg)
        assert (qdp_ledger.recurrence_evals, qdp_ledger.oracle_calls) \
            == qdp_cost_model(n_v, qdp_cfg)


def test_criterion_6_bounded_error_minimum_finding():
    """Simulated threshold search finds the true minimum >= 50/100 times."""
    start = time.perf_counter()
    import numpy as np
    rng = np.random.default_rng(606)
    cfg = QmfConfig(mode="state_vector", seed=606)
    hits = 0
    for _ in range(100):
        values = [int(v) for v in rng.integers(0, 1000, size=16)]
        result = qmf(16, lambda i: values[i], cfg, rng=rng)
        assert result.norm_drift < 1e-9
        if result.min_value == min(values):
            hits += 1
    assert hits >= 50
    assert time.perf_counter() - start < 10.0


def test_criterion_7_space_separation():
    """Divide and conquer allocates under 64 KiB at its peak (tracemalloc)
    at n=20 while the DP table holds 2^20 entries. The frame plans (tail,
    two-tail and layer plans) and the colex tables they read are cleared
    before each traced solve, so the peak counts their builds whatever ran
    before."""
    inst = random_instance(random.Random(20), 5, 20, 0.4)
    _, _, table = solve_dp(inst, keep_table=True)
    assert table.entry_count >= 2 ** 20

    for solve, cfg in ((solve_dc, DcConfig(count_only=True,
                                           node_budget=100_000)),
                       (solve_qdc, QdcConfig(count_only=True,
                                             node_budget=100_000))):
        for cache in (dc._tail_plan, dc._halves, dc._layer_plan,
                      colex.members, colex.split_rows, colex.binomials):
            cache.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(NodeBudgetExceeded) as info:
                solve(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert info.value.max_depth == dc_max_depth(20, 2) == 5


def test_criterion_8_extensions():
    """Colored objective degenerates at h=1; two-layer solver matches its
    brute force; the crossover threshold scales quadratically."""
    rng = random.Random(88)
    algos = ("dp", "dc", "qdp", "qdc")
    for i in range(100):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(1, 7), 0.5)
        sol, _ = solve_osscm(inst, algos[i % 4])
        assert sol.crossings == solve_bruteforce(inst).crossings

    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(1, 6), 0.5)
        u_order, sol, _ = solve_tlcm(inst)
        brute_u, brute_sol = solve_tlcm_bruteforce(inst)
        assert sol.crossings == brute_sol.crossings
        assert count_two_level_crossings(inst, u_order, sol.ordering) \
            == sol.crossings
        if inst.n_u <= inst.n_v:
            assert u_order == brute_u

    for n in (50, 64, 100, 128, 200):
        ratio = fpt_crossover_k(2 * n) / fpt_crossover_k(n)
        assert abs(ratio - 4.0) < 0.01
