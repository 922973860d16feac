import random
from array import array
from dataclasses import FrozenInstanceError
from functools import lru_cache
from math import asin, ceil, cos, isqrt, log2, sin, sqrt

import numpy as np
import pytest

from oscmlab import (QmfConfig, QmfResult, SizeLimitError, cost_model_calls,
                     qmf, qmf_success_rate)
from oscmlab.qmf import _BLOCK, MAX_STATEVECTOR_DOMAIN

SEEDS = [1, 14, 26, 38, 50, 62, 74, 86]


def values_fn(values):
    return lambda i: values[i]


def test_cost_model_example():
    values = [5, 2, 7, 1, 9, 0, 3, 8]
    res = qmf(len(values), values_fn(values))
    assert (res.argmin_index, res.min_value, res.oracle_calls) == (5, 0, 3)
    assert res.success_flag


def test_result_is_frozen_and_compares_by_fields():
    res = qmf(3, values_fn([4, 1, 6]))
    assert res == QmfResult(argmin_index=1, min_value=1, oracle_calls=2,
                            success_flag=True, norm_drift=0.0, thresholds=())
    assert hash(res) == hash(QmfResult(1, 1, 2, True))
    assert res != QmfResult(1, 1, 3, True)
    with pytest.raises(FrozenInstanceError):
        res.min_value = 0


def test_single_value_still_charges_a_call():
    for mode in ("cost_model", "state_vector"):
        res = qmf(1, values_fn([42]), QmfConfig(mode=mode))
        assert (res.argmin_index, res.min_value) == (0, 42)
        assert res.oracle_calls >= 1


def test_tie_break_returns_smallest_index():
    res = qmf(6, values_fn([3, 3, 3, 3, 3, 3]))
    assert res.argmin_index == 0
    res = qmf(5, values_fn([9, 4, 1, 1, 7]))
    assert res.argmin_index == 2


@pytest.mark.parametrize("n,c,expected", [
    (8, 1.0, 3), (1, 1.0, 1), (100, 0.5, 5), (4, 0.01, 1), (2, 1.0, 2),
])
def test_cost_model_calls(n, c, expected):
    assert cost_model_calls(n, c) == expected


def test_cost_model_scans_ascending_once():
    calls = []

    def probe(i):
        calls.append(i)
        return 10 - i

    qmf(7, probe)
    assert calls == list(range(7))


def test_input_validation():
    with pytest.raises(ValueError):
        qmf(0, values_fn([]))
    with pytest.raises(ValueError):
        QmfConfig(mode="dream_mode")
    with pytest.raises(ValueError):
        QmfConfig(call_constant=0.0)


def test_state_vector_domain_cap():
    cfg = QmfConfig(mode="state_vector")
    with pytest.raises(SizeLimitError):
        qmf(1025, values_fn(list(range(1025))), cfg)


@pytest.mark.parametrize("seed", SEEDS)
def test_state_vector_reports_consistent_result(seed):
    rng = random.Random(seed)
    values = [rng.randrange(100) for _ in range(12)]
    res = qmf(12, values_fn(values), QmfConfig(mode="state_vector", seed=seed))
    assert res.min_value == values[res.argmin_index]
    assert res.success_flag == (res.min_value == min(values))
    assert res.norm_drift < 1e-9
    thresholds = list(res.thresholds)
    assert thresholds == sorted(thresholds, reverse=True)
    assert len(set(thresholds)) == len(thresholds)  # strictly decreasing


def test_state_vector_is_deterministic_per_seed():
    values = [7, 3, 9, 1, 5, 8, 2, 6]
    cfg = QmfConfig(mode="state_vector", seed=123)
    first = qmf(8, values_fn(values), cfg)
    second = qmf(8, values_fn(values), cfg)
    assert first == second


def test_success_rate_trivial_domain():
    assert qmf_success_rate(20, 1) == 1.0


@pytest.mark.parametrize("n_values", [2, 16])
def test_bounded_error_minimum_finding(n_values):
    rate = qmf_success_rate(100, n_values)
    assert rate >= 0.5


@pytest.mark.parametrize("dim", [1 << k for k in range(11)])
def test_closed_form_matches_dense_grover_rounds(dim):
    """The marked mass the state-vector search samples, sin^2((2r+1) theta)
    with sin^2 theta = t / dim, equals that of r dense Grover rounds (flip
    the marked amplitudes, reflect about the mean), for every t and every
    r up to sqrt(dim). Row t of psi marks its first t indices."""
    marked = np.arange(dim) < np.arange(dim + 1)[:, None]
    theta = np.array([asin(sqrt(t / dim)) for t in range(dim + 1)])
    psi = np.full((dim + 1, dim), 1 / sqrt(dim))
    for r in range(isqrt(dim) + 1):
        mass = np.where(marked, psi * psi, 0.0).sum(axis=1)
        closed = np.array([sin((2 * r + 1) * a) ** 2 for a in theta])
        assert np.abs(mass - closed).max() < 1e-12, r
        psi = np.where(marked, -psi, psi)
        psi = 2 * psi.mean(axis=1, keepdims=True) - psi


def test_state_vector_values_must_be_integers():
    """A sampled search holds its values as 64-bit integers."""
    with pytest.raises(TypeError):
        qmf(4, values_fn([3, 1.5, 2, 0]), QmfConfig(mode="state_vector"))


# The draw protocol of a state-vector search, stated plainly per attempt:
# each attempt computes its round cap ceil(m) itself, where qmf reads it
# from the schedule it caches per register size. Every sampled search must
# match it field for field.

@lru_cache(maxsize=None)
def _register(n_values):
    """A state-vector search's register size dim, its oracle-call budget
    and sqrt(dim), the cap of the BBHT schedule."""
    dim = 1 << (n_values - 1).bit_length()
    budget = ceil(22.5 * sqrt(dim) + 1.4 * log2(dim) ** 2) if dim > 1 else 1
    return dim, budget, sqrt(dim)


def _state_vector_qmf(n_values, value_fn, cfg, rng):
    if n_values > MAX_STATEVECTOR_DOMAIN:
        raise SizeLimitError(
            f"state-vector domain {n_values} exceeds cap {MAX_STATEVECTOR_DOMAIN}"
        )
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    values = array("q", map(value_fn, range(n_values)))
    dim, budget, root = _register(n_values)
    draws = rng.random(_BLOCK).tolist()

    found = values[int(draws[0] * n_values)]
    thresholds = [found]
    calls, drift, at = 0, 0.0, 1
    while calls < budget:
        marked = [i for i, v in enumerate(values) if v < found]
        if not marked:
            break
        theta = asin(sqrt(len(marked) / dim))
        m = 1.0
        while calls < budget:
            if at + 3 > len(draws):
                draws += rng.random(_BLOCK).tolist()
            u_rounds, u_class, u_member = draws[at:at + 3]
            at += 3
            rounds = min(int(u_rounds * ceil(m)), budget - calls - 1)
            calls += rounds + 1
            angle = (2 * rounds + 1) * theta
            hit = sin(angle) ** 2
            drift = max(drift, abs(hit + cos(angle) ** 2 - 1.0))
            if u_class < hit:
                found = values[marked[int(u_member * len(marked))]]
                thresholds.append(found)
                break
            m = min(6 / 5 * m, root)

    return QmfResult(
        argmin_index=values.index(found),
        min_value=found,
        oracle_calls=max(1, calls),
        success_flag=found == min(values),
        norm_drift=drift,
        thresholds=tuple(thresholds),
    )


def fields_of(res):
    """Every QmfResult field, types included (an int is not a float)."""
    return [(type(x), x) for x in (res.argmin_index, res.min_value,
                                   res.oracle_calls, res.success_flag,
                                   res.norm_drift, res.thresholds)]


# Every size to 40, 2^k - 1, 2^k and 2^k + 1 up to the cap, and a stride
# between them.
DOMAINS = sorted({*range(1, 41), *range(41, 1025, 31),
                  *(n for k in range(6, 11) for n in (2 ** k - 1, 2 ** k,
                                                      2 ** k + 1)
                    if n <= MAX_STATEVECTOR_DOMAIN)})


@pytest.mark.parametrize("n_values", DOMAINS)
def test_state_vector_search_matches_the_reference(n_values):
    """50 seeds, each over values drawn wide (few ties), narrow (many
    ties) and all equal; one generator feeds three searches in a row, as
    in a solve, so the draws each leaves behind match too."""
    cfg = QmfConfig(mode="state_vector")
    for seed in range(50):
        data = np.random.default_rng([n_values, seed])
        runs = [data.integers(0, hi, n_values).tolist() for hi in (10 ** 6, 3)]
        runs.append([7] * n_values)
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        for values in runs:
            assert (fields_of(qmf(n_values, values.__getitem__, cfg, ours))
                    == fields_of(_state_vector_qmf(n_values, values.__getitem__,
                                                   cfg, theirs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_state_vector_seeded_from_config_matches_the_reference(seed):
    cfg = QmfConfig(mode="state_vector", seed=seed)
    values = np.random.default_rng(seed).integers(0, 50, 100).tolist()
    assert (fields_of(qmf(100, values.__getitem__, cfg))
            == fields_of(_state_vector_qmf(100, values.__getitem__, cfg, None)))


class Stingy:
    """A generator whose uniforms crowd toward 1: rounds near the cap and
    class draws that rarely fall under the marked mass, so searches often
    spend their whole budget."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        return self.rng.random(size) ** 0.05


@pytest.mark.parametrize("n_values", [2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100])
def test_budget_runs_out_as_in_the_reference(n_values):
    cfg = QmfConfig(mode="state_vector")
    spent = 0
    for seed in range(50):
        values = np.random.default_rng([n_values, seed]).integers(
            0, 4, n_values).tolist()
        ours = qmf(n_values, values.__getitem__, cfg, Stingy(seed))
        theirs = _state_vector_qmf(n_values, values.__getitem__, cfg,
                                   Stingy(seed))
        assert fields_of(ours) == fields_of(theirs)
        spent += ours.oracle_calls == _register(n_values)[1]
    assert spent > 0
