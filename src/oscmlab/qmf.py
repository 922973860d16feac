"""Quantum minimum finding, simulated two ways.

cost_model mode is the accounting view: it scans all N values classically,
returns the exact argmin (smallest index on ties) and charges
ceil(call_constant * sqrt(N)) oracle calls — the query complexity a
Durr-Hoyer search would spend, attached to an exact answer.

state_vector mode actually runs the Durr-Hoyer loop on a simulated
amplitude vector of dimension 2^ceil(log2 N): pick a random threshold,
Grover-search the strictly-better indices (iteration count
ceil(pi/4 * sqrt(dim / t)) with t the current marked count), measure,
accept improvements, stop when nothing is marked or the iteration budget
(22.5*sqrt(dim) + 1.4*log2(dim), the classic expected-time constant) runs
out. Success probability is at least 1/2; oracle_calls is the number of
Grover iterations actually performed. Padded indices beyond N are never
marked.

The budget's second term is 1.4*log2(dim), not the 1.4*lg^2(N) of the
paper's 22.5*sqrt(N) + 1.4*lg^2(N) bound. The state-vector values pinned in
the tests (split_recursion_golden.json, the qmf per-seed checks) were
recorded with this budget, so changing it moves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, log2, pi, sqrt

import numpy as np

from .errors import SizeLimitError

# Largest domain a state-vector search simulates (a 1024-amplitude vector).
MAX_STATEVECTOR_DOMAIN = 1024


@dataclass(frozen=True)
class QmfConfig:
    mode: str = "cost_model"
    call_constant: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("cost_model", "state_vector"):
            raise ValueError(f"unknown qmf mode {self.mode!r}")
        if self.call_constant <= 0:
            raise ValueError("call_constant must be positive")


@dataclass(frozen=True)
class QmfResult:
    argmin_index: int
    min_value: int
    oracle_calls: int
    success_flag: bool
    norm_drift: float = 0.0
    thresholds: tuple = field(default_factory=tuple)


def cost_model_calls(n_values: int, call_constant: float = 1.0) -> int:
    return max(1, ceil(call_constant * sqrt(n_values)))


def qmf(n_values: int, value_fn, cfg: QmfConfig = None, rng=None) -> QmfResult:
    """Minimum of value_fn over indices 0..n_values-1.

    value_fn is called once per index, in ascending order. Ties break to the
    smallest index in both modes.
    """
    cfg = cfg or QmfConfig()
    if n_values < 1:
        raise ValueError("qmf needs at least one value")
    if cfg.mode == "cost_model":
        best_i, best_v = 0, None
        for i in range(n_values):
            v = value_fn(i)
            if best_v is None or v < best_v:
                best_i, best_v = i, v
        return QmfResult(
            argmin_index=best_i,
            min_value=best_v,
            oracle_calls=cost_model_calls(n_values, cfg.call_constant),
            success_flag=True,
        )
    return _state_vector_qmf(n_values, value_fn, cfg, rng)


def _grover_iteration(psi, marked):
    psi[marked] *= -1.0
    psi[:] = 2.0 * psi.mean() - psi


def _state_vector_qmf(n_values, value_fn, cfg, rng):
    if n_values > MAX_STATEVECTOR_DOMAIN:
        raise SizeLimitError(
            f"state-vector domain {n_values} exceeds cap {MAX_STATEVECTOR_DOMAIN}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    values = [value_fn(i) for i in range(n_values)]
    dim = 1 << max(0, (n_values - 1).bit_length())
    budget = ceil(22.5 * sqrt(dim) + 1.4 * log2(dim)) if dim > 1 else 1

    y = int(rng.integers(n_values))
    thresholds = [values[y]]
    iterations = 0
    drift = 0.0

    while iterations < budget:
        marked = [i for i in range(n_values) if values[i] < values[y]]
        if not marked:
            break
        rounds = ceil((pi / 4.0) * sqrt(dim / max(1, len(marked))))
        psi = np.full(dim, 1.0 / sqrt(dim))
        for _ in range(rounds):
            _grover_iteration(psi, marked)
            iterations += 1
            drift = max(drift, abs(float(np.linalg.norm(psi)) - 1.0))
            if iterations >= budget:
                break
        probs = psi * psi
        probs /= probs.sum()
        sample = int(rng.choice(dim, p=probs))
        if sample < n_values and values[sample] < values[y]:
            y = sample
            thresholds.append(values[y])

    true_min = min(values)
    found = values[y]
    return QmfResult(
        argmin_index=values.index(found),
        min_value=found,
        oracle_calls=max(1, iterations),
        success_flag=found == true_min,
        norm_drift=drift,
        thresholds=tuple(thresholds),
    )


def qmf_success_rate(n_trials: int, n_values: int, cfg: QmfConfig = None) -> float:
    """Fraction of seeded state-vector runs that return the true minimum."""
    cfg = replace(cfg or QmfConfig(), mode="state_vector")
    rng = np.random.default_rng(cfg.seed)
    hits = 0
    for _ in range(n_trials):
        values = rng.integers(0, 1000, size=n_values)
        result = qmf(n_values, lambda i: int(values[i]), cfg, rng=rng)
        if result.min_value == int(values.min()):
            hits += 1
    return hits / n_trials
