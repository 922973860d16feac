"""Quantum minimum finding, simulated two ways.

cost_model mode is the accounting view: it scans all N values classically,
returns the exact argmin (smallest index on ties) and charges
ceil(call_constant * sqrt(N)) oracle calls — the query complexity a
Durr-Hoyer search would spend, attached to an exact answer.

state_vector mode samples the Durr-Hoyer loop (quant-ph/9607014) on a
register of dim = 2^ceil(log2 N) indices, the padding never marked: from a
uniform start y it Grover-searches the t indices strictly better than y.
Grover rounds keep one amplitude on the marked set and one on the rest,
so after r rounds the marked mass is exactly sin^2((2r + 1) theta) with
sin^2 theta = t / dim; an attempt samples the class from it, then a
uniform marked index. Rounds follow the BBHT schedule for unknown t
(quant-ph/9605034): r uniform in [0, m), m from 1 growing to
min(6/5 m, sqrt(dim)) after each attempt that finds nothing better; an
improvement moves y and restarts the schedule. The search stops when
nothing is marked or the budget is spent. The schedule's ceil(m) sequence
is the same for every search of one register size, so it is cached per
dim beside the budget, one entry per call the budget allows; an attempt
reads its cap from there and its three uniforms by index. oracle_calls
counts each attempt's r rounds plus one query reading the measured
index. The budget, 22.5 sqrt(dim) + 1.4 lg^2(dim), is the paper's: Durr
and Hoyer bound the expected total by half of it, so by Markov's
inequality a search given the budget finds the minimum with probability
at least 1/2. norm_drift is
the largest |sin^2 + cos^2 - 1| of an attempt's angle, the only rounding
left. Uniforms come from ``rng`` in blocks of _BLOCK. A search holds its
values as 64-bit integers (an array('q'), 8 bytes a value where a list of
Python ints above 256 takes ~36), so value_fn must return integers there,
and its marked set as the values' indices, which stay small cached ints
up to 256 values.
"""

from __future__ import annotations

from array import array
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import lru_cache
from math import asin, ceil, cos, log2, sin, sqrt
from typing import NamedTuple

import numpy as np

from .errors import SizeLimitError

# Largest domain a state-vector search simulates (a 1024-amplitude register).
MAX_STATEVECTOR_DOMAIN = 1024
_BLOCK = 32


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


class QmfResult(NamedTuple):
    """What one search returns. A plain record, because every search
    builds one (qdc runs one per recursion node) and a NamedTuple builds
    faster than a frozen dataclass; assignment raises as a frozen
    dataclass's does."""

    argmin_index: int
    min_value: int
    oracle_calls: int
    success_flag: bool
    norm_drift: float = 0.0
    thresholds: tuple = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


@lru_cache(maxsize=1024)
def cost_model_calls(n_values: int, call_constant: float = 1.0) -> int:
    return max(1, ceil(call_constant * sqrt(n_values)))


@lru_cache(maxsize=None)
def _register(n_values):
    """A state-vector search's register size dim, its oracle-call budget
    and the BBHT schedule's ceil(m), attempt by attempt from an
    improvement, shared by every domain of one dim."""
    dim = 1 << (n_values - 1).bit_length()
    budget = ceil(22.5 * sqrt(dim) + 1.4 * log2(dim) ** 2) if dim > 1 else 1
    return dim, budget, _schedule(dim, budget)


@lru_cache(maxsize=None)
def _schedule(dim, budget):
    """ceil(m) for m from 1 growing to min(6/5 m, sqrt(dim)), one entry
    per call of the budget: every attempt makes at least one call, so no
    run of attempts outlasts it. 11 dims, ~2900 small ints in all."""
    caps, m, root = [], 1.0, sqrt(dim)
    for _ in range(budget):
        caps.append(ceil(m))
        m = min(6 / 5 * m, root)
    return tuple(caps)


_DEFAULT = QmfConfig()


def qmf(n_values: int, value_fn, cfg: QmfConfig = None, rng=None) -> QmfResult:
    """Minimum of value_fn over indices 0..n_values-1.

    value_fn is called once per index, in ascending order, and returns an
    integer: state_vector mode stores the values as 64-bit integers and
    raises TypeError on any other value. Ties break to the smallest index
    in both modes.
    """
    cfg = cfg or _DEFAULT
    if n_values < 1:
        raise ValueError("qmf needs at least one value")
    if cfg.mode == "cost_model":
        best_i, best_v = 0, value_fn(0)
        for i in range(1, n_values):
            v = value_fn(i)
            if v < best_v:
                best_i, best_v = i, v
        return QmfResult(best_i, best_v,
                         cost_model_calls(n_values, cfg.call_constant), True)
    return _state_vector_qmf(n_values, value_fn, cfg, rng)


def _state_vector_qmf(n_values, value_fn, cfg, rng):
    if n_values > MAX_STATEVECTOR_DOMAIN:
        raise SizeLimitError(
            f"state-vector domain {n_values} exceeds cap {MAX_STATEVECTOR_DOMAIN}"
        )
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    values = array("q", map(value_fn, range(n_values)))
    dim, budget, schedule = _register(n_values)
    draws = rng.random(_BLOCK).tolist()

    found = values[int(draws[0] * n_values)]
    thresholds = [found]
    left, drift, at = budget, 0.0, 1        # left: calls the budget still allows
    while left:
        marked = [i for i, v in enumerate(values) if v < found]
        if not marked:
            break
        t = len(marked)
        theta = asin(sqrt(t / dim))
        for cap in schedule:                # outlasts the budget
            if at + 3 > len(draws):
                draws += rng.random(_BLOCK).tolist()
            rounds = int(draws[at] * cap)
            at += 3
            if rounds >= left:
                rounds = left - 1
            left -= rounds + 1
            angle = (2 * rounds + 1) * theta
            hit = sin(angle) ** 2
            d = abs(hit + cos(angle) ** 2 - 1.0)
            if d > drift:
                drift = d
            if draws[at - 2] < hit:
                found = values[marked[int(draws[at - 1] * t)]]
                thresholds.append(found)
                break
            if not left:
                break

    calls = budget - left
    return QmfResult(values.index(found), found, calls or 1,
                     found == min(values), drift, tuple(thresholds))


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
