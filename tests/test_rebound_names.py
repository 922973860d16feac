"""The names perfbench's tracer (perfbench/spans.py) rebinds stay live.

The tracer times a solve by setting module attributes to timing wrappers:
build_crossing_matrix on each solver module, qmf on oscmlab.qdc, which
it calls positionally as (n_values, value_fn, cfg, rng), and the inner
solvers on oscmlab.extensions, which the two-layer solver calls once per
enumerated order. A solver that reached those functions through another
name would run untraced, so every solve here must call the rebound name.
"""

import importlib
import random
from math import ceil, comb, factorial

import pytest

from oscmlab import (QdcConfig, QmfConfig, TlcmConfig, solve_osscm, solve_qdc,
                     solve_tlcm)
import oscmlab.extensions
import oscmlab.qdc

from instances import random_instance

SOLVERS = ("dp", "dc", "qdp", "qdc")


def searches(k, base_size=2):
    """Internal nodes of the split recursion: one qmf search each."""
    if k <= base_size:
        return 0
    half = ceil(k / 2)
    return 1 + comb(k, half) * (searches(k - half, base_size)
                                + searches(half, base_size))


@pytest.mark.parametrize("algo", SOLVERS)
@pytest.mark.parametrize("n_v", [1, 5, 9])
@pytest.mark.parametrize("entry", ["module", "solve_osscm"])
def test_every_solve_builds_its_matrix_through_the_rebound_name(
        monkeypatch, algo, n_v, entry):
    module = importlib.import_module(f"oscmlab.{algo}")
    original = module.build_crossing_matrix
    built = []

    def rebound(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "build_crossing_matrix", rebound)
    inst = random_instance(random.Random(n_v), 4, n_v, 0.5)
    if entry == "module":
        getattr(module, f"solve_{algo}")(inst)
    else:
        solve_osscm(inst, algo)
    assert built == [inst]


@pytest.mark.parametrize("mode", ["cost_model", "state_vector"])
@pytest.mark.parametrize("n_v", [2, 3, 7])
def test_every_qdc_search_calls_the_rebound_qmf(monkeypatch, mode, n_v):
    original = oscmlab.qdc.qmf
    domains = []

    def rebound(*args, **kwargs):
        assert not kwargs and len(args) == 4
        domains.append(args[0])
        return original(*args)

    monkeypatch.setattr(oscmlab.qdc, "qmf", rebound)
    inst = random_instance(random.Random(n_v), 4, n_v, 0.5)
    solve_qdc(inst, QdcConfig(qmf_cfg=QmfConfig(mode=mode)))
    assert len(domains) == searches(n_v)
    if n_v > 2:
        assert domains[0] == comb(n_v, ceil(n_v / 2))


@pytest.mark.parametrize("inner", ["dp", "qdp"])
@pytest.mark.parametrize("n_u,n_v", [(3, 5), (6, 4), (1, 3)])
def test_every_tlcm_order_solves_through_the_rebound_names(
        monkeypatch, inner, n_u, n_v):
    """One inner solve per enumerated order, each building one matrix."""
    events = []

    def rebind(module, name, tag):
        original = getattr(module, name)

        def rebound(*args, **kwargs):
            events.append(tag)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, rebound)

    rebind(oscmlab.extensions, f"solve_{inner}", "solve")
    rebind(importlib.import_module(f"oscmlab.{inner}"),
           "build_crossing_matrix", "matrix")
    inst = random_instance(random.Random(n_u * 10 + n_v), n_u, n_v, 0.5)
    solve_tlcm(inst, TlcmConfig(inner_algo=inner))
    assert events == ["solve", "matrix"] * factorial(min(n_u, n_v))
