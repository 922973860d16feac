"""Every config field is read: a non-default value of each one changes what
its solve returns on a fixed instance (the Solution, the ledger's
json_dict() or its meta), or the value is rejected.

test_every_field_has_a_probe fails when a config class gains a field with
no probe below, so a setting that no solve reads cannot creep back in.
"""

import dataclasses
import random

import pytest

from oscmlab import (DcConfig, NodeBudgetExceeded, QdcConfig, QdpConfig,
                     QmfConfig, TlcmConfig, solve_dc, solve_qdc, solve_qdp,
                     solve_tlcm)

from instances import random_instance

CONFIGS = (DcConfig, QdcConfig, QmfConfig, QdpConfig, TlcmConfig)

ONE_SIDED = random_instance(random.Random(3), 4, 8, 0.5)
SMALL = random_instance(random.Random(5), 3, 6, 0.5)


def qdc_with(inst, qmf_cfg):
    return solve_qdc(inst, QdcConfig(qmf_cfg=qmf_cfg))


# (class, field): (solve, instance, base config, non-default value). A
# probe changes one field of its base config and nothing else.
PROBES = {
    (DcConfig, "base_size"): (solve_dc, ONE_SIDED, DcConfig(), 4),
    (DcConfig, "count_only"): (solve_dc, ONE_SIDED, DcConfig(), True),
    (DcConfig, "node_budget"): (solve_dc, ONE_SIDED, DcConfig(), 50),
    (QdcConfig, "base_size"): (solve_qdc, ONE_SIDED, QdcConfig(), 4),
    (QdcConfig, "count_only"): (solve_qdc, ONE_SIDED, QdcConfig(), True),
    (QdcConfig, "node_budget"): (solve_qdc, ONE_SIDED, QdcConfig(), 50),
    (QdcConfig, "qmf_cfg"): (solve_qdc, ONE_SIDED, QdcConfig(),
                             QmfConfig(call_constant=2.0)),
    (QmfConfig, "mode"): (qdc_with, SMALL, QmfConfig(), "state_vector"),
    (QmfConfig, "call_constant"): (qdc_with, SMALL, QmfConfig(), 2.0),
    # The seed is only read by sampled searches.
    (QmfConfig, "seed"): (qdc_with, SMALL, QmfConfig(mode="state_vector"), 1),
    (QdpConfig, "alpha"): (solve_qdp, ONE_SIDED, QdpConfig(), 0.5),
    (QdpConfig, "min_quantum_n"): (solve_qdp, ONE_SIDED, QdpConfig(), 9),
    (QdpConfig, "call_constant"): (solve_qdp, ONE_SIDED, QdpConfig(), 2.0),
    (TlcmConfig, "inner_algo"): (solve_tlcm, SMALL, TlcmConfig(), "qdp"),
    (TlcmConfig, "call_constant"): (solve_tlcm, SMALL, TlcmConfig(), 2.0),
    (TlcmConfig, "qdp"): (solve_tlcm, SMALL, TlcmConfig("qdp"),
                          QdpConfig(min_quantum_n=0)),
}


def outcome(solve, inst, base, **changes):
    """What a solve with base's settings, changed as given, shows its
    caller: its solutions, ledger dict and meta, or the error it raises."""
    try:
        *solutions, ledger = solve(inst, dataclasses.replace(base, **changes))
    except (ValueError, NodeBudgetExceeded) as exc:
        return repr(exc)
    return solutions, ledger.json_dict(), ledger.meta


def default(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def test_every_field_has_a_probe():
    fields = {(cls, field.name) for cls in CONFIGS
              for field in dataclasses.fields(cls)}
    assert fields == set(PROBES)


@pytest.mark.parametrize("key", list(PROBES),
                         ids=lambda key: f"{key[0].__name__}.{key[1]}")
def test_a_non_default_value_is_read_or_rejected(key):
    cls, name = key
    solve, inst, base, value = PROBES[key]
    field = next(f for f in dataclasses.fields(cls) if f.name == name)
    assert value != default(field)
    assert type(base) is cls
    assert (outcome(solve, inst, base, **{name: value})
            != outcome(solve, inst, base))
