"""Self-tests of the benchmark: the gate, the spans and the config file.

    python3 -m pytest perfbench -q

The traced-count tests run one traced pass of each real workload and
compare the per-layer counts with the solvers' closed forms; the whole
file takes about a minute.
"""

import json
import sys
from math import comb, ceil, factorial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from gate import Gate  # noqa: E402


def traced_pass(plan):
    tracer, gate = spans.Tracer(), Gate()
    with tracer.installed():
        run.run_pass(plan, gate, speed.Speedometer(), tracer)
    row = run.layer_row(spans.layer_totals(tracer.spans), gate.recount_ns)
    assert (gate.attempted, gate.failed) == (len(plan.calls), 0), gate.failures
    return row


def spanned_attributes():
    mods = [(m, a) for m, a, _, _ in spans.SPANNED] + [spans.QMF_SITE]
    return {(m, a): getattr(sys.modules[m], a) for m, a in mods}


def internal_nodes(k, base=wl.BASE_SIZE):
    """qmf searches of one qdc solve: recursion nodes above the base size."""
    if k <= base:
        return 0
    h = ceil(k / 2)
    return 1 + comb(k, h) * (internal_nodes(k - h) + internal_nodes(h))


def domain_sum(k, base=wl.BASE_SIZE):
    """Summed qmf domain sizes of one qdc solve."""
    if k <= base:
        return 0
    h = ceil(k / 2)
    return comb(k, h) * (1 + domain_sum(k - h) + domain_sum(h))


# --- the correctness gate -------------------------------------------------

@pytest.fixture
def small_case():
    inst = wl.instances("test", 0, [(4, 6, 0.5, 1)])[0]
    ref = wl.oracle.solve_bruteforce(inst)
    return inst, ref


def _call(inst, ref, run_fn):
    return wl.Call("dp.solve", inst.n_v, run_fn,
                   wl.solution_check(inst, ref.crossings,
                                     ledger=wl.dp_ledger(inst.n_v)))


def test_gate_counts_each_failure_and_keeps_going(small_case):
    inst, ref = small_case
    Solution = wl.bigraph.Solution

    def wrong_optimum():
        sol, ledger = wl.dp.solve_dp(inst)
        return Solution(sol.ordering, sol.crossings + 1), ledger

    def not_a_permutation():
        sol, ledger = wl.dp.solve_dp(inst)
        return Solution((0,) * inst.n_v, sol.crossings), ledger

    def ledger_off_by_one():
        sol, ledger = wl.dp.solve_dp(inst)
        ledger.recurrence_evals += 1
        return sol, ledger

    def raises():
        raise RuntimeError("solver blew up")

    gate = Gate()
    stubs = (wrong_optimum, not_a_permutation, ledger_off_by_one, raises)
    results = [gate.call(_call(inst, ref, fn)) for fn in stubs]
    results.append(gate.call(_call(inst, ref, lambda: wl.dp.solve_dp(inst))))
    assert results[:4] == [None] * 4
    assert results[4] is not None and results[4] >= 0
    assert (gate.attempted, gate.failed) == (5, 4)
    assert gate.error_rate == 4 / 5
    reasons = [reason for _, _, reason in gate.failures]
    assert reasons[0].startswith("optimum")
    assert "not a permutation" in reasons[1]
    assert reasons[2].startswith("ledger recurrence_evals")
    assert reasons[3] == "raised RuntimeError: solver blew up"


def test_gate_rejects_recount_mismatch(small_case):
    inst, ref = small_case
    reversed_order = tuple(reversed(ref.ordering))
    wrong = wl.bigraph.count_crossings(inst, reversed_order)
    # A wrong ordering reported with the optimum passes the optimum check
    # and must be caught by the recount (the instance's reverse costs more).
    assert wrong != ref.crossings
    call = wl.Call("oracle.plain", inst.n_v,
                   lambda: (wl.bigraph.Solution(reversed_order, ref.crossings), None),
                   wl.solution_check(inst, ref.crossings))
    gate = Gate()
    assert gate.call(call) is None
    assert gate.failures[0][2].startswith("recount")
    assert gate.recount_ns > 0


def test_tail_has_ten_samples_beyond_or_is_the_upper_median():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail(list(range(1, 22))) == (11, 100.0 * 11 / 21, 10)
    assert run.tail(list(range(1, 21))) == (11, 55.0, 9)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3, 1)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 0)


# --- traced counts against ledgers and closed forms -----------------------

def test_dp_large_traced_counts_match_closed_forms():
    before = spanned_attributes()
    plan = wl.WORKLOADS["dp-large"].build(1)
    row = traced_pass(plan)
    solves = len(plan.calls)
    assert row["dp.recurrence_evals"] == wl.dp.dp_recurrence_count(22) * solves
    assert row["matrix.calls"] == solves
    # int32 column sums at this size: 2^22 * (8 + 1 + 1 + 8 + 22 * 4) bytes
    assert row["dp.bytes_computed"] == solves * (1 << 22) * 106
    assert row["dp.evals_per_us"] > 0
    assert row["qdp.self_ms"] == row["dc.self_ms"] == row["oracle.self_ms"] == 0
    assert spanned_attributes() == before


def test_qdp_mid_traced_counts_match_closed_forms():
    plan = wl.WORKLOADS["qdp-mid"].build(1)
    row = traced_pass(plan)
    models = [wl.qdp.qdp_cost_model(n) for n in (15, 16)]
    assert row["qdp.classical_evals"] == sum(c for c, _ in models)
    assert row["qdp.oracle_calls"] == sum(q for _, q in models)
    assert row["qdp.table_reads"] > 0
    assert row["dp.self_ms"] == 0 and row["dp.recurrence_evals"] == 0
    assert row["matrix.calls"] == 2


def test_split_recursion_traced_counts_match_closed_forms():
    plan = wl.WORKLOADS["split-recursion"].build(1)
    row = traced_pass(plan)
    nodes = wl.dc.dc_node_count(10, wl.BASE_SIZE)
    assert row["dc.nodes"] == 2 * nodes
    assert row["qdc.nodes"] == 3 * nodes
    # Two cost-model qdc legs plus the sampled leg's own ledger count.
    sv_calls = row["qdc.oracle_calls"] - 2 * wl.qdc.qdc_cost_model(10)
    assert sv_calls > 0
    searches = internal_nodes(10)
    assert row["qmf.calls"] == 3 * searches
    assert row["qmf.domain_sum"] == 3 * domain_sum(10)
    assert row["qmf.sv_searches"] == searches
    assert 0 <= row["qmf.sv_misses"] <= searches
    assert row["qmf.sv_hit_ratio"] == pytest.approx(
        1 - row["qmf.sv_misses"] / searches)
    assert row["qmf.sv_oracle_calls"] > 0
    assert row["dc.modelled_peak_bytes"] > 0 and row["qdc.modelled_peak_bytes"] > 0
    assert row["qmf.self_ms"] > 0 and row["qdc.self_ms"] > 0
    assert row["dp.self_ms"] == row["oracle.self_ms"] == 0


def test_small_crosscheck_traced_counts_match_closed_forms():
    plan = wl.WORKLOADS["small-crosscheck"].build(1)
    row = traced_pass(plan)
    plain = range(1, 10)
    assert row["oracle.calls"] == 3 * len(plain) + len(wl.OSSCM_SHAPES) \
        + len(wl.TLCM_SHAPES)
    assert row["oracle.orderings_scanned"] == (
        3 * sum(factorial(n) for n in plain)
        + sum(factorial(n_v) for _, n_v, _, _ in wl.OSSCM_SHAPES)
        + sum(factorial(n_u) * factorial(n_v) for n_u, n_v, _, _ in wl.TLCM_SHAPES))
    tlcm_inner = 2 * sum(factorial(min(n_u, n_v)) for n_u, n_v, _, _ in wl.TLCM_SHAPES)
    osscm_inner = 4 * len(wl.OSSCM_SHAPES)
    assert row["extensions.inner_solves"] == tlcm_inner + osscm_inner
    # One matrix per subset-solver call, direct or inside an extension.
    assert row["matrix.calls"] == 4 * 3 * len(plain) + osscm_inner + tlcm_inner
    assert row["dp.recurrence_evals"] == (
        3 * sum(wl.dp.dp_recurrence_count(n) for n in plain)
        + sum(wl.dp.dp_recurrence_count(n_v) for _, n_v, _, _ in wl.OSSCM_SHAPES)
        + sum(factorial(min(shape[:2])) * wl.dp.dp_recurrence_count(max(shape[:2]))
              for shape in wl.TLCM_SHAPES))
    assert row["bigraph.recount_ms"] > 0


def test_tracer_restores_attributes_after_an_error():
    before = spanned_attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert spanned_attributes() != before
            raise RuntimeError("stop")
    assert spanned_attributes() == before


def test_self_time_subtracts_children():
    s = [["a.x", 0, 100, -1, 0, None], ["b.y", 10, 40, 0, 0, None],
         ["c.z", 20, 30, 1, 0, None], ["b.y", 50, 60, 0, 0, None]]
    assert spans.self_ns(s) == [60, 20, 10, 10]
    assert spans.self_ns(s, 1, 3) == [20, 10]


# --- the command and its config -------------------------------------------

def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {w.name: w.why for w in wl.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    setup_bound = [m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup_bound == [max(m["bound"] for m in doc["end_to_end"])]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace, capsys):
    args = ["--workload", "small-crosscheck", "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert any(line.split()[:1] == ["error_rate"] for line in lines)


def test_command_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dp-large", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
