import json
import random
from pathlib import Path

import pytest

from oscmlab import (BipartiteInstance, CostLedger, QmfResult, Solution,
                     dc_node_count, dp_recurrence_count, extract_ordering,
                     format_instance, qdc_cost_model, qdp_cost_model)
from oscmlab.cli import main

from readme import fenced, section

K22_TEXT = "2 2 4 1\n0 0\n0 1\n1 0\n1 1\n"
CROSS_TEXT = "2 2 2 1\n0 1\n1 0\n"


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("algo", ["bruteforce", "dp", "dc", "qdp", "qdc"])
def test_solve_k22_all_algos(tmp_path, capsys, algo):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--algo", algo, "--verify"]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 1"
    assert out[-1] == "verify: ok"


def test_solve_prints_ledger_json(tmp_path, capsys):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--algo", "dp"]) == 0
    ledger_line = [l for l in lines_of(capsys) if l.startswith("ledger: ")][0]
    payload = json.loads(ledger_line[len("ledger: "):])
    assert payload == {"algo": "dp", "n_v": 2, "recurrence_evals": 2,
                       "gamma_evals": 2}


# The arguments of each schema's solve, and the instance the README's
# "Ledger JSON schemas" block shows them on.
LEDGER_ARGS = {
    "dp": ["--algo", "dp"],
    "dc": ["--algo", "dc"],
    "qdp": ["--algo", "qdp"],
    "qdc": ["--algo", "qdc"],
    "tlcm": ["--objective", "tlcm", "--algo", "dp"],
    "bruteforce": ["--objective", "osscm", "--algo", "bruteforce"],
}
LEDGER_GEN = ["gen", "--n-u", "3", "--n-v", "6", "--edge-prob", "0.5",
              "--seed", "7"]


@pytest.mark.parametrize("algo", LEDGER_ARGS)
def test_solve_prints_readme_ledger_text(tmp_path, capsys, algo):
    """The ledger line is exactly the README's schema text, key order
    included: the line of its "Ledger JSON schemas" block for the algo,
    which holds one line per schema, on the 3 x 6 instance (p=0.5, seed 7)
    whose gen command the section names."""
    text = section("Ledger JSON schemas")
    assert f"`oscmlab {' '.join(LEDGER_GEN)}`" in " ".join(text.split())
    (block,) = fenced(text, "json")
    ledgers = {json.loads(line)["algo"]: line for line in block}
    assert len(ledgers) == len(block)
    assert sorted(ledgers) == sorted(LEDGER_ARGS)
    path = str(tmp_path / "demo.oscm")
    assert main(LEDGER_GEN + ["--out", path]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", path] + LEDGER_ARGS[algo]) == 0
    assert f"ledger: {ledgers[algo]}" in lines_of(capsys)


def test_solve_qdp_verify_small(tmp_path, capsys):
    path = write(tmp_path, "3 9 5 1\n0 0\n0 4\n1 2\n2 7\n2 1\n")
    assert main(["solve", "--input", path, "--algo", "qdp", "--verify"]) == 0
    assert lines_of(capsys)[-1] == "verify: ok"


def test_solve_edgeless(tmp_path, capsys):
    path = write(tmp_path, "2 3 0 1\n")
    assert main(["solve", "--input", path]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 0"
    # All orderings tie at zero; the subset DP's canonical pick is reversed.
    assert out[1] == "ordering: 2 1 0"


def test_solve_empty_layer(tmp_path, capsys):
    path = write(tmp_path, "2 0 0 1\n")
    assert main(["solve", "--input", path]) == 0
    assert lines_of(capsys)[1] == "ordering: (empty)"


def test_solve_count_only_has_no_ordering(tmp_path, capsys):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--algo", "dc",
                 "--count-only"]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 1"
    assert out[1] == "ordering: (none)"


@pytest.mark.parametrize("args", [
    ["--algo", algo] for algo in ("bruteforce", "dp", "dc", "qdp")
] + [["--algo", algo, "--objective", "tlcm"] for algo in ("dp", "qdp", "qdc")])
def test_solve_rejects_state_vector_outside_one_sided_qdc(tmp_path, capsys, args):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--qmf-mode", "state_vector"]
                + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--qmf-mode state_vector" in captured.err


@pytest.mark.parametrize("algo", ["bruteforce", "dp", "qdp"])
@pytest.mark.parametrize("option", [["--count-only"], ["--node-budget", "50"]])
def test_solve_rejects_recursion_options_outside_dc_and_qdc(tmp_path, capsys,
                                                             algo, option):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--algo", algo] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option[0] in captured.err


@pytest.mark.parametrize("args,option", [
    (["--algo", "dp", "--alpha", "0.9"], "--alpha"),
    (["--algo", "dp", "--call-constant", "5"], "--call-constant"),
    (["--algo", "bruteforce", "--base-size", "3"], "--base-size"),
    (["--algo", "dc", "--alpha", "0.3"], "--alpha"),
    (["--algo", "dc", "--call-constant", "2"], "--call-constant"),
    (["--algo", "qdc", "--alpha", "0.3"], "--alpha"),
    (["--algo", "qdp", "--base-size", "0"], "--base-size"),
    (["--objective", "tlcm", "--algo", "dp", "--alpha", "0.3"], "--alpha"),
    (["--objective", "tlcm", "--algo", "qdp", "--base-size", "1"], "--base-size"),
    (["--objective", "tlcm", "--algo", "bruteforce", "--call-constant", "2"],
     "--call-constant"),
])
def test_solve_rejects_an_option_its_solver_ignores(tmp_path, capsys, args,
                                                    option):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("args,option", [
    (["--algo", "dp", "--alpha", "0.9"], "--alpha"),
    (["--algo", "qdp", "--base-size", "3"], "--base-size"),
    (["--algo", "dc", "--call-constant", "2"], "--call-constant"),
])
def test_bench_rejects_an_option_its_solver_ignores(capsys, args, option):
    assert main(["bench", "--n-min", "3", "--n-max", "4"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("args,ledger", [
    (["--algo", "qdc", "--base-size", "1"],
     '{"algo": "qdc", "oracle_calls": 65, "nodes": 761}'),
    (["--objective", "tlcm", "--algo", "qdp", "--alpha", "0.3"],
     '{"algo": "tlcm", "enumerated_side": 3, "inner": "qdp", '
     '"classical_evals": 1152, "oracle_calls": 576}'),
    (["--objective", "tlcm", "--algo", "dp", "--call-constant", "2"],
     '{"algo": "tlcm", "enumerated_side": 3, "inner": "dp", '
     '"classical_evals": 1116, "oracle_calls": 930}'),
    (["--algo", "qdp", "--alpha", "0.3", "--call-constant", "2"],
     '{"algo": "qdp", "alpha": 0.3, "classical_evals": 192, '
     '"oracle_calls": 0, "table_reads": 1}'),
], ids=["qdc-base", "tlcm-qdp-alpha", "tlcm-dp-constant", "qdp-both"])
def test_solve_honours_the_options_its_solver_reads(tmp_path, capsys, args,
                                                    ledger):
    """Ledgers recorded before unset options took their config defaults."""
    path = str(tmp_path / "demo.oscm")
    assert main(["gen", "--n-u", "3", "--n-v", "6", "--edge-prob", "0.5",
                 "--seed", "7", "--out", path]) == 0
    capsys.readouterr()
    assert main(["solve", "--input", path, "--verify"] + args) == 0
    out = lines_of(capsys)
    assert f"ledger: {ledger}" in out
    assert out[-1] == "verify: ok"


def test_solve_osscm_objective(tmp_path, capsys):
    path = write(tmp_path, "2 2 2 2\n0 1 0\n1 0 1\n")
    assert main(["solve", "--input", path, "--objective", "osscm",
                 "--algo", "bruteforce", "--verify"]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 0"
    assert out[-1] == "verify: ok"
    ledger = json.loads([l for l in out if l.startswith("ledger")][0][8:])
    assert ledger == {"algo": "bruteforce", "orderings_scanned": 2,
                      "objective": "osscm"}


def test_solve_oscm_rejects_conflicting_colors(tmp_path, capsys):
    path = write(tmp_path, "2 2 2 2\n0 0 0\n0 0 1\n")
    assert main(["solve", "--input", path, "--objective", "oscm"]) == 2
    assert "color" in capsys.readouterr().err


def test_solve_tlcm_objective(tmp_path, capsys):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--objective", "tlcm",
                 "--verify"]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 0"
    assert out[1] == "u-ordering: 0 1"
    assert out[2] == "ordering: 1 0"
    assert out[-1] == "verify: ok"
    ledger = json.loads(out[3][8:])
    assert ledger == {"algo": "tlcm", "enumerated_side": 2, "inner": "dp",
                      "classical_evals": 4, "oracle_calls": 4}


def test_solve_tlcm_bruteforce_algo(tmp_path, capsys):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--objective", "tlcm",
                 "--algo", "bruteforce"]) == 0
    out = lines_of(capsys)
    assert out[0] == "crossings: 0"
    ledger = json.loads(out[3][8:])
    assert ledger["orderings_scanned"] == 4


def test_solve_tlcm_rejects_subset_only_algos(tmp_path, capsys):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--objective", "tlcm",
                 "--algo", "dc"]) == 2
    assert "dp, qdp, or bruteforce" in capsys.readouterr().err


TRACE_TEXT = """\
{
  "n_v": 4,
  "base_size": 1,
  "nodes": {
    "0,0": [
      0,
      1,
      2,
      3
    ],
    "1,0": [
      1,
      2
    ],
    "1,1": [
      0,
      3
    ],
    "2,0": [
      1
    ],
    "2,1": [
      2
    ],
    "2,2": [
      3
    ],
    "2,3": [
      0
    ]
  },
  "sizes": {
    "0,0": 4,
    "1,0": 2,
    "1,1": 2,
    "2,0": 1,
    "2,1": 1,
    "2,2": 1,
    "2,3": 1
  },
  "leaves": {
    "2,0": [
      1
    ],
    "2,1": [
      2
    ],
    "2,2": [
      3
    ],
    "2,3": [
      0
    ]
  }
}"""


def test_trace_out_writes_split_tree(tmp_path, capsys):
    """The trace file is pinned as text, key order included, and is itself
    what extract_ordering reads."""
    inst = write(tmp_path, "2 4 3 1\n0 1\n0 3\n1 0\n")
    trace_path = tmp_path / "trace.json"
    assert main(["solve", "--input", inst, "--algo", "qdc", "--base-size", "1",
                 "--trace-out", str(trace_path)]) == 0
    out = lines_of(capsys)
    assert out[1] == "ordering: 1 2 3 0"
    assert trace_path.read_text() == TRACE_TEXT
    assert extract_ordering(json.loads(trace_path.read_text()), 4) == (1, 2, 3, 0)


def test_trace_out_rejects_count_only(tmp_path, capsys):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--algo", "qdc", "--count-only",
                 "--trace-out", str(tmp_path / "t.json")]) == 2
    assert "reconstruction" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_trace_out_requires_qdc(tmp_path, capsys):
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--algo", "dp",
                 "--trace-out", str(tmp_path / "t.json")]) == 2
    assert "qdc" in capsys.readouterr().err


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "2 2 2 1\n0 0\nbroken\n")
    assert main(["solve", "--input", path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_bruteforce_size_limit_exit(tmp_path, capsys):
    path = write(tmp_path, "1 11 0 1\n")
    assert main(["solve", "--input", path, "--algo", "bruteforce"]) == 3
    assert "exceeds oracle limit" in capsys.readouterr().err


def test_qdp_size_limit_exit(tmp_path, capsys):
    """n_v = 30 would ask qdp for a 2.3 GB member table: exit 3, not a
    MemoryError."""
    path = write(tmp_path, "1 30 0 1\n")
    assert main(["solve", "--input", path, "--algo", "qdp"]) == 3
    assert "n_v=30" in capsys.readouterr().err


def test_node_budget_exit(tmp_path, capsys):
    path = write(tmp_path, "1 10 0 1\n")
    assert main(["solve", "--input", path, "--algo", "dc",
                 "--node-budget", "50"]) == 3
    assert ("node budget exceeded after 51 nodes (modelled peak state "
            "658 bytes, depth 4)") in capsys.readouterr().err


def test_verify_mismatch_exits_four(tmp_path, capsys, monkeypatch):
    def liar(inst, algo, cfg=None):
        return Solution((0, 1), 99), CostLedger(algo="dp")

    monkeypatch.setattr("oscmlab.cli.solve_osscm", liar)
    path = write(tmp_path, K22_TEXT)
    assert main(["solve", "--input", path, "--verify"]) == 4
    assert "MISMATCH" in lines_of(capsys)[-1]


def test_gen_emits_parseable_instance(tmp_path, capsys):
    assert main(["gen", "--n-u", "3", "--n-v", "5", "--edge-prob", "0.5",
                 "--seed", "7"]) == 0
    text = capsys.readouterr().out
    header = text.splitlines()[0].split()
    assert header[0] == "3" and header[1] == "5"
    out = tmp_path / "gen.txt"
    assert main(["gen", "--n-u", "3", "--n-v", "5", "--edge-prob", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == text


def test_gen_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    assert main(["gen", "--n-u", "4", "--n-v", "7", "--edge-prob", "0.4",
                 "--seed", "3", "--out", str(path)]) == 0
    assert main(["solve", "--input", str(path), "--algo", "dp",
                 "--verify"]) == 0
    assert lines_of(capsys)[-1] == "verify: ok"


def test_gen_seed_env_and_flag(tmp_path, capsys, monkeypatch):
    argv = ["gen", "--n-u", "6", "--n-v", "6", "--edge-prob", "0.5"]
    monkeypatch.delenv("OSCM_SEED", raising=False)
    main(argv)
    default_text = capsys.readouterr().out
    main(argv + ["--seed", "2"])
    seed2_text = capsys.readouterr().out
    assert seed2_text != default_text

    monkeypatch.setenv("OSCM_SEED", "2")
    main(argv)
    assert capsys.readouterr().out == seed2_text
    main(argv + ["--seed", "0"])
    assert capsys.readouterr().out == default_text


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("OSCM_SEED", "not-a-number")
    assert main(["gen", "--n-u", "2", "--n-v", "2"]) == 2
    assert "OSCM_SEED" in capsys.readouterr().err


def test_bench_dp_schema_and_monotone_costs(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--algo", "dp", "--n-min", "4", "--n-max", "9",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "algo,n,classical_cost,oracle_calls,wall_ms"
    body = [r.split(",") for r in rows[1:]]
    assert [r[0] for r in body] == ["dp"] * 6
    assert [int(r[1]) for r in body] == [4, 5, 6, 7, 8, 9]
    costs = [int(r[2]) for r in body]
    assert costs == [dp_recurrence_count(n) for n in range(4, 10)]
    assert all(a < b for a, b in zip(costs, costs[1:]))
    assert all(float(r[4]) > 0.0 for r in body)


def test_bench_qdp_columns(capsys):
    assert main(["bench", "--algo", "qdp", "--n-min", "7", "--n-max", "9"]) == 0
    rows = [r.split(",") for r in lines_of(capsys)[1:]]
    assert [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        ("qdp", 7, 448, 0), ("qdp", 8, 64, 36), ("qdp", 9, 333, 60)]


def test_bench_qdc_beyond_wall_cap(capsys):
    assert main(["bench", "--algo", "qdc", "--n-min", "12",
                 "--n-max", "14"]) == 0
    rows = [r.split(",") for r in lines_of(capsys)[1:]]
    assert [int(r[2]) for r in rows] == [0, 0, 0]
    assert [int(r[3]) for r in rows] == [qdc_cost_model(n)
                                         for n in (12, 13, 14)]
    assert [r[4] for r in rows] == ["0.000", "0.000", "0.000"]


def test_bench_qdp_beyond_wall_cap(capsys):
    assert main(["bench", "--algo", "qdp", "--n-min", "16",
                 "--n-max", "18"]) == 0
    rows = [r.split(",") for r in lines_of(capsys)[1:]]
    assert [(int(r[2]), int(r[3])) for r in rows] == [
        qdp_cost_model(n) for n in (16, 17, 18)]
    assert float(rows[0][4]) > 0.0
    assert [r[4] for r in rows[1:]] == ["0.000", "0.000"]


@pytest.mark.parametrize("algo,counter", [("dp", "recurrence_evals"),
                                         ("dc", "nodes"),
                                         ("dc", "gamma_evals"),
                                         ("qdp", "oracle_calls"),
                                         ("qdc", "oracle_calls"),
                                         ("qdc", "nodes"),
                                         ("qdc", "gamma_evals")])
def test_bench_exits_four_when_a_ledger_leaves_its_model(capsys, monkeypatch,
                                                        algo, counter):
    from oscmlab import cli

    def miscounting(inst, algo, cfg=None):
        sol, ledger = solve(inst, algo, cfg)
        if inst.n_v == 9:
            setattr(ledger, counter, getattr(ledger, counter) + 1)
        return sol, ledger

    solve = cli.solve_osscm
    monkeypatch.setattr("oscmlab.cli.solve_osscm", miscounting)
    assert main(["bench", "--algo", algo, "--n-min", "8", "--n-max", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{algo} at n=9" in captured.err


def test_bench_rejects_bad_ranges(capsys):
    assert main(["bench", "--algo", "dp", "--n-min", "0"]) == 2
    assert main(["bench", "--algo", "dp", "--n-min", "9", "--n-max", "8"]) == 2
    assert main(["bench", "--algo", "dp", "--n-min", "4", "--n-max", "70"]) == 3
    capsys.readouterr()


def test_analyze_reports_constants(capsys):
    assert main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "balanced alpha (bisection root): 0.055363226410" in out
    assert "hybrid growth base 2^H((1-a)/4): 1.727391" in out
    assert "entropy H(alpha*):               0.308757" in out
    assert "    100          16005           3660" in out
    assert "dp table entries (space curve), n 12..24: 2.000000" in out
    assert "dp recurrence evals (time counter), n 12..24: 2.117514" in out
    assert "dc recursion nodes, base_size=2, n 8..20: 3.642198" in out
    assert "qdp classical+oracle total, n 16..40: 1.759242" in out
    assert "qdc oracle calls, base_size=2, n 8..32: 1.952077" in out


def test_analyze_csv(tmp_path, capsys):
    path = tmp_path / "curves.csv"
    assert main(["analyze", "--csv", str(path)]) == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "curve,n,cost"
    assert "dp_table_entries,12,4096" in rows
    curves = {r.split(",")[0] for r in rows[1:]}
    assert curves == {"dp_table_entries", "dp_recurrences", "dc_nodes",
                      "qdp_total", "qdc_oracle"}
    assert len(rows) == 1 + 13 + 13 + 13 + 25 + 25


def test_analyze_custom_fpt_sizes(capsys):
    assert main(["analyze", "--fpt-n", "10"]) == 0
    out = capsys.readouterr().out
    assert "    10            161             63" in out
    assert "16005" not in out


@pytest.mark.parametrize("text", [CROSS_TEXT, "2 11 2 1\n0 1\n1 0\n"],
                         ids=["n2", "beyond-oracle"])
def test_verify_recounts_a_one_sided_ordering(tmp_path, capsys, monkeypatch,
                                              text):
    """A solver that reports the optimum (0) with an ordering that has one
    crossing fails --verify on the recount, also past the oracle's limit."""
    def liar(inst, algo, cfg=None):
        return Solution(tuple(range(inst.n_v)), 0), CostLedger(algo="dp")

    monkeypatch.setattr("oscmlab.cli.solve_osscm", liar)
    path = write(tmp_path, text)
    assert main(["solve", "--input", path, "--verify"]) == 4
    assert lines_of(capsys)[-1] == "verify: MISMATCH (reported 0, recount 1)"


def test_verify_count_only_checks_the_optimum(tmp_path, capsys):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--algo", "qdc", "--count-only",
                 "--verify"]) == 0
    out = lines_of(capsys)
    assert out[1] == "ordering: (none)"
    assert out[-1] == "verify: ok"


@pytest.mark.parametrize("args", [["--objective", "tlcm"], ["--algo", "dp"]])
def test_trace_out_outside_one_sided_qdc_is_rejected(tmp_path, capsys, args):
    path = write(tmp_path, CROSS_TEXT)
    assert main(["solve", "--input", path, "--trace-out",
                 str(tmp_path / "t.json")] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qdc" in captured.err
    assert not (tmp_path / "t.json").exists()


def test_bench_dc_rows_are_node_counts(capsys):
    assert main(["bench", "--algo", "dc", "--base-size", "1", "--n-min", "3",
                 "--n-max", "6"]) == 0
    rows = [r.split(",") for r in lines_of(capsys)[1:]]
    assert [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        ("dc", n, dc_node_count(n, 1), 0) for n in range(3, 7)]
    assert all(float(r[4]) > 0.0 for r in rows)


def golden_instance_text(n_v):
    """The split_recursion_golden.json instance of that size, as a file."""
    case = next(c for c in json.loads(
        (Path(__file__).with_name("split_recursion_golden.json")).read_text())
        if c["n_v"] == n_v)
    rng = random.Random(case["seed"])
    edges = tuple((u, v) for u in range(case["n_u"]) for v in range(n_v)
                  if rng.random() < case["p"])
    return format_instance(BipartiteInstance(case["n_u"], n_v, edges))


@pytest.mark.parametrize("n_v,crossings,warned", [(8, 34, False), (9, 50, False)])
def test_count_only_sampled_miss_warns_on_stderr(tmp_path, capsys, n_v,
                                                 crossings, warned):
    """The pinned sampled counts: both seeded runs find the optimum (34
    and 50), so neither warns; the next test makes a search miss."""
    path = write(tmp_path, golden_instance_text(n_v))
    assert main(["solve", "--input", path, "--algo", "qdc", "--count-only",
                 "--qmf-mode", "state_vector", "--seed", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == [f"crossings: {crossings}",
                                             "ordering: (none)"]
    assert captured.err.startswith("warning: ") is warned
    assert len(captured.err.splitlines()) == int(warned)


def test_a_count_only_search_that_misses_warns_on_stderr(tmp_path, capsys,
                                                         monkeypatch):
    """A stub search that returns the largest split value, not the least."""
    def worst(n_values, value_fn, cfg=None, rng=None):
        values = [value_fn(i) for i in range(n_values)]
        return QmfResult(values.index(max(values)), max(values), 1, False)

    monkeypatch.setattr("oscmlab.qdc.qmf", worst)
    path = write(tmp_path, golden_instance_text(8))
    assert main(["solve", "--input", path, "--algo", "qdc", "--count-only",
                 "--qmf-mode", "state_vector", "--seed", "6"]) == 0
    captured = capsys.readouterr()
    first = captured.out.splitlines()[0]
    assert first.startswith("crossings: ") and int(first.split()[1]) > 34
    assert captured.err.startswith("warning: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["--count-only"],
    ["--qmf-mode", "state_vector", "--seed", "6"],
], ids=["cost-model", "full"])
def test_no_miss_warning_without_a_sampled_count(tmp_path, capsys, args):
    path = write(tmp_path, golden_instance_text(8))
    assert main(["solve", "--input", path, "--algo", "qdc"] + args) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("crossings: 34\n")
    assert captured.err == ""
