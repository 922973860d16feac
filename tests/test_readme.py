"""Every figure and example in README.md, tied to the code.

Each figure the README states is formatted here from the function or
constant that produces it, or read from a CLI run, and must appear in the
README as written (line breaks aside). Each `text` block is a CLI session
that is run and must print what the block shows; bench's wall_ms, a
wall-clock reading that varies by machine, is not compared. No other
number may appear in the README's prose. The quick start is run by
tests/test_public_names.py and the ledger schemas by tests/test_cli.py.
"""

import os
import re
from array import array
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO
from math import ceil, comb, log2, sqrt
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest

from oscmlab import (GROVER_BASE, CostLedger, GenSpec, QmfConfig, Solution,
                     alpha_balance_residual, balanced_alpha, binary_entropy,
                     cost_model_calls, dc_peak_state_bytes, dp_peak_state_bytes,
                     fit_exponent_base, qmf, random_instance, solve_qdp)
from oscmlab import cli, colex, dc, dp, oracle, qdp
from oscmlab.qmf import MAX_STATEVECTOR_DOMAIN, _register

from readme import FENCED, README, fenced
from test_cli import LEDGER_GEN

TEXT = README.read_text()
SESSIONS = fenced(TEXT, "text")
# The prose, blocks left out: the text blocks are run below, the python
# block by tests/test_public_names.py, the json block by tests/test_cli.py.
PROSE = " ".join(FENCED.sub(lambda m: "" if m[1] in ("text", "python", "json")
                            else m[0], TEXT).split())
# Formulas and format notation, not figures, and where each is checked.
NOTATION = [
    "sin²((2r + 1)θ)",  # tests/test_qmf.py, against dense Grover rounds
    "`2^(c·√(2k))`",  # the bound analysis.fpt_crossover_k weighs
    "`h = 1`", "0-based",  # the instance format, tests/test_bigraph.py
]
# The state-vector search's oracle-call budget, a sqrt(dim) + b lg^2(dim).
BUDGET = (22.5, 1.4)
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")


def run(argv):
    """What the CLI prints for argv, and its exit code."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = cli.main(argv)
    return out.getvalue().splitlines(), code


def kb(size):
    return f"{size / 1e3:.0f} KB"


def mb(size, digits=1):
    return f"{size / 1e6:.{digits}f} MB"


def growth(alpha):
    """2^H((1 - alpha)/4), the growth base of both hybrid phases at the
    balanced alpha."""
    return 2 ** binary_entropy((1 - alpha) / 4)


def exit_codes():
    """The exit code of one case of each row of the README's table."""
    def liar(inst, algo, cfg=None):
        return Solution((0, 1), 99), CostLedger(algo="dp")

    with TemporaryDirectory() as tmp:
        path = Path(tmp, "inst.oscm")
        path.write_text(f"1 {oracle.MAX_NV + 1} 0 1\n")
        over = run(["solve", "--input", str(path), "--algo", "bruteforce"])[1]
        path.write_text("2 2 4 1\n0 0\n0 1\n1 0\n1 1\n")
        with mock.patch.object(cli, "solve_osscm", liar):
            mismatch = run(["solve", "--input", str(path), "--verify"])[1]
        return {"success": run(["gen", "--n-u", "1", "--n-v", "1"])[1],
                "usage or input error": run(["solve", "--input",
                                             tmp + "/none"])[1],
                "size limit": over, "`--verify` mismatch": mismatch}


@cache
def figures():
    """Each figure the README states, formatted from the code."""
    fits = {name: fit_exponent_base(list(ns), [fn(n) for n in ns])
            for name, _, ns, fn in cli._analyze_curves(1.0)}
    alpha = balanced_alpha()
    int16 = np.dtype(np.int16).itemsize
    dp_plan = {n: sum(rows.nbytes for step in dp._plan(n)
                      for rows in step[1:] if rows is not None)
               for n in (12, 20, 23)}
    count_map = max(dc._tail_plan(s, base).counts[np.dtype(np.float32)].nbytes
                    for s in range(2, dc.TAIL + 1) for base in range(1, s))
    frames = range(dc.TAIL + 1, 2 * dc.TAIL + 1)
    split_rows = max(colex.split_rows(s, ceil(s / 2)).nbytes for s in frames)
    plans = [dc._layer_plan(f, base) for f in frames for base in (1, 2, 3)]
    entries = max(comb(f, ceil(f / 2)) for f in frames)
    chunk = max(step[2] for plan in plans for step in plan.steps)

    def tables(sizes):
        """Bytes of colex's member tables of range(s), sizes 0..ceil(s/2),
        over the spine sizes of frames of the given sizes."""
        spine = {s for f in sizes for s in dc._layer_plan(f, 1).widths}
        return sum(colex.members(s, i).nbytes for s in spine
                   for i in range(ceil(s / 2) + 1))

    plan_bytes = {n: solve_qdp(random_instance(GenSpec(3, n, 0.5)))[1]
                  .meta["plan_bytes"] for n in (12, 15, 16)}
    gen = next(line.split()[2:] for line in TEXT.splitlines()
               if line.startswith("$ oscmlab gen "))
    header, first_edge = run(gen[:gen.index("--out")])[0][:2]
    beyond_cap = str(cli._WALL_CAPS["qdp"] + 1)
    wall = run(["bench", "--algo", "qdp", "--n-min", beyond_cap,
                "--n-max", beyond_cap])[0][1].rsplit(",", 1)[1]
    with mock.patch.dict(os.environ):
        os.environ.pop("OSCM_SEED", None)
        seed = cli._resolve_seed(None)
    python = re.search(r'requires-python = ">=(.*)"',
                       (README.parent / "pyproject.toml").read_text())[1]
    return [
        f"~{fits['dp_table_entries']:.2f}ⁿ recurrence evals / table entries",
        f"~{fits['dc_nodes']:.2f}ⁿ recursion nodes",
        f"~{growth(alpha):.2f}ⁿ total charged cost",
        f"~{fits['qdc_oracle']:.2f}ⁿ charged oracle calls",
        f"is {mb(dp_peak_state_bytes(20, int16))} at n = 20 and "
        f"{mb(dp_peak_state_bytes(22, int16))} at n = 22 with int16 values",
        f"{kb(dp_plan[12])} at n = 12, {kb(dp_plan[20])} at n = 20 and "
        f"{mb(dp_plan[23], 2)} at n = 23",
        f"{dc_peak_state_bytes(64, 2)} B at n = 64 with base size 2",
        f"Frames of at most {dc.TAIL} vertices share a 0/1 count map per "
        f"size ({kb(count_map)} at most). dc solves a frame of "
        f"{frames[0]} to {frames[-1]} vertices as subset layers: it holds at "
        f"most {entries} entries per size of its spine and one kernel chunk "
        f"of at most {chunk} split values, and caches colex's member tables "
        f"of range(s) up to size ⌈s/2⌉ for each spine size s "
        f"({kb(tables([frames[-1]]))} at f = {frames[-1]}, "
        f"{kb(tables(frames))} over f = {frames[0]} to {frames[-1]}) and "
        f"split rows per size ({kb(split_rows)} at most). qdc's frames of "
        f"{frames[0]} to {frames[-1]} vertices share those split rows and "
        f"one {kb(dc.BATCH_BYTES)} row batch",
        f"{mb(plan_bytes[12], 2)} at n = 12, {mb(plan_bytes[15])} at n = 15 "
        f"and {mb(plan_bytes[16])} at n = 16",
        "charges `max(1, ceil(c·√N))` oracle calls",
        f"over at most {MAX_STATEVECTOR_DOMAIN} candidates",
        f"budget {BUDGET[0]}√N + {BUDGET[1]} lg²N",
        f"Values are {8 * array('q').itemsize}-bit integers",
        f"Python ≥ {python}",
        f"`demo.oscm` above begins `{header}`, then its first edge, "
        f"`{first_edge}`",
        f"(with `wall_ms` {wall})",
        f"`OSCM_SEED` environment variable, else {seed}.",
        f"`oscmlab {' '.join(LEDGER_GEN)}`",
        *(f"| {code} | {meaning}" for meaning, code in exit_codes().items()),
        f"brute force past `oracle.MAX_NV` = {oracle.MAX_NV} free vertices, "
        f"an enumerated layer past `oracle.MAX_NU_TLCM` = "
        f"{oracle.MAX_NU_TLCM}, dp past n_v = {dp._PRACTICAL_MAX_NV}, qdp's "
        f"searches past n_v = {qdp._PRACTICAL_MAX_NV}",
        f"`H((1−α)/4) − (3/4 + H(α)/8)` (H the binary entropy) for α* ≈ "
        f"{alpha:.10f}",
        f"`2^H((1−α*)/4)` ≈ {growth(alpha):.4f} per vertex",
        f"rounded up to the paper's `GROVER_BASE = {GROVER_BASE}`",
    ]


def test_every_figure_matches_the_code():
    assert [figure for figure in figures() if figure not in PROSE] == []


def test_every_number_is_accounted_for():
    """A number in the prose that no figure or notation above produces
    fails here, so a figure cannot enter the README untested."""
    rest = PROSE
    for phrase in figures() + NOTATION:
        rest = rest.replace(phrase, " ")
    assert NUMBER.findall(rest) == []


def test_the_formulas_match_the_code():
    """The charge, the budget, the balance gap and the rounded growth base
    the README writes out are the ones the code computes."""
    for n in range(1, 300):
        for c in (0.3, 1.0, 2.5):
            assert cost_model_calls(n, c) == max(1, ceil(c * sqrt(n)))
    a, b = BUDGET
    for dim in (2 ** i for i in range(1, MAX_STATEVECTOR_DOMAIN.bit_length())):
        assert _register(dim)[:2] == (dim, ceil(a * sqrt(dim)
                                                + b * log2(dim) ** 2))
    for alpha in (0.01, 0.055, 0.2, 0.5):
        gap = (binary_entropy((1 - alpha) / 4)
               - (3 / 4 + binary_entropy(alpha) / 8))
        assert alpha_balance_residual(alpha) == pytest.approx(gap, abs=1e-15)
    assert ceil(growth(balanced_alpha()) * 1000) / 1000 == GROVER_BASE


def test_searches_hold_the_values_the_readme_says():
    """A sampled search takes the largest value its array('q') holds and
    no larger one."""
    cfg = QmfConfig(mode="state_vector")
    top = 2 ** (8 * array("q").itemsize - 1)
    assert qmf(3, [top - 1, 1, 2].__getitem__, cfg).min_value == 1
    with pytest.raises(OverflowError):
        qmf(3, [top, 1, 2].__getitem__, cfg)


def sessions(block):
    """The argv and the shown output of each `$ oscmlab` command of a
    block."""
    runs = []
    for line in block:
        if line.startswith("$ oscmlab "):
            runs.append((line.split()[2:], []))
        else:
            runs[-1][1].append(line)
    return runs


@pytest.mark.parametrize("block", SESSIONS,
                         ids=[block[0].split()[2] for block in SESSIONS])
def test_cli_sessions_print_what_the_readme_shows(block, tmp_path,
                                                  monkeypatch):
    """Run in one directory, so a file one command writes is there for the
    next. bench's wall_ms, its last column, is compared only as a
    number."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OSCM_SEED", raising=False)
    for argv, shown in sessions(block):
        printed, code = run(argv)
        assert code == 0
        if argv[0] == "bench":
            for rows in (printed, shown):
                rows[1:] = [row.rsplit(",", 1) for row in rows[1:]]
                for row in rows[1:]:
                    float(row.pop())
        assert printed == shown
