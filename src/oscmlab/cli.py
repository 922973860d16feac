"""Command-line front end: solve, gen, bench, analyze.

solve checks every option first; _solver_config, which bench shares,
rejects a valued option the chosen solver does not read and builds its
config. solve then runs one dispatch (solve_osscm for the one-sided
objectives, solve_tlcm when both layers are free) and prints one report;
with --verify it recounts every reported ordering through bigraph and
checks the optimum against the brute-force oracle of the objective. A
count-only state-vector qdc solve whose sampled root search missed the
optimum adds a warning line on stderr. bench times the same dispatch and
takes its cost columns from the closed-form models.

Exit codes: 0 ok, 2 parse/usage error, 3 size limit, 4 verification
mismatch. The OSCM_SEED environment variable overrides the default seed
wherever --seed is not given explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from .analysis import (balanced_alpha, binary_entropy, fit_exponent_base,
                       fpt_crossover_k, fpt_crossover_k_tight)
from .bigraph import (count_crossings, count_same_color_crossings,
                      count_two_level_crossings, format_instance, load_instance)
from .dc import DcConfig, dc_node_count
from .dp import dp_recurrence_count, dp_table_entries
from .errors import InstanceParseError, NodeBudgetExceeded, SizeLimitError
from .extensions import TlcmConfig, solve_osscm, solve_tlcm
from .generate import GenSpec, random_instance
from .ledger import CostLedger
from .oracle import (orderings_scanned, solve_bruteforce, solve_osscm_bruteforce,
                     solve_tlcm_bruteforce)
from .qdc import QdcConfig, qdc_cost_model, split_trace
from .qdp import QdpConfig, qdp_cost_model
from .qmf import QmfConfig

_WALL_CAPS = {"dp": 18, "dc": 11, "qdp": 16, "qdc": 11}


def _resolve_seed(flag_value):
    """Explicit --seed wins; otherwise OSCM_SEED; otherwise 0."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get("OSCM_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"OSCM_SEED must be an integer, got {env!r}")


def _fmt_ordering(ordering):
    if ordering is None:
        return "(none)"
    if not ordering:
        return "(empty)"
    return " ".join(str(v) for v in ordering)


# The valued solver options each solve reads, by (two-layer objective,
# algo); dp and brute force read none on the one-sided objectives. An
# option left unset (None) takes its config class's default.
_OPTIONS_READ = {
    (False, "dc"): ("base_size",),
    (False, "qdc"): ("base_size", "call_constant"),
    (False, "qdp"): ("alpha", "call_constant"),
    (True, "dp"): ("call_constant",),
    (True, "qdp"): ("alpha", "call_constant"),
}


def _given(args, *names) -> dict:
    """The named options that were set on the command line."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _solver_config(args, seed):
    """The config of the solve the command names, built from the options it
    set: a TlcmConfig for the two-layer objective, None for brute force and
    one-sided dp. A valued option that solve does not read raises
    ValueError."""
    tlcm = args.objective == "tlcm"
    read = _OPTIONS_READ.get((tlcm, args.algo), ())
    for name in _given(args, "alpha", "base_size", "call_constant"):
        if name not in read:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to "
                             f"--algo {args.algo}"
                             + (" with --objective tlcm" if tlcm else ""))
    qmf_cfg = QmfConfig(mode=args.qmf_mode, seed=seed,
                        **_given(args, "call_constant"))
    if args.algo in ("dc", "qdc"):
        recursion = dict(count_only=args.count_only,
                         node_budget=args.node_budget, **_given(args, "base_size"))
        if args.algo == "dc":
            return DcConfig(**recursion)
        return QdcConfig(**recursion, qmf_cfg=qmf_cfg)
    if args.algo == "bruteforce" or (args.algo == "dp" and not tlcm):
        return None
    qdp = QdpConfig(qmf_cfg=qmf_cfg, **_given(args, "alpha"))
    return TlcmConfig(args.algo, qmf_cfg, qdp) if tlcm else qdp


# Per objective: the brute-force oracle (returning its Solution) and the
# bigraph recount of the reported orderings.
_CHECKS = {
    "oscm": (solve_bruteforce, count_crossings),
    "osscm": (solve_osscm_bruteforce, count_same_color_crossings),
    "tlcm": (lambda inst: solve_tlcm_bruteforce(inst)[1],
             count_two_level_crossings),
}


def _verify(inst, objective, orderings, sol) -> int:
    """Print the verify line and return the exit code: every reported
    ordering is recounted, then the optimum is checked against brute force
    where the oracle's limits allow."""
    oracle, recount = _CHECKS[objective]
    if sol.ordering is not None:
        got = recount(inst, *orderings)
        if got != sol.crossings:
            print(f"verify: MISMATCH (reported {sol.crossings}, recount {got})")
            return 4
    try:
        brute = oracle(inst)
    except SizeLimitError:
        print("verify: skipped (beyond oracle limits)")
        return 0
    if sol.crossings != brute.crossings:
        print(f"verify: MISMATCH (solver {sol.crossings}, "
              f"bruteforce {brute.crossings})")
        return 4
    print("verify: ok")
    return 0


def cmd_solve(args) -> int:
    tlcm = args.objective == "tlcm"
    if args.qmf_mode == "state_vector" and (args.algo != "qdc" or tlcm):
        raise ValueError("--qmf-mode state_vector applies to the one-sided qdc solver only")
    if (args.count_only or args.node_budget is not None) and args.algo not in ("dc", "qdc"):
        raise ValueError("--count-only and --node-budget apply to dc and qdc only")
    if args.trace_out and tlcm:
        raise ValueError("--trace-out applies to the one-sided qdc solver only")
    if args.trace_out and args.algo != "qdc":
        raise ValueError("--trace-out requires --algo qdc")
    if args.trace_out and args.count_only:
        raise ValueError("a trace requires reconstruction; unset count_only")
    if tlcm and args.algo in ("dc", "qdc"):
        raise ValueError("the two-layer objective supports dp, qdp, or bruteforce")
    cfg = _solver_config(args, _resolve_seed(args.seed))
    inst = load_instance(args.input)
    if args.objective == "oscm" and inst.n_colors > 1:
        inst = inst.uncolored()  # ValueError (exit 2) when colors share an edge

    u_ord = None
    if not tlcm:
        sol, ledger = solve_osscm(inst, args.algo, cfg)
        ledger.meta["objective"] = args.objective
    elif args.algo == "bruteforce":
        u_ord, sol = solve_tlcm_bruteforce(inst)
        ledger = CostLedger(algo="bruteforce",
                            meta={"orderings_scanned": orderings_scanned(inst.n_u)
                                  * orderings_scanned(inst.n_v)})
    else:
        u_ord, sol, ledger = solve_tlcm(inst, cfg)

    print(f"crossings: {sol.crossings}")
    if tlcm:
        print(f"u-ordering: {_fmt_ordering(u_ord)}")
    print(f"ordering: {_fmt_ordering(sol.ordering)}")
    print(f"ledger: {json.dumps(ledger.json_dict())}")
    if args.count_only and ledger.meta.get("search_missed"):
        print("warning: the sampled search missed the minimum; the count-only "
              "crossings lie above the optimum", file=sys.stderr)
    if args.trace_out:
        trace = split_trace(sol.ordering, cfg.base_size)
        Path(args.trace_out).write_text(json.dumps(trace, indent=2))
        print(f"trace: {args.trace_out}")
    if args.verify:
        orderings = (u_ord, sol.ordering) if tlcm else (sol.ordering,)
        return _verify(inst, args.objective, orderings, sol)
    return 0


def cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = GenSpec(args.n_u, args.n_v, args.edge_prob, args.colors, seed)
    text = format_instance(random_instance(spec))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# Closed-form (classical_cost, oracle_calls) of one bench row.
_BENCH_MODELS = {
    "dp": lambda n, cfg: (dp_recurrence_count(n), 0),
    "dc": lambda n, cfg: (dc_node_count(n, cfg.base_size), 0),
    "qdp": qdp_cost_model,
    "qdc": lambda n, cfg: (0, qdc_cost_model(n, cfg)),
}


def cmd_bench(args) -> int:
    if args.n_min < 1 or args.n_min > args.n_max:
        raise ValueError("need 1 <= n-min <= n-max")
    if args.n_max > 64:
        raise SizeLimitError("bench range exceeds the n_v <= 64 solver limit")
    seed = _resolve_seed(args.seed)
    cfg = _solver_config(args, seed)
    lines = ["algo,n,classical_cost,oracle_calls,wall_ms"]
    for n in range(args.n_min, args.n_max + 1):
        classical, oracle = _BENCH_MODELS[args.algo](n, cfg)
        wall = 0.0
        if n <= _WALL_CAPS[args.algo]:
            inst = random_instance(GenSpec(5, n, 0.4, 1, seed + n))
            start = perf_counter()
            solve_osscm(inst, args.algo, cfg)
            wall = (perf_counter() - start) * 1000.0
        lines.append(f"{args.algo},{n},{classical},{oracle},{wall:.3f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _analyze_curves(call_constant):
    qdp_cfg = QdpConfig(qmf_cfg=QmfConfig(call_constant=call_constant))
    qdc_cfg = QdcConfig(qmf_cfg=QmfConfig(call_constant=call_constant))
    return [
        ("dp_table_entries", "dp table entries (space curve)", range(12, 25),
         dp_table_entries),
        ("dp_recurrences", "dp recurrence evals (time counter)", range(12, 25),
         dp_recurrence_count),
        ("dc_nodes", "dc recursion nodes, base_size=2", range(8, 21),
         lambda n: dc_node_count(n, 2)),
        ("qdp_total", "qdp classical+oracle total", range(16, 41),
         lambda n: sum(qdp_cost_model(n, qdp_cfg))),
        ("qdc_oracle", "qdc oracle calls, base_size=2", range(8, 33),
         lambda n: qdc_cost_model(n, qdc_cfg)),
    ]


def cmd_analyze(args) -> int:
    alpha_star = balanced_alpha()
    base = 2.0 ** binary_entropy((1.0 - alpha_star) / 4.0)
    print(f"balanced alpha (bisection root): {alpha_star:.12f}")
    print(f"hybrid growth base 2^H((1-a)/4): {base:.6f}")
    print(f"entropy H(alpha*):               {binary_entropy(alpha_star):.6f}")
    print(f"fpt crossover thresholds (c={args.call_constant:g}):")
    print("      n        loose k        tight k")
    for n in args.fpt_n:
        loose = fpt_crossover_k(n, args.call_constant)
        tight = fpt_crossover_k_tight(n, args.call_constant)
        print(f"  {n:5d}  {loose:13d}  {tight:13d}")
    print("growth fits (least-squares base of b^n):")
    curves = _analyze_curves(args.call_constant)
    csv_lines = ["curve,n,cost"]
    for name, label, ns, fn in curves:
        costs = [fn(n) for n in ns]
        fit = fit_exponent_base(list(ns), costs)
        print(f"  {label}, n {ns.start}..{ns.stop - 1}: {fit:.6f}")
        csv_lines.extend(f"{name},{n},{cost}" for n, cost in zip(ns, costs))
    if args.csv:
        Path(args.csv).write_text("\n".join(csv_lines) + "\n")
        print(f"csv: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscmlab",
        description="Exact one-sided crossing minimization lab with "
                    "cost-ledgered classical and simulated quantum solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--input", required=True, help="instance file path")
    p_solve.add_argument("--algo", default="dp",
                         choices=["bruteforce", "dp", "dc", "qdp", "qdc"])
    p_solve.add_argument("--objective", default="oscm",
                         choices=["oscm", "osscm", "tlcm"])
    p_solve.add_argument("--verify", action="store_true",
                         help="cross-check against brute force when feasible")
    p_solve.add_argument("--trace-out", help="write the qdc split trace as JSON")
    p_solve.add_argument("--alpha", type=float)
    p_solve.add_argument("--base-size", type=int)
    p_solve.add_argument("--count-only", action="store_true")
    p_solve.add_argument("--node-budget", type=int, default=None)
    p_solve.add_argument("--call-constant", type=float)
    p_solve.add_argument("--qmf-mode", default="cost_model",
                         choices=["cost_model", "state_vector"])
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n-u", type=int, required=True)
    p_gen.add_argument("--n-v", type=int, required=True)
    p_gen.add_argument("--edge-prob", type=float, default=0.5)
    p_gen.add_argument("--colors", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="emit cost/wall CSV for one solver")
    p_bench.add_argument("--algo", required=True, choices=["dp", "dc", "qdp", "qdc"])
    p_bench.add_argument("--n-min", type=int, default=4)
    p_bench.add_argument("--n-max", type=int, default=16)
    p_bench.add_argument("--alpha", type=float)
    p_bench.add_argument("--base-size", type=int)
    p_bench.add_argument("--call-constant", type=float)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out", help="output path (default stdout)")
    # bench times count-only runs in cost-model mode.
    p_bench.set_defaults(qmf_mode="cost_model", count_only=True, node_budget=None,
                         objective="oscm")
    p_bench.set_defaults(func=cmd_bench)

    p_an = sub.add_parser("analyze", help="report complexity constants and fits")
    p_an.add_argument("--call-constant", type=float, default=1.0)
    p_an.add_argument("--fpt-n", type=int, nargs="*", default=[10, 20, 50, 100])
    p_an.add_argument("--csv", help="also write the fitted (n, cost) curves")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NodeBudgetExceeded as exc:
        print(f"error: node budget exceeded after {exc.ledger.nodes} nodes "
              f"(peak state {exc.peak_state_bytes} bytes, depth {exc.max_depth})",
              file=sys.stderr)
        return 3
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
