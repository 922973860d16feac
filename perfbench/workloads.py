"""The benchmark's workloads: seeded instance lists, solver calls, checks.

A workload's plan is one pass: a fixed list of solver calls in a fixed
order. The benchmark repeats whole passes, so every pass has the same mix
of call sizes and a median never depends on where a run was cut off.

Every call looks its solver up on the solver's module when it runs, not
when the plan is built, so the span wrappers in spans.py see the calls the
benchmark makes exactly as they see the calls the solvers make.

The seed fixes the edges of every instance. Instance shapes (layer sizes,
edge probability, colours) and edge counts are fixed per workload, so two
seeds give the same mix of work and differ only in which graphs are solved.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable

bigraph = importlib.import_module("oscmlab.bigraph")
dc = importlib.import_module("oscmlab.dc")
dp = importlib.import_module("oscmlab.dp")
extensions = importlib.import_module("oscmlab.extensions")
generate = importlib.import_module("oscmlab.generate")
oracle = importlib.import_module("oscmlab.oracle")
qdc = importlib.import_module("oscmlab.qdc")
qdp = importlib.import_module("oscmlab.qdp")
qmf = importlib.import_module("oscmlab.qmf")

BASE_SIZE = 2  # the dc/qdc default; node counts below assume it

QDP_SV_EXCLUDED = (
    "qdp is not run in state_vector mode: solve_qdp ignores the qmf mode, "
    "so such a leg would time cost-model qdp under another name")


class CheckFailed(Exception):
    """A solver answer that the correctness gate rejects."""


@dataclass
class Call:
    """One solver call of a pass.

    ``leg`` is ``<layer>.<variant>``: the layer whose public function the
    call enters and the way it is called. ``check`` gets the call's return
    value and the gate, and raises CheckFailed on a wrong answer.
    """

    leg: str
    n_v: int
    run: Callable[[], object]
    check: Callable[[object, object], None]


@dataclass
class Plan:
    calls: list
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """``scaled``: report times at the reference speed (speed.py). Off where
    the calls wait on memory and the interpreter loop does not track them."""

    name: str
    why: str
    build: Callable[[int], Plan]
    scaled: bool = True


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _require_permutation(order, n: int, what: str = "ordering"):
    _require(order is not None and len(order) == n
             and sorted(order) == list(range(n)),
             f"{what} {order!r} is not a permutation of 0..{n - 1}")


def _require_ledger(ledger, expected: dict):
    for key, want in expected.items():
        got = getattr(ledger, key)
        _require(got == want, f"ledger {key}={got}, closed form says {want}")


def solution_check(inst, ref, *, count_only=False, ledger=None,
                   same_color=False):
    """Check a (Solution, CostLedger) pair, or (Solution, None) from the oracle.

    ref is the optimum from a solver other than the one under test (None
    when no exact reference exists); ledger maps CostLedger fields to
    their closed-form values.
    """
    recount = (bigraph.count_same_color_crossings if same_color
               else bigraph.count_crossings)

    def check(out, gate):
        sol, led = out
        if ref is not None:
            _require(sol.crossings == ref,
                     f"optimum {sol.crossings} != reference {ref}")
        if count_only:
            _require(sol.ordering is None, "count-only run returned an ordering")
        else:
            _require_permutation(sol.ordering, inst.n_v)
            got = gate.recount(recount, inst, sol.ordering)
            _require(got == sol.crossings,
                     f"recount {got} != reported {sol.crossings}")
        if ledger:
            _require_ledger(led, ledger)
    return check


def tlcm_check(inst, ref, ledger=None):
    """Check a (u_ordering, Solution, CostLedger-or-None) triple."""
    def check(out, gate):
        u_order, sol, led = out
        _require(sol.crossings == ref, f"optimum {sol.crossings} != reference {ref}")
        _require_permutation(u_order, inst.n_u, "u ordering")
        _require_permutation(sol.ordering, inst.n_v, "v ordering")
        got = gate.recount(bigraph.count_two_level_crossings, inst, u_order,
                           sol.ordering)
        _require(got == sol.crossings, f"recount {got} != reported {sol.crossings}")
        if ledger:
            _require_ledger(led, ledger)
    return check


def dp_ledger(n):
    return {"recurrence_evals": dp.dp_recurrence_count(n)}


def dc_ledger(n):
    return {"nodes": dc.dc_node_count(n, BASE_SIZE)}


def qdp_ledger(n):
    classical, quantum = qdp.qdp_cost_model(n)
    return {"recurrence_evals": classical, "oracle_calls": quantum}


def qdc_ledger(n):
    return {"nodes": dc.dc_node_count(n, BASE_SIZE),
            "oracle_calls": qdc.qdc_cost_model(n)}


def tlcm_ledger(inst, inner):
    n_outer, n_inner = sorted((inst.n_u, inst.n_v))
    if inner == "dp":
        per_solve = dp.dp_recurrence_count(n_inner)
        model = per_solve
    else:
        per_solve = qdp.qdp_cost_model(n_inner)[0]
        model = sum(qdp.qdp_cost_model(n_inner))
    return {"recurrence_evals": factorial(n_outer) * per_solve,
            "oracle_calls": qmf.cost_model_calls(factorial(n_outer)) * model}


def instances(name, seed, shapes):
    """One instance per (n_u, n_v, edge_prob, colors) shape, edges from seed.

    Draws repeat until the edge count is the rounded mean
    n_u * n_v * colors * edge_prob, so seeds move only where the edges go.
    Work grows with the edge count, and so does memory: crossing counts grow
    with its square, and how many exceed 256 (CPython shares the smaller
    ints) sets what a search holding them needs. Without this, qdc's
    state-vector peak moved by a fifth from seed to seed on split-recursion.
    """
    rng = random.Random(f"{name}:{seed}")
    out = []
    for n_u, n_v, p, colors in shapes:
        want = round(n_u * n_v * colors * p)
        while True:
            inst = generate.random_instance(generate.GenSpec(
                n_u, n_v, p, colors, seed=rng.randrange(2 ** 32)))
            if inst.n_edges == want:
                break
        out.append(inst)
    return out


def subset_calls(inst, ref, solvers=("dp", "dc", "qdp", "qdc")):
    """Default-config calls of the four subset solvers on one instance."""
    n = inst.n_v
    table = {
        "dp": (lambda: dp.solve_dp(inst), dp_ledger),
        "dc": (lambda: dc.solve_dc(inst), dc_ledger),
        "qdp": (lambda: qdp.solve_qdp(inst), qdp_ledger),
        "qdc": (lambda: qdc.solve_qdc(inst), qdc_ledger),
    }
    return [Call(f"{algo}.solve", n, table[algo][0],
                 solution_check(inst, ref, ledger=table[algo][1](n)))
            for algo in solvers]


DP_LARGE_NOTE = ("dp-large has no independent exact reference at n_v=22: "
                 "its optimum is checked only by recount and ledger")


def build_dp_large(seed):
    (inst,) = instances("dp-large", seed, [(8, 22, 0.5, 1)])
    return Plan(subset_calls(inst, None, ("dp",)), [DP_LARGE_NOTE])


def build_qdp_mid(seed):
    calls = []
    for inst in instances("qdp-mid", seed, [(8, 15, 0.5, 1), (8, 16, 0.5, 1)]):
        ref = dp.solve_dp(inst)[0].crossings
        calls += subset_calls(inst, ref, ("qdp",))
    return Plan(calls, [QDP_SV_EXCLUDED])


def build_split_recursion(seed):
    (inst,) = instances("split-recursion", seed, [(8, 10, 0.5, 1)])
    ref = dp.solve_dp(inst)[0].crossings
    n = inst.n_v
    count_cfg = dc.DcConfig(count_only=True)
    qcount_cfg = qdc.QdcConfig(count_only=True)
    sv_cfg = qdc.QdcConfig(qmf_cfg=qmf.QmfConfig(mode="state_vector", seed=seed))
    calls = [
        Call("dc.count", n, lambda: dc.solve_dc(inst, count_cfg),
             solution_check(inst, ref, count_only=True, ledger=dc_ledger(n))),
        Call("dc.full", n, lambda: dc.solve_dc(inst),
             solution_check(inst, ref, ledger=dc_ledger(n))),
        Call("qdc.count", n, lambda: qdc.solve_qdc(inst, qcount_cfg),
             solution_check(inst, ref, count_only=True, ledger=qdc_ledger(n))),
        Call("qdc.full", n, lambda: qdc.solve_qdc(inst),
             solution_check(inst, ref, ledger=qdc_ledger(n))),
        # Sampled searches make the oracle count random; nodes stay exact.
        Call("qdc.sv", n, lambda: qdc.solve_qdc(inst, sv_cfg),
             solution_check(inst, ref, ledger=dc_ledger(n))),
    ]
    return Plan(calls, [QDP_SV_EXCLUDED])


EDGE_PROBS = (0.2, 0.5, 0.8)
# Colored instances for the same-color objective, and small two-layer
# instances (one with n_v < n_u, so solve_tlcm enumerates the other layer).
OSSCM_SHAPES = [(3, 3, 0.5, 2), (4, 5, 0.5, 2), (5, 6, 0.5, 2), (4, 7, 0.5, 2),
                (5, 8, 0.5, 2)]
TLCM_SHAPES = [(2, 4, 0.5, 1), (3, 5, 0.5, 1), (4, 6, 0.5, 1), (4, 3, 0.5, 1)]


def build_small_crosscheck(seed):
    """Brute force and the four solvers on n_v 1..9, plus two shares."""
    # The oracle's permutation tables are an lru_cache: clear it so every
    # set-up pays the same warm-up, which the references below perform.
    oracle._perm_tables.cache_clear()
    shapes = [(1 + (n_v + i) % 6, n_v, p, 1)
              for n_v in range(1, 10) for i, p in enumerate(EDGE_PROBS)]
    calls = []
    for inst in instances("small-crosscheck", seed, shapes):
        ref = oracle.solve_bruteforce(inst)
        calls.append(Call("oracle.plain", inst.n_v,
                          lambda inst=inst: (oracle.solve_bruteforce(inst), None),
                          solution_check(inst, ref.crossings)))
        calls += subset_calls(inst, ref.crossings)

    for inst in instances("small-crosscheck:osscm", seed, OSSCM_SHAPES):
        ref = oracle.solve_osscm_bruteforce(inst).crossings
        n = inst.n_v
        calls.append(Call("oracle.osscm", n,
                          lambda inst=inst: (oracle.solve_osscm_bruteforce(inst), None),
                          solution_check(inst, ref, same_color=True)))
        for algo, ledger in (("dp", dp_ledger), ("dc", dc_ledger),
                             ("qdp", qdp_ledger), ("qdc", qdc_ledger)):
            calls.append(Call(f"extensions.osscm-{algo}", n,
                              lambda inst=inst, algo=algo:
                                  extensions.solve_osscm(inst, algo),
                              solution_check(inst, ref, ledger=ledger(n),
                                             same_color=True)))

    for inst in instances("small-crosscheck:tlcm", seed, TLCM_SHAPES):
        ref = oracle.solve_tlcm_bruteforce(inst)[1].crossings
        calls.append(Call("oracle.tlcm", inst.n_v,
                          lambda inst=inst: (*oracle.solve_tlcm_bruteforce(inst), None),
                          tlcm_check(inst, ref)))
        for inner in ("dp", "qdp"):
            cfg = extensions.TlcmConfig(inner_algo=inner)
            calls.append(Call(f"extensions.tlcm-{inner}", inst.n_v,
                              lambda inst=inst, cfg=cfg:
                                  extensions.solve_tlcm(inst, cfg),
                              tlcm_check(inst, ref, tlcm_ledger(inst, inner))))
    return Plan(calls, ["the oracle's own calls are checked by recount and "
                        "against its set-up answer; the four solvers are "
                        "checked against that answer"])


WORKLOADS = {w.name: w for w in (
    Workload("dp-large",
             "dp size-layer kernel at n_v=22 does nearly all the work; its 2^n "
             "column-sum table is over 4x the L3, so a layout or kernel change "
             "shows here",
             # 2-vCPU Xeon guest, 40 s of 4.5 s solves: wall times varied
             # by 6%, times scaled by the interpreter loop by 18%.
             build_dp_large, scaled=False),
    Workload("qdp-mid",
             "qdp's dict table phase and per-candidate search loop dominate at "
             "n_v 15 and 16 (odd and even ceil splits); dp's kernel never runs",
             build_qdp_mid),
    Workload("split-recursion",
             "dc/qdc value pass, gamma, base cases, qmf in both modes and "
             "reconstruction at n_v=10; full vs count-only on one instance "
             "exposes reconstruction cost",
             build_split_recursion),
    Workload("small-crosscheck",
             "Tier-1 style sweep, n_v 1..9 plus two-color and two-layer shares, "
             "each checked by brute force: per-call overhead, matrix builds and "
             "the oracle weigh here",
             build_small_crosscheck),
)}


def dp_bytes_computed(inst) -> int:
    """Bytes of the 2^n arrays solve_dp allocates, from their shapes.

    opt (int64), choice (int8), popcounts (uint8), size order (int64) and the
    n-column column-sum table, whose dtype widens to int64 when the crossing
    matrix total times n reaches 2^31. The matrix total is every same-colored
    edge pair with distinct endpoints on both layers, counted from the edges.
    """
    n = inst.n_v
    pairs = 0
    for color in range(inst.n_colors):
        edges = [e for e, c in zip(inst.edges, inst.colors) if c == color]
        deg_u, deg_v = [0] * inst.n_u, [0] * n
        for u, v in edges:
            deg_u[u] += 1
            deg_v[v] += 1
        pairs += comb(len(edges), 2) - sum(comb(d, 2) for d in deg_u) \
            - sum(comb(d, 2) for d in deg_v)
    per_mask = 8 + 1
    if n >= 2:
        per_mask += 1 + 8 + n * (8 if pairs * n >= 2 ** 31 else 4)
    return (1 << n) * per_mask
