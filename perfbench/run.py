"""oscmlab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the solvers are imported from its
src/ directory, and the run stops with exit code 2 when there is none.

The loop is closed with one caller: each solver call starts when the
previous one has returned and been checked. Whole passes over the
workload's fixed call list run while the next pass is expected to end
within --seconds. Every call goes through the correctness gate (gate.py);
checks are outside the timed span.

--trace 0 times every call with no spans installed, then makes one untimed
pass under tracemalloc for peak memory (each leg on its largest
instances), and reports the end-to-end metrics. --trace 1 alternates
untraced and traced passes (spans.py), reports the per-layer metrics per
traced pass (medians over passes) and the tracing overhead, and writes the
spans to perfbench/out/.

Every reported time is scaled to a reference machine speed (speed.py);
the report keeps the raw wall figures beside them.

Human-readable lines come first on stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics. A fuller
report, with the environment, goes to perfbench/out/.
"""

import os

# Pin BLAS/OpenMP pools to one thread before NumPy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail

END_TO_END_UNITS = {"setup_s": "s", "solves_per_s": "1/s", "solve_ms_p50": "ms",
                    "solve_ms_tail": "ms", "peak_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """(value, percentile, samples beyond it) of the highest percentile
    with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile would fall under the
    median, so the upper median stands in, with fewer samples beyond it;
    the rank never jumps as the sample count grows.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


@contextmanager
def traced_peak(box):
    tracemalloc.start()
    try:
        yield
    finally:
        box.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def setup(workload, seed, speedo):
    """Build the plan SETUP_REPEATS times; returns it and [(start, seconds)]."""
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        plan = workload.build(seed)
        builds.append((start, perf_counter() - start))
        speedo.tick()
    return plan, builds


def run_pass(plan, gate, speedo, tracer=None, pass_no=0):
    """One pass over the plan; returns [(leg, start, wall seconds or None)]."""
    out = []
    for index, call in enumerate(plan.calls):
        if tracer is not None:
            tracer.solve_id = f"{pass_no}:{index}"
        start = perf_counter()
        out.append((call.leg, start, gate.call(call)))
        speedo.tick()
    return out


def peak_pass(plan, gate):
    """tracemalloc peak bytes per leg, from each leg's largest instances."""
    biggest = {}
    for call in plan.calls:
        biggest[call.leg] = max(biggest.get(call.leg, 0), call.n_v)
    peaks = {}
    for call in plan.calls:
        if call.n_v == biggest[call.leg]:
            box = []
            gate.call(call, around=lambda: traced_peak(box))
            peaks[call.leg] = max(peaks.get(call.leg, 0), box[0])
    return peaks


def passes_fit(start, walls, seconds):
    return not walls or perf_counter() - start + statistics.fmean(walls) <= seconds


def wall(records):
    return [(leg, seconds) for leg, _, seconds in records]


def at_reference(records, speedo):
    """Each call's seconds at the reference speed (speed.py)."""
    return [(leg, None if seconds is None else speedo.scale(start, seconds))
            for leg, start, seconds in records]


def solve_seconds(samples):
    return [s for _, s in samples if s is not None]


def call_metrics(samples):
    ok = solve_seconds(samples)
    if not ok:
        return {"solves_per_s": 0.0, "solve_ms_p50": 0.0, "solve_ms_tail": 0.0}, {}
    tail_s, pct, beyond = tail(ok)
    return ({"solves_per_s": len(ok) / sum(ok),
             "solve_ms_p50": statistics.median(ok) * 1e3,
             "solve_ms_tail": tail_s * 1e3},
            {"solve_samples": len(ok), "tail_percentile": pct,
             "tail_samples_beyond": beyond})


def end_to_end(plan, gate, speedo, seconds):
    by_pass, walls = [], []
    start = perf_counter()
    while passes_fit(start, walls, seconds):
        began = perf_counter()
        by_pass.append(run_pass(plan, gate, speedo))
        walls.append(perf_counter() - began)
    speedo.sample()
    peaks = peak_pass(plan, gate)
    records = [r for p in by_pass for r in p]
    scaled = at_reference(records, speedo)
    metrics, detail = call_metrics(scaled)
    metrics["peak_mb"] = max(peaks.values()) / 1e6
    wall_metrics = call_metrics(wall(records))[0]
    wall_metrics["peak_mb"] = metrics["peak_mb"]
    detail.update(
        wall_metrics=wall_metrics,
        passes=len(walls),
        peak_leg=max(peaks, key=peaks.get),
        peak_bytes_by_leg=peaks,
        leg_ms_p50=leg_medians(scaled),
        pass_wall_ms=[[s and s * 1e3 for _, _, s in p] for p in by_pass],
    )
    return metrics, detail


def leg_medians(samples):
    by_leg = {}
    for leg, s in samples:
        if s is not None:
            by_leg.setdefault(leg, []).append(s)
    return {leg: statistics.median(v) * 1e3 for leg, v in sorted(by_leg.items())}


def leg_ratio(samples, num, den):
    by_leg = leg_medians(samples)
    if num in by_leg and den in by_leg:
        return by_leg[num] / by_leg[den]
    return 0.0


# Power of the speed factor that brings a figure in this unit to the
# reference speed: times scale with it, rates with its inverse.
SPEED_POWER = {"s": 1, "ms": 1, "1/s": -1, "1/ms": -1, "1/us": -1}


def at_reference_speed(metrics, factor):
    """Scale a traced pass's times and rates by its speed factor."""
    return {k: v * factor ** SPEED_POWER.get(LAYER_UNITS[k], 0)
            for k, v in metrics.items()}


def per_layer(gate, speedo, seconds, workload, seed, spans):
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    tracer = spans.Tracer()
    tracer.solve_id = "setup"
    build_start = perf_counter()
    with tracer.installed():
        plan = workload.build(seed)
    build_end = perf_counter()
    speedo.sample()
    generate_ms = spans.layer_totals(tracer.spans)[0]["generate"] / 1e6

    untraced, traced, per_pass, walls = [], [], [], []
    start = perf_counter()
    while passes_fit(start, walls, seconds):
        began = perf_counter()
        order = (False, True) if len(walls) % 2 == 0 else (True, False)
        for with_spans in order:
            if not with_spans:
                untraced.append(run_pass(plan, gate, speedo))
                continue
            lo, recount_before = len(tracer.spans), gate.recount_ns
            with tracer.installed():
                traced.append(run_pass(plan, gate, speedo, tracer, len(traced)))
            per_pass.append((lo, len(tracer.spans), gate.recount_ns - recount_before))
        walls.append(perf_counter() - began)
    speedo.sample()
    peaks = peak_pass(plan, gate)

    flat_untraced = at_reference([r for p in untraced for r in p], speedo)
    untraced_s = sum(solve_seconds(flat_untraced))
    rows, wall_rows, traced_s = [], [], 0.0
    for (lo, hi, recount_ns), records in zip(per_pass, traced):
        row = layer_row(spans.layer_totals(tracer.spans, lo, hi), recount_ns)
        pass_s = sum(solve_seconds(at_reference(records, speedo)))
        traced_s += pass_s
        wall_rows.append(row)
        rows.append(at_reference_speed(row, pass_s / sum(solve_seconds(wall(records)))))
    fixed = {
        "dc.full_over_count": leg_ratio(flat_untraced, "dc.full", "dc.count"),
        "qdc.full_over_count": leg_ratio(flat_untraced, "qdc.full", "qdc.count"),
        "dc.peak_mb": layer_peak(peaks, "dc") / 1e6,
        "qdc.peak_mb": layer_peak(peaks, "qdc") / 1e6,
        "generate.self_ms": generate_ms * speedo.factor(build_start, build_end),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics.update(fixed)
    wall_metrics = {key: statistics.median(row[key] for row in wall_rows)
                    for key in wall_rows[0]}
    wall_metrics.update(fixed, **{"generate.self_ms": generate_ms})
    detail = {"wall_metrics": wall_metrics,
              "traced_passes": len(traced), "untraced_passes": len(untraced),
              "spans": len(tracer.spans),
              "leg_ms_p50_untraced": leg_medians(flat_untraced)}
    return plan, metrics, detail, tracer


def layer_peak(peaks, layer):
    return max((b for leg, b in peaks.items() if leg.split(".")[0] == layer),
               default=0)


def _per(num, den):
    return num / den if den else 0.0


def layer_row(totals, recount_ns):
    self_ns, calls, counters, inner = totals
    ms = {layer: ns / 1e6 for layer, ns in self_ns.items()}

    def count(layer, key):
        return counters.get((layer, key), 0)

    sv_searches = count("qmf", "sv_searches")
    return {
        "matrix.calls": calls["matrix"],
        "matrix.self_ms": ms["matrix"],
        "dp.self_ms": ms["dp"],
        "dp.recurrence_evals": count("dp", "recurrence_evals"),
        "dp.evals_per_us": _per(count("dp", "recurrence_evals"), ms["dp"] * 1e3),
        "dp.bytes_computed": count("dp", "bytes_computed"),
        "qdp.self_ms": ms["qdp"],
        "qdp.classical_evals": count("qdp", "recurrence_evals"),
        "qdp.table_reads": count("qdp", "table_reads"),
        "qdp.oracle_calls": count("qdp", "oracle_calls"),
        "dc.self_ms": ms["dc"],
        "dc.nodes": count("dc", "nodes"),
        "dc.nodes_per_ms": _per(count("dc", "nodes"), ms["dc"]),
        "dc.modelled_peak_bytes": count("dc", "modelled_peak_bytes"),
        "qdc.self_ms": ms["qdc"],
        "qdc.nodes": count("qdc", "nodes"),
        "qdc.oracle_calls": count("qdc", "oracle_calls"),
        "qdc.modelled_peak_bytes": count("qdc", "modelled_peak_bytes"),
        "qmf.calls": calls["qmf"],
        "qmf.domain_sum": count("qmf", "domain"),
        "qmf.self_ms": ms["qmf"],
        "qmf.sv_searches": sv_searches,
        "qmf.sv_misses": count("qmf", "sv_misses"),
        "qmf.sv_hit_ratio": _per(sv_searches - count("qmf", "sv_misses"),
                                 sv_searches),
        "qmf.sv_oracle_calls": count("qmf", "sv_oracle_calls"),
        "oracle.calls": calls["oracle"],
        "oracle.self_ms": ms["oracle"],
        "oracle.orderings_scanned": count("oracle", "orderings_scanned"),
        "oracle.orderings_per_us": _per(count("oracle", "orderings_scanned"),
                                        ms["oracle"] * 1e3),
        "extensions.self_ms": ms["extensions"],
        "extensions.inner_solves": inner,
        "bigraph.recount_ms": recount_ns / 1e6,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD's commit, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(numpy):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oscmlab" / "__init__.py").is_file():
        print(f"perfbench: no oscmlab sources at {SRC}", file=sys.stderr)
        return 2
    speedo = speed.Speedometer()
    speedo.sample()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import oscmlab
    if Path(oscmlab.__file__).resolve().parent != SRC / "oscmlab":
        print(f"perfbench: imported oscmlab from {oscmlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import gate as gate_mod
    import spans
    import workloads
    import_s = perf_counter() - start
    speedo.sample()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    speedo.scaled = workload.scaled
    gate = gate_mod.Gate()
    tracer = None
    if args.trace:
        plan, metrics, detail, tracer = per_layer(gate, speedo, args.seconds,
                                                  workload, args.seed, spans)
        units = LAYER_UNITS
    else:
        plan, builds = setup(workload, args.seed, speedo)
        calls, detail = end_to_end(plan, gate, speedo, args.seconds)
        metrics = {"setup_s": speedo.scale(start, import_s) + statistics.median(
            speedo.scale(*build) for build in builds), **calls}
        detail["wall_metrics"] = {"setup_s": import_s + statistics.median(
            s for _, s in builds), **detail["wall_metrics"]}
        detail["setup_build_s"] = [s for _, s in builds]
        units = END_TO_END_UNITS
    loops = speedo.loop_seconds
    detail.update(import_s=import_s, loop_s=loops,
                  median_speed_factor=speed.REFERENCE_S / statistics.median(loops))

    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": provenance(numpy),
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed, "error_rate": gate.error_rate,
        "failures": gate.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail, "notes": plan.notes,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"commit={report['environment']['git_commit']}")
    if workload.scaled:
        print(f"  times at reference speed (speed.py); median speed factor "
              f"{detail['median_speed_factor']:.4f}, wall times in brackets")
    else:
        print("  times are wall times (this workload is not scaled, speed.py)")
    for key, value in metrics.items():
        wall = (f"   (wall {detail['wall_metrics'][key]:.6g})"
                if units[key] in SPEED_POWER else "")
        print(f"  {key:<26} {value:.6g} {units[key]}{wall}")
    print(f"  {'error_rate':<26} {gate.error_rate:.6g} failed/attempted "
          f"({gate.failed}/{gate.attempted})")
    for leg, n_v, reason in gate.failures:
        print(f"  FAILED {leg} n_v={n_v}: {reason}")
    for note in plan.notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": report["correct"], "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": report["metrics"]}))
    return 0


LAYER_UNITS = {
    "matrix.calls": "count", "matrix.self_ms": "ms",
    "dp.self_ms": "ms", "dp.recurrence_evals": "count", "dp.evals_per_us": "1/us",
    "dp.bytes_computed": "B",
    "qdp.self_ms": "ms", "qdp.classical_evals": "count",
    "qdp.table_reads": "count", "qdp.oracle_calls": "count",
    "dc.self_ms": "ms", "dc.nodes": "count", "dc.nodes_per_ms": "1/ms",
    "dc.full_over_count": "ratio", "dc.modelled_peak_bytes": "B", "dc.peak_mb": "MB",
    "qdc.self_ms": "ms", "qdc.nodes": "count", "qdc.oracle_calls": "count",
    "qdc.full_over_count": "ratio", "qdc.modelled_peak_bytes": "B",
    "qdc.peak_mb": "MB",
    "qmf.calls": "count", "qmf.domain_sum": "count", "qmf.self_ms": "ms",
    "qmf.sv_searches": "count", "qmf.sv_misses": "count",
    "qmf.sv_hit_ratio": "ratio", "qmf.sv_oracle_calls": "count",
    "oracle.calls": "count", "oracle.self_ms": "ms",
    "oracle.orderings_scanned": "count", "oracle.orderings_per_us": "1/us",
    "extensions.self_ms": "ms", "extensions.inner_solves": "count",
    "generate.self_ms": "ms", "bigraph.recount_ms": "ms",
    "trace.overhead_frac": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
