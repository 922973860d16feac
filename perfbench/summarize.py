"""Fold the per-run reports in perfbench/out/ into one table of medians.

    python3 perfbench/summarize.py [report-dir] > summary.json

For every workload and metric: the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (quartile
distance over median) and the number of runs, plus the runs' seeds,
environments, error counts and notes. baseline.json in this directory was
made this way.
"""

import json
import statistics
import sys
from pathlib import Path


def fold(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "runs": len(values)}


def main(argv):
    out_dir = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent / "out"
    workloads, environment = {}, None
    for path in sorted(out_dir.glob("*-trace[01].json")):
        report = json.loads(path.read_text())
        entry = workloads.setdefault(report["workload"], {
            "why": report["why"], "notes": report["notes"], "seeds": {},
            "attempted": 0, "failed": 0, "metrics": {}, "tail_percentiles": []})
        kind = "per_layer" if report["trace"] else "end_to_end"
        entry["seeds"].setdefault(kind, []).append(report["seed"])
        entry["attempted"] += report["attempted"]
        entry["failed"] += report["failed"]
        if not report["trace"]:
            entry["tail_percentiles"].append(
                [report["detail"]["tail_percentile"], report["detail"]["solve_samples"]])
        for name, metric in report["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["metrics"][name]["values"].append(metric["value"])
        environment = report["environment"]
    for entry in workloads.values():
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        entry["metrics"] = {name: {"unit": m["unit"], **fold(m["values"])}
                            for name, m in entry["metrics"].items()}
    json.dump({"environment": environment, "workloads": workloads}, sys.stdout,
              indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
