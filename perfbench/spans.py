"""Spans around the public functions each oscmlab layer exposes.

Tracer.installed() rebinds module attributes to timing wrappers and puts
the originals back on exit. The wrapped names are both the ones the
benchmark calls and the ones the solvers look up at run time (for example
oscmlab.dp.build_crossing_matrix, or oscmlab.extensions.solve_dp for the
inner solves of the two-layer solver). Spans stay in memory as
[name, start_ns, end_ns, parent index, solve id, counts]; counts come from
the returned ledgers and are taken after the span has closed.

A span's layer is its name up to the first dot. The value_fn that qdc
hands to qmf is timed as a qdc span, so qmf's self time is its search work
alone.
"""

from __future__ import annotations

import gzip
import importlib
from contextlib import contextmanager
from math import factorial
from time import perf_counter_ns

from workloads import dp_bytes_computed

SOLVER_LAYERS = ("dp", "dc", "qdp", "qdc")


def _ledger_counts(fields):
    def counts(args, out):
        ledger = out[1]
        got = {key: getattr(ledger, key) for key in fields}
        if "peak_state_bytes" in ledger.meta:
            got["modelled_peak_bytes"] = ledger.meta["peak_state_bytes"]
        return got
    return counts


def _dp_counts(args, out):
    return {"recurrence_evals": out[1].recurrence_evals,
            "bytes_computed": dp_bytes_computed(args[0])}


def _orderings(args, out):
    return {"orderings_scanned": factorial(args[0].n_v)}


def _tlcm_orderings(args, out):
    return {"orderings_scanned": factorial(args[0].n_u) * factorial(args[0].n_v)}


_SOLVER_COUNTS = {
    "dp": _dp_counts,
    "dc": _ledger_counts(("nodes",)),
    "qdp": _ledger_counts(("recurrence_evals", "table_reads", "oracle_calls")),
    "qdc": _ledger_counts(("nodes", "oracle_calls")),
}

# (module, attribute, span name, counts); the qmf rebinding is separate.
SPANNED = (
    [(f"oscmlab.{mod}", "build_crossing_matrix", "matrix.build", None)
     for mod in SOLVER_LAYERS]
    + [(f"oscmlab.{algo}", f"solve_{algo}", f"{algo}.solve", _SOLVER_COUNTS[algo])
       for algo in SOLVER_LAYERS]
    + [("oscmlab.extensions", f"solve_{algo}", f"{algo}.solve", _SOLVER_COUNTS[algo])
       for algo in SOLVER_LAYERS]
    + [("oscmlab.oracle", "solve_bruteforce", "oracle.plain", _orderings),
       ("oscmlab.oracle", "solve_osscm_bruteforce", "oracle.osscm", _orderings),
       ("oscmlab.oracle", "solve_tlcm_bruteforce", "oracle.tlcm", _tlcm_orderings),
       ("oscmlab.extensions", "solve_osscm", "extensions.osscm", None),
       ("oscmlab.extensions", "solve_tlcm", "extensions.tlcm", None),
       ("oscmlab.generate", "random_instance", "generate.random_instance", None)]
)
QMF_SITE = ("oscmlab.qdc", "qmf")

NAME, START, END, PARENT, SOLVE, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.solve_id = None
        self._stack = []

    def _open(self, name):
        span = [name, perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1, self.solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[COUNTS] = counts(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def wrap_qmf(self, fn):
        def traced(n_values, value_fn, cfg=None, rng=None):
            seen = []
            timed_value_fn = self.wrap("qdc.value_fn", value_fn)

            def recorded(i):
                value = timed_value_fn(i)
                seen.append(value)
                return value

            span = self._open("qmf.qmf")
            try:
                res = fn(n_values, recorded, cfg, rng)
            finally:
                self._close(span)
            sampled = cfg is not None and cfg.mode == "state_vector"
            span[COUNTS] = {
                "domain": n_values,
                "sv_searches": int(sampled),
                "sv_oracle_calls": res.oracle_calls if sampled else 0,
                "sv_misses": int(sampled and res.min_value != min(seen)),
            }
            return res
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every spanned attribute; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, name, counts in SPANNED:
                mod = importlib.import_module(modname)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), counts))
            mod = importlib.import_module(QMF_SITE[0])
            saved.append((mod, QMF_SITE[1], getattr(mod, QMF_SITE[1])))
            setattr(mod, QMF_SITE[1], self.wrap_qmf(getattr(mod, QMF_SITE[1])))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path):
        """Spans as gzip'd tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tsolve_id\tcounts\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


def self_ns(spans, lo=0, hi=None):
    """Self time of spans[lo:hi]: duration minus what child spans cover.

    The range must hold whole span trees (every child with its parent).
    """
    hi = len(spans) if hi is None else hi
    own = [s[END] - s[START] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            own[s[PARENT] - lo] -= s[END] - s[START]
    return own


LAYERS = ("matrix", "dp", "qdp", "dc", "qdc", "qmf", "oracle", "extensions",
          "generate")


def layer_totals(spans, lo=0, hi=None):
    """Self time per layer, span counts, and summed span counters of
    spans[lo:hi]; also how many solver spans an extensions span opened."""
    hi = len(spans) if hi is None else hi
    self_time = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    counters = {}
    inner_solves = 0
    for span, ns in zip(spans[lo:hi], self_ns(spans, lo, hi)):
        layer = span[NAME].split(".", 1)[0]
        self_time[layer] += ns
        if span[NAME] != "qdc.value_fn":
            calls[layer] += 1
        for key, value in (span[COUNTS] or {}).items():
            if key == "modelled_peak_bytes":
                prev = counters.get((layer, key), 0)
                counters[(layer, key)] = max(prev, value)
            else:
                counters[(layer, key)] = counters.get((layer, key), 0) + value
        if (layer in SOLVER_LAYERS and span[PARENT] >= 0
                and spans[span[PARENT]][NAME].startswith("extensions.")):
            inner_solves += 1
    return self_time, calls, counters, inner_solves
