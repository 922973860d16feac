"""Cost ledgers: deterministic operation counts attached to solver runs.

Counters only ever increase during a run. Wall-clock time is never recorded
here; ledgers exist so that cost claims can be checked exactly against
closed-form models.
"""

from dataclasses import dataclass, field


_COUNTERS = ("recurrence_evals", "gamma_evals", "oracle_calls", "table_reads", "nodes")

# Fixed per-algorithm schemas after "algo": (output key, counter it reads),
# where a counter of None reads the meta field of that key.
_SCHEMAS = {
    "dp": (("n_v", None), ("recurrence_evals", "recurrence_evals"),
           ("gamma_evals", "gamma_evals")),
    "dc": (("nodes", "nodes"), ("gamma_evals", "gamma_evals")),
    "qdp": (("alpha", None), ("classical_evals", "recurrence_evals"),
            ("oracle_calls", "oracle_calls"), ("table_reads", "table_reads")),
    "qdc": (("oracle_calls", "oracle_calls"), ("nodes", "nodes")),
    "tlcm": (("enumerated_side", None), ("inner", None),
             ("classical_evals", "recurrence_evals"),
             ("oracle_calls", "oracle_calls")),
}


@dataclass
class CostLedger:
    algo: str
    recurrence_evals: int = 0
    gamma_evals: int = 0
    oracle_calls: int = 0
    table_reads: int = 0
    nodes: int = 0
    meta: dict = field(default_factory=dict)

    def json_dict(self) -> dict:
        """Emit the fixed per-algorithm JSON schema.

        Algorithms without a schema (brute force) emit their non-zero
        counters followed by all of meta.
        """
        out = {"algo": self.algo}
        schema = _SCHEMAS.get(self.algo)
        if schema is None:
            out.update((key, getattr(self, key)) for key in _COUNTERS
                       if getattr(self, key))
            out.update(self.meta)
            return out
        for key, counter in schema:
            out[key] = self.meta.get(key) if counter is None else getattr(self, counter)
        return out
