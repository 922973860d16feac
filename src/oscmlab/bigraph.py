"""Two-layer drawings: instances, orderings, and crossing counts.

An instance is a bipartite graph drawn on two horizontal lines: the fixed
layer U (order pinned to the vertex index) and the free layer V (order
chosen by a solver). Edges are straight lines. Two edges (u1,v1), (u2,v2)
cross iff u1 != u2, v1 != v2 and the endpoint orders disagree between the
layers. That definition lives in one place, _edge_pairs, which enumerates
the pairs that can cross; every counter here and the brute-force oracle
(oracle.py) count from it, independently of the crossing matrix in
matrix.py that the solvers use.

Instances are immutable; every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceParseError


@dataclass(frozen=True)
class BipartiteInstance:
    """A two-layer instance with optional edge colors.

    n_colors is the number of color classes h; plain (uncolored) instances
    use h=1 with every edge in class 0. Duplicate (u, v) edges within one
    color class are rejected; the same pair may appear in different classes.
    """

    n_u: int
    n_v: int
    edges: tuple = ()
    colors: tuple = ()
    n_colors: int = 1

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if not self.colors:
            object.__setattr__(self, "colors", (0,) * len(self.edges))
        else:
            object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if self.n_u < 0 or self.n_v < 0:
            raise ValueError("layer sizes must be non-negative")
        if self.n_colors < 1:
            raise ValueError("n_colors must be >= 1")
        if len(self.colors) != len(self.edges):
            raise ValueError("colors must match edges one-to-one")
        seen = set()
        for (u, v), c in zip(self.edges, self.colors):
            if not (0 <= u < self.n_u):
                raise ValueError(f"edge endpoint u={u} out of range")
            if not (0 <= v < self.n_v):
                raise ValueError(f"edge endpoint v={v} out of range")
            if not (0 <= c < self.n_colors):
                raise ValueError(f"edge color {c} out of range")
            if (u, v, c) in seen:
                raise ValueError(f"duplicate edge ({u},{v}) in color class {c}")
            seen.add((u, v, c))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def uncolored(self) -> "BipartiteInstance":
        """Copy with colors stripped (all edges in class 0).

        Raises ValueError when two color classes share an edge, since the
        merged instance would need parallel edges, which are unsupported.
        """
        pairs = set()
        for e in self.edges:
            if e in pairs:
                raise ValueError(
                    f"edge {e} appears in several color classes; cannot strip colors"
                )
            pairs.add(e)
        return BipartiteInstance(self.n_u, self.n_v, self.edges, None, 1)


@dataclass(frozen=True)
class Solution:
    """An ordering of the free layer and its crossing count.

    ordering is None for count-only runs that skip reconstruction.
    """

    ordering: tuple | None
    crossings: int


def check_ordering(n_v: int, ordering) -> tuple:
    """Validate that ``ordering`` is a permutation of 0..n_v-1."""
    order = tuple(int(v) for v in ordering)
    if sorted(order) != list(range(n_v)):
        raise ValueError(f"not a permutation of 0..{n_v - 1}: {order}")
    return order


def _positions(n_v, ordering):
    pos = [0] * n_v
    for i, v in enumerate(ordering):
        pos[v] = i
    return pos


def _edge_pairs(inst: BipartiteInstance, same_color=False, v_subset=None):
    """Every edge pair that crosses under some orders of the two layers.

    Those are the pairs with distinct endpoints on both layers; with
    ``same_color``, only pairs within one color class, and with
    ``v_subset``, only edges whose free-layer endpoint lies in it. Yields
    (u1, v1, u2, v2), the earlier edge first. This is the one place that
    decides which pairs count: the counters below and the brute-force
    oracle both read it.
    """
    edges = [(u, v, c) for (u, v), c in zip(inst.edges, inst.colors)
             if v_subset is None or v in v_subset]
    for i, (u1, v1, c1) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            u2, v2, c2 = edges[j]
            if u1 != u2 and v1 != v2 and (c1 == c2 or not same_color):
                yield u1, v1, u2, v2


def _count(inst, upos, ordering, same_color=False, v_subset=None) -> int:
    """Pairs from _edge_pairs whose endpoint orders disagree between the
    fixed-layer positions ``upos`` and the free-layer ``ordering``."""
    vpos = _positions(inst.n_v, check_ordering(inst.n_v, ordering))
    return sum((upos[u1] < upos[u2]) != (vpos[v1] < vpos[v2])
               for u1, v1, u2, v2 in _edge_pairs(inst, same_color, v_subset))


def count_crossings(inst: BipartiteInstance, ordering) -> int:
    """Crossings of the drawing under ``ordering``, ignoring colors.

    Direct pair enumeration over the crossing definition; this is the
    reference route that the matrix-based count in solvers is tested against.
    """
    return _count(inst, range(inst.n_u), ordering)


def count_same_color_crossings(inst: BipartiteInstance, ordering) -> int:
    """Crossings between same-colored edge pairs only (colored objective)."""
    return _count(inst, range(inst.n_u), ordering, same_color=True)


def count_two_level_crossings(inst: BipartiteInstance, u_ordering, v_ordering) -> int:
    """Crossings when both layers are permuted (two-layer variant)."""
    upos = _positions(inst.n_u, check_ordering(inst.n_u, u_ordering))
    return _count(inst, upos, v_ordering)


def count_restricted_crossings(inst: BipartiteInstance, ordering, v_subset) -> int:
    """Crossings among edges whose free-layer endpoint lies in ``v_subset``.

    v_subset is an iterable of V vertices. Used to evaluate the crossing
    count of an edge-subset drawing under a full ordering.
    """
    return _count(inst, range(inst.n_u), ordering, v_subset=set(v_subset))


# ---------------------------------------------------------------------------
# Instance text format
#
#   header:  n_U n_V m h
#   m lines: u v [color]      (color required meaningful only when h > 1)
#
# '#' starts a comment; blank lines are skipped; tokens are whitespace
# separated. Emission is canonical: color column present only when h > 1.
# ---------------------------------------------------------------------------


def parse_instance_text(text: str) -> BipartiteInstance:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise InstanceParseError("empty instance (no header line)")
    lineno, header = rows[0]
    if len(header) != 4:
        raise InstanceParseError(
            f"header needs 4 fields 'n_U n_V m h', got {len(header)}", lineno
        )
    try:
        n_u, n_v, m, h = (int(tok) for tok in header)
    except ValueError:
        raise InstanceParseError(f"non-integer header field in {header}", lineno)
    if m < 0 or h < 1:
        raise InstanceParseError("need m >= 0 and h >= 1", lineno)
    if len(rows) - 1 != m:
        raise InstanceParseError(
            f"header promises {m} edges but {len(rows) - 1} edge lines follow", lineno
        )
    edges, colors = [], []
    for lineno, toks in rows[1:]:
        if len(toks) not in (2, 3):
            raise InstanceParseError(f"edge line needs 'u v [color]', got {toks}", lineno)
        try:
            vals = [int(tok) for tok in toks]
        except ValueError:
            raise InstanceParseError(f"non-integer edge field in {toks}", lineno)
        edges.append((vals[0], vals[1]))
        colors.append(vals[2] if len(vals) == 3 else 0)
    try:
        return BipartiteInstance(n_u, n_v, tuple(edges), tuple(colors), h)
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from exc


def format_instance(inst: BipartiteInstance) -> str:
    lines = [f"{inst.n_u} {inst.n_v} {inst.n_edges} {inst.n_colors}"]
    for (u, v), c in zip(inst.edges, inst.colors):
        lines.append(f"{u} {v} {c}" if inst.n_colors > 1 else f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_instance(path) -> BipartiteInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def save_instance(inst: BipartiteInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst))
