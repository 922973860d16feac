"""Two independent references for the subset layers that dp and qdp build,
shared by tests/test_dp.py and tests/test_qdp.py.

Both return {s: layer} for every table size s <= t and every search size
of plan ({s: k}, qdp's _search_plan; dp's layers take none), a layer's
subsets in colex order. A layer is (opt, sym, choice) per subset: a table
subset's choice is the position of its best last vertex, a search
subset's the index of its best split among the lexicographic
k-combinations of its member positions, and ties keep the first. sym,
sum_{v,u in S} c[v][u], is None for a table size that no search reads as
its W side. The matrix's diagonal must be 0, as a crossing matrix's is.
"""

from itertools import combinations

import numpy as np


def reference_layers(c, n, t, plan=None):
    """The layers as lists of (opt, sym, choice) tuples, by plain Python
    over itertools.combinations, for small n."""
    plan = plan or {}
    opt, sym, layers = {}, {}, {}
    for s in [*range(t + 1), *sorted(plan)]:
        layer = []
        for members in sorted(combinations(range(n), s), key=lambda m: m[::-1]):
            rho = [sum(c[v][u] for u in members) for v in members]
            if s in plan:
                vals = []
                for picks in combinations(range(s), plan[s]):
                    w = tuple(members[i] for i in picks)
                    rest = tuple(v for v in members if v not in w)
                    vals.append(opt[w] + opt[rest] - sym[w]
                                + sum(rho[i] for i in picks))
            else:
                vals = [opt[members[:j] + members[j + 1:]]
                        + sum(c[v][w] for v in members)
                        for j, w in enumerate(members)] or [0]
            opt[members], sym[members] = min(vals), sum(rho)
            read = s in plan or s in plan.values()
            layer.append((min(vals), sum(rho) if read else None,
                          vals.index(min(vals))))
        layers[s] = layer
    return layers


# Candidate values a chunk of enumerated_layers holds at once.
_CHUNK = 1 << 16


def enumerated_layers(c, n, t, plan=None):
    """The layers as int64 arrays (opt, sym, choice), from arrays indexed by
    the 2^n bitmasks of range(n), whose ascending order is colex order.

    A table subset with mask m takes each member x in turn as its last
    vertex, worth OPT(m - x) + sum_{v in m} c[v][x]; the column sums are
    one float64 product of the chunk's 0/1 member rows with c, exact while
    c.sum() < 2^53. A search subset walks its k-splits, each worth OPT(W)
    + OPT(rest) + gamma(W, rest) with gamma(W, R) = sum_{v in W, u in R}
    c[v][u], read from an (n, 2^n) table of row sums over masks, so plans
    are for small n (18 at most). Every layer is built in chunks of its
    subsets."""
    plan = plan or {}
    c = np.asarray(c, np.int64)
    assert c.sum() < 2 ** 53
    floats = c.astype(float)
    size = np.zeros(1 << n, np.int8)  # size[m] = |m|
    for b in range(n):
        size[1 << b:2 << b] = size[:1 << b] + 1
    if plan:
        # out_of[v, m] = sum_{u in m} c[v][u]
        out_of = np.zeros((n, 1 << n), np.int64)
        for b in range(n):
            out_of[:, 1 << b:2 << b] = out_of[:, :1 << b] + c[:, b:b + 1]
    opt = np.zeros(1 << n, np.int64)
    layers = {}
    for s in [*range(t + 1), *sorted(plan)]:
        at = np.flatnonzero(size == s)
        picks = (np.array(list(combinations(range(s), plan[s])))
                 if s in plan else None)
        cut = max(1, _CHUNK // (len(picks) if s in plan else n or 1))
        sym, choice = np.empty(len(at), np.int64), np.empty(len(at), np.int64)
        for lo in range(0, len(at), cut):
            m = at[lo:lo + cut, None]
            bits = m >> np.arange(n) & 1
            members = np.nonzero(bits)[1].reshape(len(m), s)
            into = np.take_along_axis(bits @ floats, members, axis=1)
            sym[lo:lo + cut] = into.sum(axis=1)
            if s in plan:
                w_members = members[:, picks]
                w = (1 << w_members).sum(axis=2)
                values = (opt[w] + opt[m - w]
                          + out_of[w_members, (m - w)[..., None]].sum(axis=2))
            elif s:
                values = opt[m - (1 << members)] + into.astype(np.int64)
            else:
                values = np.zeros((1, 1), np.int64)
            opt[m[:, 0]] = values.min(axis=1)
            choice[lo:lo + cut] = values.argmin(axis=1)
        read = s in plan or s in plan.values()
        layers[s] = (opt[at], sym if read else None, choice)
    return layers


def rows(layers):
    """{s: (opt, sym, choice) arrays} as reference_layers' lists of
    tuples, sym None where the arrays hold none."""
    return {s: list(zip(opt.tolist(),
                        [None] * len(opt) if sym is None else sym.tolist(),
                        choice.tolist()))
            for s, (opt, sym, choice) in layers.items()}
