"""Seeded random instances shared by the tests.

Every (u, v) pair draws one rng.random() per color class, in the order u,
v, class, and gets an edge in that class when the draw falls below p. The
seeded instances the tests and their golden files pin depend on that order.
"""

from oscmlab import BipartiteInstance


def random_instance(rng, n_u, n_v, p, h=1):
    """Instance on n_u fixed and n_v free vertices with h color classes."""
    edges, colors = [], []
    for u in range(n_u):
        for v in range(n_v):
            for c in range(h):
                if rng.random() < p:
                    edges.append((u, v))
                    colors.append(c)
    return BipartiteInstance(n_u, n_v, tuple(edges), tuple(colors), h)
