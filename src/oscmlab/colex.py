"""The colex subset format that dp, qdp and dc share.

A layer holds every s-subset of range(n) by its rank in the combinatorial
number system (colex order): the subset x_0 < x_1 < ... < x_{s-1} has rank

    sum_i C(x_i, i + 1),

so reading a smaller subset's value is an array gather. The subsets whose
top member is x take ranks C(x, s) on, and their rests, each subset
without x, are the first C(x, s - 1) subsets of the layer below, in
order: a prefix of it. So a layer grows from the one below, one top
member at a time (columns, members).

A split of an s-subset into a k-subset W and the rest is given by member
positions. When the W sides run over the k-combinations of range(s) in
lexicographic order, their complements run over the (s - k)-combinations
in reverse lexicographic order; and mapping x to s - 1 - x turns colex
order with ascending members into reverse lexicographic order with
descending members. So both sides' rows are member tables read backwards
(split_rows).

Tables are built and cached on first use; nothing is built at import.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np


@lru_cache(maxsize=16)
def binomials(n):
    """C(x, i) at [i, x] for 0 <= i <= n + 1 and 0 <= x < n."""
    return np.array([[comb(x, i) for x in range(n)] for i in range(n + 2)],
                    dtype=np.int64)


def rank(members) -> int:
    """Colex rank of a subset given by its ascending members."""
    return sum(comb(x, i + 1) for i, x in enumerate(members))


def key_dtype(bound, width):
    """Dtype of the keys value * width + j for values in 0..bound and j in
    0..width - 1: int32 while (bound + 1) * width < 2^31, int64 beyond."""
    return np.int32 if (bound + 1) * width < 2 ** 31 else np.int64


def index_dtype(size):
    """The dtype of index rows into size entries: int16 where all fit."""
    return np.int16 if size <= 2 ** 15 else np.int32


class Layer(NamedTuple):
    """Optimum and winning candidate of every subset of one size, by rank.
    The candidate is the position of the last vertex in a table layer and
    the index of the split in one of qdp's search layers."""

    opt: np.ndarray
    choice: np.ndarray


def columns(n, s, first):
    """Per column of the s-subsets of range(n) whose top member x is below
    first, a prefix of the layer in rank order: x, the rank of the subset
    without x in the layer below, and C(x, s - 1), which adding x adds to
    the rank of the subset without each earlier member."""
    binom = binomials(n)
    top = np.repeat(np.arange(first), binom[s - 1, :first])
    rest = np.arange(len(top)) - binom[s].take(top)
    return top, rest, binom[s - 1].take(top)


def peel(choice, members):
    """Optimal order of a table subset, popped from the list of its
    ascending members; choice[s][rank] is the position of an s-subset's
    last vertex."""
    out = []
    while members:
        out.append(members.pop(choice[len(members)][rank(members)]))
    return out[::-1]


@lru_cache(maxsize=64)
def members(n, s):
    """Every s-subset of range(n) as a column of ascending members, column =
    rank: an (s, C(n, s)) int8 array.

    The subsets with top member x take columns C(x, s) on; the rest of each
    is one of the first C(x, s - 1) columns of the layer below, in order.
    Sizes 0 and n have one subset each, so qdp's top search of range(n)
    builds no layer above ceil(n/2).
    """
    if s in (0, n):
        table = np.arange(s, dtype=np.int8)[:, None]
        table.setflags(write=False)
        return table
    top, rest = columns(n, s, n)[:2]  # the rank offsets go at once
    top = top.astype(np.int8)
    table = np.vstack((members(n, s - 1).take(rest, axis=1), top))
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def split_rows(s, k):
    """Member positions of W and of the rest for every split of an s-subset,
    W running over the k-combinations of range(s) in lexicographic order
    (the rests in reverse lexicographic order): an (s, C(s, k)) int8 array,
    one column per split, whose row i < k holds the position of W's i-th
    member and row k + i that of the rest's i-th member."""
    rows = np.vstack(((s - 1 - members(s, k))[::-1, ::-1],
                      (s - 1 - members(s, s - k))[::-1]))
    rows.setflags(write=False)
    return rows
