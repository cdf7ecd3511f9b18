"""Arithmetic behind the benchmark's figures, kept free of the program so it
can be tested on its own: percentiles and the tail rule, the QP's subset
count, and self time of nested spans."""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

# Tail percentiles tried from the highest down; one is reported only when at
# least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99, 90, 75, 50)
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int):
    """Highest of TAIL_PERCENTILES with at least ten of n samples beyond it,
    or None when n is too small for any of them."""
    for q in TAIL_PERCENTILES:
        if n * (100 - q) >= TAIL_MIN_BEYOND * 100:
            return q
    return None


def tail(values) -> tuple:
    """(label, value) of the reported tail: the tail percentile when one
    qualifies, else the maximum."""
    q = tail_percentile(len(values))
    if q is None:
        return "max", max(values)
    return f"p{q}", percentile(values, q)


@functools.lru_cache(maxsize=16)
def subset_order(n_constraints: int, dim: int) -> dict:
    """1-based position of every active set in solve_qp's fixed enumeration:
    sizes 0..min(dim, n_constraints), each size in lexicographic order."""
    order = {}
    for size in range(min(dim, n_constraints) + 1):
        for subset in combinations(range(n_constraints), size):
            order[subset] = len(order) + 1
    return order


def subsets_tried(active_set, n_constraints: int, dim: int, optimal: bool = True) -> int:
    """Active sets solve_qp enumerates before it stops: the position of the
    returned one, or all of them when no candidate was optimal."""
    order = subset_order(n_constraints, dim)
    if not optimal:
        return len(order)
    return order[tuple(active_set)]


def self_times(starts, ends, parents) -> np.ndarray:
    """Per span, its duration minus the durations of its direct children.
    parents[i] is the index of span i's parent, or -1 for a root."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    durations = ends - starts
    out = durations.copy()
    nested = parents >= 0
    np.subtract.at(out, parents[nested], durations[nested])
    return out
