"""Exact solver for small strictly convex quadratic programs.

Minimize 0.5 z'Qz + c'z subject to A z <= b, with Q symmetric positive
definite, dimension at most a handful and a handful of constraints. Active
sets of size up to dim(z) are enumerated in a fixed order and each
equality-constrained KKT system is solved exactly; because the objective is
strictly convex, the first candidate passing the multiplier-sign and
feasibility checks is the unique global minimizer, so no iterative tuning or
tie-breaking is ever needed and results are deterministic.

Each KKT system is solved in range-space (dual) form, as in Goldfarb and
Idnani (Math. Programming 27, 1983): with z0 = -Q^-1 c the unconstrained
minimizer, the multipliers of active set S solve the |S| x |S| system
(A_S Q^-1 A_S') lam = A_S z0 - b_S and then z = z0 - Q^-1 A_S' lam. Q is
validated and factored once per distinct value, since a controller hands
the solver the same quadratic at every step.

The enumeration is written once, as arithmetic and comparisons on floats
that may be those of a trace (see drcbf._trace): _prelude forms the data it
reads and _candidate tries one active set. solve_qp runs them on the
problem's plain floats. The compiled control step (drcbf.controller) and
the simulator's loop (drcbf.simulate) trace them instead (see _enumerate),
one block per active set, which a failed check leaves, with the factor of
Q as literals and the traced step's values as the data, so that the trace
folds the products with the factor's zeros, and an accepted active set
builds their result instead of a QpSolution. Either way the float
operations are those of the generic loop kept as reference_solve_qp in the
test oracles, in the same order, so the solutions are bit-identical to
that loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from ._trace import _Trace

__all__ = ["QpValidationError", "QpProblem", "QpSolution", "solve_qp"]

FEASIBILITY_TOL = 1e-9
MULTIPLIER_TOL = 1e-9
# An active set whose rows are dependent to this relative precision (an
# LDL' pivot of A_S Q^-1 A_S' below it times its diagonal entry) is skipped.
RANK_TOL = 1e-13


class QpValidationError(ValueError):
    """The problem data violates the solver's contract."""


def _as_vector(values, label):
    out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        raise QpValidationError(f"{label} has non-finite entries")
    return out


def _as_matrix(rows, label):
    out = tuple([_as_vector(row, label) for row in rows])
    if len(set(map(len, out))) > 1:
        raise QpValidationError(f"{label} has ragged rows")
    return out


@dataclass(frozen=True)
class QpProblem:
    """minimize 0.5 z'Qz + c'z  subject to  A z <= b."""

    Q: tuple
    c: tuple
    A: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "c", _as_vector(self.c, "c"))
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "b", _as_vector(self.b, "b"))
        dim = len(self.c)
        if len(self.Q) != dim or (self.Q and len(self.Q[0]) != dim):
            raise QpValidationError("Q shape does not match c")
        if len(self.A) != len(self.b):
            raise QpValidationError("A and b disagree on constraint count")
        if self.A and len(self.A[0]) != dim:
            raise QpValidationError("A width does not match decision dimension")

    @property
    def dim(self) -> int:
        return len(self.c)

    def objective(self, z) -> float:
        quad = 0.0
        for i, row in enumerate(self.Q):
            for j, qij in enumerate(row):
                quad += z[i] * qij * z[j]
        return 0.5 * quad + sum(ci * zi for ci, zi in zip(self.c, z))


@dataclass(frozen=True)
class QpSolution:
    """Minimizer with its active-set certificate.

    multipliers has one entry per constraint row, zero off the active set.
    status is "optimal" or "infeasible"; z is empty when infeasible.
    """

    z: tuple
    active_set: tuple
    objective: float
    status: str
    multipliers: tuple


@lru_cache(maxsize=64)
def _inverse_cholesky_factor(Q):
    """R = L^-1 for the Cholesky factor Q = LL', so that Q^-1 = R'R.

    Raises QpValidationError unless Q is symmetric positive definite (the
    Cholesky pivots double as the definiteness check). Failures are not
    cached, so every call with an invalid Q raises.
    """
    dim = len(Q)
    sym_scale = max((abs(v) for row in Q for v in row), default=0.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            if abs(Q[i][j] - Q[j][i]) > 1e-12 * max(sym_scale, 1.0):
                raise QpValidationError("Q is not symmetric")
    L = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            s = Q[i][j] - sum(L[i][k] * L[j][k] for k in range(j))
            if i == j:
                if s <= 0.0:
                    raise QpValidationError("Q is not positive definite")
                L[i][i] = math.sqrt(s)
            else:
                L[i][j] = s / L[j][j]
    R = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        R[i][i] = 1.0 / L[i][i]
        for j in range(i):
            R[i][j] = -sum(L[i][k] * R[k][j] for k in range(j, i)) * R[i][i]
    return tuple(tuple(row[: i + 1]) for i, row in enumerate(R))


def _traced_sum(trace, terms):
    """sum(terms) as the generic solver computed it, on traced floats and
    constants: the builtin sum, from int 0. Up to two terms it is spelled
    out, as 0.0 + t0 + t1 rounds exactly like sum on every Python version;
    longer sums stay calls, because sum adds compensated since Python 3.12."""
    if len(terms) > 2:
        return trace.call(f"sum(({'{}, ' * len(terms)}))", lambda *t: sum(t), terms)
    total = 0.0 if terms else 0
    for term in terms:
        total = total + term
    return total


def _dot(trace, u, w):
    return _traced_sum(trace, [a * b for a, b in zip(u, w)])


def _prelude(trace, R, c, A, b):
    """The data the enumeration reads, in the coordinates of R, recorded on
    trace as (y, v, gram, gap, floor, limit): y = R c and v_i = R a_i, so
    that z0 = -R'y, gram[i, j] = v_i . v_j = (A Q^-1 A')_ij for i <= j, the
    gaps gap_i = (A z0 - b)_i = -v_i . y - b_i, and the bounds of the
    checks, floor_i = RANK_TOL gram[i, i] for a pivot of row i and limit_i =
    b_i + FEASIBILITY_TOL for row i on z. R is the rows of the lower
    triangle."""
    rows = range(len(b))
    y = [_dot(trace, r, c) for r in R]
    v = [[_dot(trace, r, a) for r in R] for a in A]
    gram = {(i, j): _dot(trace, v[i], v[j]) for i in rows for j in rows[i:]}
    gap = [-_dot(trace, vi, y) - bi for vi, bi in zip(v, b)]
    floor = [RANK_TOL * gram[i, i] for i in rows]
    limit = [bi + FEASIBILITY_TOL for bi in b]
    return y, v, gram, gap, floor, limit


def _ldl(g, floor, subset):
    """LDL' factor of gram[S, S] for active set S, as (L as rows of its
    strictly lower part, the pivots d). Every pivot is checked right after
    it is formed: None where one is at or below its floor, RANK_TOL times
    its diagonal entry (rows of A_S dependent to rounding), before anything
    divides by it."""
    L, d = [], []
    for i, si in enumerate(subset):
        row, sums = [], []
        for j in range(i):
            s = g(si, subset[j])
            for k in range(j):
                s = s - row[k] * L[j][k] * d[k]
            row.append(s / d[j])
            sums.append(s)
        pivot = g(si, si)
        for j in range(i):
            pivot = pivot - row[j] * sums[j]
        if pivot <= floor[si]:
            return None
        L.append(row)
        d.append(pivot)
    return L, d


def _ldl_solve(factor, rhs):
    """Solve LDL' x = rhs: forward over L, then x_i / d_i minus the later
    x_k."""
    L, d = factor
    forward = []
    for i, r in enumerate(rhs):
        for k in range(i):
            r = r - L[i][k] * forward[k]
        forward.append(r)
    x = list(forward)
    for i in reversed(range(len(d))):
        x[i] = forward[i] / d[i]
        for k in range(i + 1, len(d)):
            x[i] = x[i] - L[k][i] * x[k]
    return x


def _candidate(trace, R, A, b, prelude, subset):
    """(z, multipliers) of active set subset, or None where a check fails:
    the LDL' pivots with their rank check, the multipliers and their sign
    check (min's left-to-right scan), the screening of the other rows, the
    refinement step, z = -R'w and the feasibility check of every row on z.
    Each check is a comparison whose truth fails the set."""
    y, v, gram, gap, floor, limit = prelude

    def g(i, j):
        return gram[min(i, j), max(i, j)]

    lam, factor = [], None
    if subset:
        factor = _ldl(g, floor, subset)
        if factor is None:
            return None
        lam = _ldl_solve(factor, [gap[s] for s in subset])
        lowest = lam[0] if len(lam) == 1 else trace.call(f"min({'{}, ' * len(lam)})", min, lam)
        if lowest < -MULTIPLIER_TOL:
            return None
    # At the candidate of S, A z - b = gap - (A Q^-1 A_S') lam: the rows
    # outside S are screened with it before z is formed.
    for i in range(len(b)):
        if i not in subset:
            value = gap[i]
            for s, l in zip(subset, lam):
                value = value - g(i, s) * l
            if value > FEASIBILITY_TOL:
                return None
    # w = y + sum lam_s v_s, and z = -R'w. The multiplier terms of w cancel
    # down to the size of Qz, which costs digits when Q is badly scaled; one
    # refinement step with the same factor restores v_s . w = -b_s to
    # rounding.
    w = list(y)
    if subset:
        for j in range(len(w)):
            for s, l in zip(subset, lam):
                w[j] = w[j] + l * v[s][j]
        delta = _ldl_solve(factor, [-_dot(trace, v[s], w) - b[s] for s in subset])
        lam = [l + k for l, k in zip(lam, delta)]
        for j in range(len(w)):
            for s, k in zip(subset, delta):
                w[j] = w[j] + k * v[s][j]
    z = []
    for j in range(len(w)):
        zj = 0.0
        for i in range(j, len(w)):
            zj = zj - R[i][j] * w[i]
        z.append(zj)
    for a, bound in zip(A, limit):
        if _dot(trace, a, z) > bound:
            return None
    return z, lam


def _active_sets(n_con, dim):
    """Every active set the enumeration tries, in its fixed order: by size,
    up to the smaller of n_con and dim, then in combinations order."""
    for size in range(min(n_con, dim) + 1):
        yield from combinations(range(n_con), size)


def _enumerate(trace, R, A, b, prelude, accept, header="while True:", decline=None):
    """Record the active-set enumeration on trace, after its prelude (see
    _prelude): for every active set in its fixed order, one block under
    header (see _Trace.block) holding _candidate's float operations, whose
    checks leave it. A set that passes them all runs the lines
    accept(z, subset, multipliers) returns, given its traced z and
    multipliers (the operations accept records belong to the block). The
    tolerances are literals.
    """
    for subset in _active_sets(len(b), len(R)):
        trace.block(header, decline)
        found = _candidate(trace, R, A, b, prelude, subset)
        trace.end_block(None if found is None else accept(found[0], subset, found[1]))


def solve_qp(problem: QpProblem) -> QpSolution:
    """Enumerate active sets in a fixed order and return the first KKT point.

    A candidate must satisfy primal feasibility to 1e-9 and have multipliers
    >= -1e-9 on its active set. With Q positive definite such a candidate is
    the unique global minimizer (the KKT conditions are sufficient), so the
    scan stops there; the enumeration order is fixed, which keeps the reported
    active-set certificate deterministic even in degenerate geometries.
    Active sets with linearly dependent rows are skipped. Status is
    "infeasible" when no candidate survives.
    """
    R = _inverse_cholesky_factor(problem.Q)
    A, b = problem.A, problem.b
    # With no traced operand, the trace's calls just apply their functions.
    trace = _Trace()
    prelude = _prelude(trace, R, problem.c, A, b)
    for subset in _active_sets(len(b), len(R)):
        found = _candidate(trace, R, A, b, prelude, subset)
        if found is not None:
            z, lam = found
            multipliers = [0.0] * len(b)
            for s, l in zip(subset, lam):
                multipliers[s] = l
            return QpSolution(tuple(z), subset, problem.objective(z), "optimal", tuple(multipliers))
    return QpSolution((), (), math.inf, "infeasible", ())
