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

The enumeration runs as generated code, one kernel per problem shape
(number of rows, dimension), built on the first solve of that shape and
cached, as CVXGEN does for its solvers (Mattingley and Boyd, Optim. Eng.
13, 2012). A kernel holds every scalar in a local and spells out each
active set's LDL' factor, multipliers and checks, with no loop over
subsets or rows. It performs the same float operations in the same order
as the generic loop it replaces (kept as reference_solve_qp in the test
oracles), so its solutions are bit-identical to that loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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


def _sum(terms):
    """Source for sum(terms) as the generic solver computed it: the builtin
    sum, from int 0. Up to two terms it is spelled out, as 0.0 + t0 + t1
    rounds exactly like sum on every Python version; longer sums stay calls,
    because sum adds compensated since Python 3.12."""
    if not terms:
        return "0"
    if len(terms) > 2:
        return f"sum(({', '.join(terms)},))"
    return "(0.0 + " + " + ".join(terms) + ")"


def _dot(u, v):
    return _sum([f"{a} * {b}" for a, b in zip(u, v)])


def _chain(first, op, terms):
    """first op t0 op t1 ...: an in-place accumulation, one term at a time."""
    return f" {op} ".join([first, *terms])


def _ldl_lines(subset, g):
    """LDL' factor of gram[S, S] for active set S, as (lines, m, d): the
    locals m[i][j] = L_ij and d[i] hold the factor.
    Every pivot is checked right after it is formed, and a pivot below
    RANK_TOL times its diagonal entry (rows of A_S dependent to rounding)
    skips S before anything divides by it.
    """
    lines = []
    m, d = [], []
    for i, si in enumerate(subset):
        row = [f"m{i}_{j}" for j in range(i)]
        sums = []
        for j in range(i):
            s = g(si, subset[j])
            if j:
                terms = [f"{row[k]} * {m[j][k]} * {d[k]}" for k in range(j)]
                lines.append(f"s{j} = " + _chain(s, "-", terms))
                s = f"s{j}"
            lines.append(f"{row[j]} = {s} / {d[j]}")
            sums.append(s)
        pivot = g(si, si)
        if i:
            terms = [f"{row[j]} * {sums[j]}" for j in range(i)]
            lines.append(f"d{i} = " + _chain(pivot, "-", terms))
            pivot = f"d{i}"
        lines.append(f"if {pivot} <= {RANK_TOL!r} * {g(si, si)}: break")
        m.append(row)
        d.append(pivot)
    return lines, m, d


def _ldl_solve_lines(m, d, rhs, out):
    """Solve LDL' x = rhs into the locals out[i]: forward over L, then
    x_i / d_i minus the later x_k, in the order of the generic solve."""
    lines = []
    forward = []
    for i, r in enumerate(rhs):
        if i:
            terms = [f"{m[i][k]} * {forward[k]}" for k in range(i)]
            lines.append(f"f{i} = " + _chain(r, "-", terms))
            r = f"f{i}"
        forward.append(r)
    for i in reversed(range(len(d))):
        later = [f"{m[k][i]} * {out[k]}" for k in range(i + 1, len(d))]
        lines.append(f"{out[i]} = " + _chain(f"{forward[i]} / {d[i]}", "-", later))
    return lines


@lru_cache(maxsize=32)
def _kernel(n_con, dim):
    """solve_qp for problems of one shape, as one generated function.

    kernel(R, Q, c, A, b) unpacks its data into locals and repeats the
    generic active-set enumeration's float operations in their order: the
    coordinates y, v_i, the Gram matrix and gap; then, for every active set
    in combinations order, the LDL' pivots with their rank check, the
    multipliers and their sign check, the screening of the other rows, the
    refinement step, z = -R'w, the feasibility check of every row on z and
    the objective in QpProblem.objective's order. Each active set is a
    `while True` block that a failed check leaves by `break`. The tolerances
    are baked in as literals.
    """
    rows, cols = range(n_con), range(dim)
    R = [[f"r{i}_{j}" for j in range(i + 1)] for i in cols]
    Q = [[f"q{i}_{j}" for j in cols] for i in cols]
    c = [f"c{j}" for j in cols]
    A = [[f"a{i}_{j}" for j in cols] for i in rows]
    b = [f"b{i}" for i in rows]
    y = [f"y{j}" for j in cols]
    v = [[f"v{i}_{j}" for j in cols] for i in rows]
    e = [f"e{i}" for i in rows]

    def g(i, j):
        return f"g{min(i, j)}_{max(i, j)}"

    def items(names):
        return "".join(f"{name}, " for name in names)

    def tup(names):
        return f"({items(names)})"

    def unpack(names, data):
        return f"{items(names)}= {data}"

    body = []
    if dim:
        body += [
            unpack(map(tup, R), "R"),
            unpack(map(tup, Q), "Q"),
            unpack(c, "c"),
        ]
        if n_con:
            body.append(unpack(map(tup, A), "A"))
    if n_con:
        body.append(unpack(b, "b"))
    # In the coordinates of R: y = R c and v_i = R a_i, so z0 = -R'y,
    # (A Q^-1 A')_ij = v_i . v_j and gap_i = (A z0 - b)_i = -v_i . y - b_i.
    body += [f"{y[k]} = {_dot(R[k], c)}" for k in cols]
    body += [f"{v[i][k]} = {_dot(R[k], A[i])}" for i in rows for k in cols]
    body += [f"{g(i, j)} = {_dot(v[i], v[j])}" for i in rows for j in rows[i:]]
    body += [f"{e[i]} = -{_dot(v[i], y)} - {b[i]}" for i in rows]

    for size in range(min(dim, n_con) + 1):
        for subset in combinations(rows, size):
            lam = [f"l{t}" for t in range(size)]
            block = []
            if subset:
                lines, m, d = _ldl_lines(subset, g)
                block += lines
                block += _ldl_solve_lines(m, d, [e[s] for s in subset], lam)
                # min(lam) < -MULTIPLIER_TOL, with min's left-to-right scan.
                if size > 1:
                    block.append(f"lo = {lam[0]}")
                    block += [f"if {l} < lo: lo = {l}" for l in lam[1:]]
                lowest = "lo" if size > 1 else lam[0]
                block.append(f"if {lowest} < {-MULTIPLIER_TOL!r}: break")
            # At the candidate of S, A z - b = gap - (A Q^-1 A_S') lam: the
            # rows outside S are screened with it before z is formed.
            for i in rows:
                if i not in subset:
                    terms = [f"{g(i, s)} * {l}" for s, l in zip(subset, lam)]
                    block.append(f"if {_chain(e[i], '-', terms)} > {FEASIBILITY_TOL!r}: break")
            # w = y + sum lam_s v_s, and z = -R'w. The multiplier terms of w
            # cancel down to the size of Qz, which costs digits when Q is
            # badly scaled; one refinement step with the same factor restores
            # v_s . w = -b_s to rounding.
            w = y
            if subset:
                w = [f"w{j}" for j in cols]
                for j in cols:
                    terms = [f"{l} * {v[s][j]}" for s, l in zip(subset, lam)]
                    block.append(f"{w[j]} = " + _chain(y[j], "+", terms))
                delta = [f"k{t}" for t in range(size)]
                rhs = [f"h{t}" for t in range(size)]
                block += [f"{rhs[t]} = -{_dot(v[s], w)} - {b[s]}" for t, s in enumerate(subset)]
                block += _ldl_solve_lines(m, d, rhs, delta)
                block += [f"{l} = {l} + {k}" for l, k in zip(lam, delta)]
                for j in cols:
                    terms = [f"{k} * {v[s][j]}" for s, k in zip(subset, delta)]
                    block.append(f"{w[j]} = " + _chain(w[j], "+", terms))
            z = [f"z{j}" for j in cols]
            for j in cols:
                terms = [f"{R[i][j]} * {w[i]}" for i in range(j, dim)]
                block.append(f"{z[j]} = " + _chain("0.0", "-", terms))
            block += [
                f"if {_dot(A[i], z)} > {b[i]} + {FEASIBILITY_TOL!r}: break" for i in rows
            ]
            terms = [f"{z[i]} * {Q[i][j]} * {z[j]}" for i in cols for j in cols]
            quad = _chain("0.0", "+", terms)
            multipliers = ["0.0"] * n_con
            for s, l in zip(subset, lam):
                multipliers[s] = l
            block.append(
                f"return QpSolution({tup(z)}, {subset!r}, 0.5 * ({quad}) + {_dot(c, z)},"
                f" 'optimal', {tup(multipliers)})"
            )
            body += ["while True:", *(f"    {line}" for line in block)]
    body.append("return QpSolution((), (), inf, 'infeasible', ())")
    source = "def kernel(R, Q, c, A, b):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"QpSolution": QpSolution, "inf": math.inf}
    exec(source, namespace)
    return namespace["kernel"]


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
    b = problem.b
    return _kernel(len(b), len(problem.c))(R, problem.Q, problem.c, problem.A, b)
