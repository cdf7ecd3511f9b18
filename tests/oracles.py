"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different method than the
library code it checks: finite differences instead of forward-mode jets,
dense grid refinement instead of active-set enumeration, direct polynomial
expansion instead of iterated convolution, a steady-state equation
solved by bisection instead of a closed-loop simulation, and a cascade
derived by hand instead of by nested jets (the triple integrator, the one
plant here of input relative degree 3).

The three exceptions are reference_solve_qp, reference_evaluate and
reference_run: the QP solver's enumeration, the disturbance lookup and the
closed loop in their generic forms (loops over every active set with an LDL'
helper per subset; loops over channels and terms with a dispatch on each
term's type; a loop over control steps calling the library's lookup, control
step and RK4 step once each). The library generates one straight-line kernel
per problem shape, one lookup per realization and one loop per run, and each
must return exactly what its loop returns, bit for bit. reference_run calls
the names control_step, integrate_step and evaluate_signal of this module, so
that a test can patch them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from itertools import combinations
from operator import mul

import numpy as np

from drcbf.adaptive import build_adrcbf_chain
from drcbf.controller import ClfSpec, ControllerSpec, control_step
from drcbf.disturbances import (
    _BOUNDARY_NUDGE,
    Constant,
    DisturbanceError,
    SignalSpec,
    Sinusoid,
    UniformNoise,
    evaluate as evaluate_signal,
    realize,
)
from drcbf.fields import ControlAffineSystem, field_from_callable
from drcbf.poles import coefficients_from_poles
from drcbf.qp import (
    FEASIBILITY_TOL,
    MULTIPLIER_TOL,
    RANK_TOL,
    QpSolution,
    _inverse_cholesky_factor,
)
from drcbf.robust import DegenerateConstraintError, build_drcbf_chain, build_hocbf_chain
from drcbf.simulate import (
    IntegrationFault,
    SimulationConfig,
    TrajectoryLog,
    _check_initial_state,
    integrate_step,
    run_simulation,
)


def fd_gradient(func, x, rel_step: float = 1e-5):
    """Central-difference gradient of a scalar callable at point x.

    The step is scaled by each coordinate's magnitude so states of very
    different scales (gap ~100 m vs speed ~10 m/s) are probed comparably.
    """
    x = [float(v) for v in x]
    grad = []
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        grad.append((func(tuple(hi)) - func(tuple(lo))) / (2.0 * h))
    return tuple(grad)


def fd_directional(func, x, direction, rel_step: float = 1e-6):
    """Central-difference directional derivative along a fixed direction."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x))))
    h = rel_step * scale
    return (func(tuple(x + h * d)) - func(tuple(x - h * d))) / (2.0 * h)


def poly_from_roots(roots):
    """Monic polynomial coefficients (ascending powers) via direct expansion."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        shifted = [c * r for c in coeffs[1:]] + [0.0]
        coeffs = [a + b for a, b in zip(coeffs, shifted)]
    return tuple(coeffs[:-1])  # drop the leading 1 of the monic polynomial


def eval_monic(coeffs, lam):
    """Evaluate lambda^m + sum_j coeffs[j] lambda^j."""
    total = lam ** len(coeffs)
    for j, c in enumerate(coeffs):
        total += c * lam**j
    return total


def qp_objective(Q, c, z):
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    z = np.asarray(z, dtype=float)
    return 0.5 * z @ Q @ z + c @ z


def grid_refine_qp(
    Q,
    c,
    A,
    b,
    span: float = 12.0,
    pts: int = 15,
    target_width: float = 1e-9,
    max_rounds: int = 600,
    start=None,
):
    """Solve min 0.5 z'Qz + c'z  s.t.  Az <= b by pattern-search grid refinement.

    Each round evaluates a lattice around the running best point, plus that
    lattice orthogonally projected onto every well-conditioned intersection
    of constraint hyperplanes (single faces, edges, down to exact vertices),
    so descent can slide along any active-set subspace rather than zigzag
    between adjacent faces. The window recenters on improvement — with a
    step-doubling walk so long slides cost log rounds — and shrinks only
    when a round fails to improve; on a convex problem this converges to
    the global optimum. `start` seeds the search with a known feasible point
    so thin feasible regions are never missed. Returns the best point found,
    or None if no feasible point was ever seen.
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    dim = len(c)
    A = np.asarray(A, dtype=float).reshape(len(b), dim) if len(b) else None

    def feasible_rows(Z):
        if A is None or not len(b):
            return Z
        return Z[np.all(Z @ A.T <= b + 1e-12, axis=1)]

    # Projectors onto each intersection of up to dim-1 hyperplanes, plus the
    # exact points where dim independent hyperplanes meet.
    projectors = []
    vertices = []
    if A is not None:
        for size in range(1, min(dim, len(b)) + 1):
            for subset in itertools.combinations(range(len(b)), size):
                A_S = A[list(subset)]
                gram = A_S @ A_S.T
                if np.linalg.cond(gram) > 1e10:
                    continue  # nearly parallel faces: skip the sliver
                if size == dim:
                    vertices.append(np.linalg.solve(A_S, b[list(subset)]))
                else:
                    projectors.append(
                        (A_S, b[list(subset)], np.linalg.solve(gram, A_S))
                    )
    vertices = np.asarray(vertices, dtype=float).reshape(-1, dim)

    center = np.zeros(dim) if start is None else np.asarray(start, dtype=float)
    best = None
    best_val = math.inf
    width = span
    offsets_1d = np.linspace(-1.0, 1.0, pts)
    lattice = np.stack(
        [g.ravel() for g in np.meshgrid(*([offsets_1d] * dim), indexing="ij")],
        axis=1,
    )

    def candidates(ctr, w):
        Z = ctr + w * lattice
        blocks = [Z]
        for A_S, b_S, P_S in projectors:
            blocks.append(Z - (Z @ A_S.T - b_S) @ P_S)
        if len(vertices):
            blocks.append(vertices)
        if best is not None:
            blocks.append(best[None, :])
        return feasible_rows(np.vstack(blocks))

    seed = feasible_rows(center[None, :])
    if len(seed):
        best = seed[0].copy()
        best_val = float(0.5 * best @ Q @ best + c @ best)

    def improves(val):
        return val < best_val - 1e-15 * max(1.0, abs(best_val))

    for _ in range(max_rounds):
        Z = candidates(center, width)
        if len(Z):
            vals = 0.5 * np.einsum("ij,jk,ik->i", Z, Q, Z) + Z @ c
            idx = int(np.argmin(vals))
            if improves(vals[idx]):
                stride = Z[idx] - center
                best_val = float(vals[idx])
                best = Z[idx].copy()
                # Accelerate by doubling the accepted step while it keeps
                # paying off, so a descent that slides along a constraint
                # face costs log rounds instead of one round per lattice
                # spacing. Coercivity of the definite quadratic ends the
                # walk; the feasibility filter ends it sooner at the boundary.
                for _ in range(200):
                    ahead = feasible_rows((best + stride)[None, :])
                    if not len(ahead):
                        break
                    val = float(0.5 * ahead[0] @ Q @ ahead[0] + c @ ahead[0])
                    if not improves(val):
                        break
                    best_val = val
                    best = ahead[0].copy()
                    stride = stride * 2.0
                center = best
                continue  # progress: keep probing at this resolution
        width *= 0.4
        if width < target_width:
            break
    return None if best is None else tuple(best)


def brute_force_active_set(Q, c, A, b, tol: float = 1e-9):
    """Exhaustive KKT enumeration without early exit, for cross-checking.

    Scans every subset of constraints, solves the equality-constrained
    system with numpy, and returns the best primal-feasible, dual-feasible
    candidate objective (math.inf if none).
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    n_con = len(b)
    dim = len(c)
    A = np.asarray(A, dtype=float).reshape(n_con, dim) if n_con else np.zeros((0, dim))
    b = np.asarray(b, dtype=float)
    best = None
    best_val = math.inf
    for size in range(0, min(dim, n_con) + 1):
        for subset in itertools.combinations(range(n_con), size):
            S = list(subset)
            kkt = np.zeros((dim + size, dim + size))
            kkt[:dim, :dim] = Q
            rhs = np.concatenate([-c, b[S]])
            if size:
                kkt[:dim, dim:] = A[S].T
                kkt[dim:, :dim] = A[S]
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:dim], sol[dim:]
            if np.any(lam < -tol):
                continue
            if n_con and np.any(A @ z > b + tol):
                continue
            val = qp_objective(Q, c, z)
            if val < best_val:
                best_val = val
                best = (tuple(z), tuple(subset))
    return best, best_val


def rk4_reference(f, x, h):
    """One classical fourth-order step using numpy arrays throughout."""
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(f(x))
    k2 = np.asarray(f(x + 0.5 * h * k1))
    k3 = np.asarray(f(x + 0.5 * h * k2))
    k4 = np.asarray(f(x + h * k3))
    return tuple(x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


def random_feasible_qp(rng, dim=None):
    """A definite quadratic with constraints built around a known interior
    point, returned as (Q, c, A, b, interior_point)."""
    dim = int(rng.integers(1, 4)) if dim is None else dim
    M = rng.uniform(-1.5, 1.5, size=(dim, dim))
    Q = M @ M.T + 0.3 * np.eye(dim)
    c = rng.uniform(-3.0, 3.0, size=dim)
    n_con = int(rng.integers(0, 5))
    z_int = rng.uniform(-1.0, 1.0, size=dim)
    A = rng.uniform(-2.0, 2.0, size=(n_con, dim))
    margins = rng.uniform(0.05, 2.0, size=n_con)
    b = A @ z_int + margins
    return Q, c, A, b, z_int


def settled_gap(params, gains, *, bound=None, rates=None):
    """Gap at which a cruise-control run settles once its safety row binds.

    At the settled equilibrium the follower matches the lead speed, the
    thrust cancels drag and the disturbance averages out, so the hand-derived
    safety condition of the study holds with equality at u = drag:
    acc.closed_form_robust_terms with the disturbance bound (robust cascade)
    or acc.closed_form_adaptive_terms with the rates (adaptive cascade).
    For the robust cascade with b the gap above the floor this reads

        c_0 b = P_2 + c_1 P_1,   P_i = 1/(4 k_i) + k_i D^2,

    and for the adaptive one, with psi_1 = -1/(4 k_1) - k_1 r_0 / b and
    phi_1 = psi_1 + p_1 b,

        c_0 b + c_1 psi_1 = k_2 r_1 / phi_1 + 1/(4 k_2) + k_1^2 r_0^2 / (4 k_2 b^4),

    where (c_0, c_1) is the top coefficient row and p_1 the first pole. The
    residual of the condition rises strictly with the gap (on the open safe
    set for the adaptive cascade, where it tends to -inf at the boundary
    phi_1 = 0), so bisection finds the one root. Nothing here simulates.
    """
    from drcbf.acc import closed_form_adaptive_terms, closed_form_robust_terms, drag_force

    if (bound is None) == (rates is None):
        raise ValueError("give the disturbance bound or the adaptive rates")
    speed = params.lead_speed
    thrust = drag_force(params, speed)

    def residual(gap):
        x = (gap, speed)
        if rates is None:
            terms = closed_form_robust_terms(params, x, gains, bound)
        else:
            if gap <= params.min_distance:
                return -math.inf
            terms = closed_form_adaptive_terms(params, x, gains, rates)
            if terms["phi"][1] <= 0.0:
                return -math.inf
        return terms["control_row"][0] * thrust - terms["offset"]

    lo = params.min_distance
    hi = lo + 1.0
    while residual(hi) <= 0.0:
        hi = lo + 2.0 * (hi - lo)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rate_crossover(params, gains, target_gap, low=1e-3, high=1e6):
    """Adaptive rate r (r_0 = r_1 = r) whose settled gap equals target_gap.

    The settled gap of settled_gap(..., rates=(r, r)) rises strictly with r
    (every rate term lowers the residual at a fixed gap), so bisection on
    log r over [low, high] finds the crossover.
    """

    def gap_at(log_rate):
        rate = math.exp(log_rate)
        return settled_gap(params, gains, rates=(rate, rate))

    lo, hi = math.log(low), math.log(high)
    if not gap_at(lo) < target_gap < gap_at(hi):
        raise ValueError(f"target gap {target_gap} is not bracketed by [{low}, {high}]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap_at(mid) > target_gap:
            hi = mid
        else:
            lo = mid
    return math.exp(0.5 * (lo + hi))


@lru_cache(maxsize=16)
def _active_sets(n_con, dim):
    """(S, rows outside S) for every active set S that solve_qp tries, in
    its fixed enumeration order."""
    return tuple(
        (subset, tuple(i for i in range(n_con) if i not in subset))
        for size in range(min(dim, n_con) + 1)
        for subset in combinations(range(n_con), size)
    )


def _ldl(gram, subset):
    """LDL' factor of gram[S, S]: (L as rows of its strictly lower part, the
    pivots d). None when the rows of A_S are linearly dependent: a pivot is
    then zero up to rounding, relative to its diagonal entry."""
    L = []
    d = []
    for i, si in enumerate(subset):
        gi = gram[si]
        row = []
        pivot = gi[si]
        for j in range(i):
            s = gi[subset[j]]
            Lj = L[j]
            for k in range(j):
                s -= row[k] * Lj[k] * d[k]
            row.append(s / d[j])
            pivot -= row[j] * s
        if pivot <= RANK_TOL * gi[si]:
            return None
        L.append(row)
        d.append(pivot)
    return L, d


def _ldl_solve(factor, rhs):
    """Solve LDL' x = rhs for a factor from _ldl."""
    L, d = factor
    x = list(rhs)
    for i in range(1, len(d)):
        for k, lik in enumerate(L[i]):
            x[i] -= lik * x[k]
    for i in range(len(d) - 1, -1, -1):
        x[i] /= d[i]
        for k in range(i + 1, len(d)):
            x[i] -= L[k][i] * x[k]
    return x


def _lower_times(R, w):
    """R w for R lower triangular, stored as rows of growing length."""
    return [sum(map(mul, row, w)) for row in R]


def _candidate(problem, R, y, v, subset, lam, factor):
    """The solution of active set S from its multipliers, or None when it
    fails the feasibility check on z itself.

    In the coordinates of R, w = y + sum lam_s v_s and z = -R'w, and the
    active rows read v_s . w = -b_s. The multiplier terms of w cancel down to
    the size of Qz, which costs digits when Q is badly scaled; one refinement
    step with the same factor restores v_s . w = -b_s to rounding.
    """
    b = problem.b
    w = list(y)
    for s, l in zip(subset, lam):
        for j, vsj in enumerate(v[s]):
            w[j] += l * vsj
    if subset:
        delta = _ldl_solve(factor, [-sum(map(mul, v[s], w)) - b[s] for s in subset])
        for i, (s, dl) in enumerate(zip(subset, delta)):
            lam[i] += dl
            for j, vsj in enumerate(v[s]):
                w[j] += dl * vsj
    z = [0.0] * len(w)
    for row, wi in zip(R, w):
        for j, rij in enumerate(row):
            z[j] -= rij * wi
    if any(sum(map(mul, a, z)) > bi + FEASIBILITY_TOL for a, bi in zip(problem.A, b)):
        return None
    multipliers = [0.0] * len(b)
    for s, l in zip(subset, lam):
        multipliers[s] = l
    return QpSolution(
        z=tuple(z),
        active_set=subset,
        objective=problem.objective(z),
        status="optimal",
        multipliers=tuple(multipliers),
    )


def reference_solve_qp(problem):
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
    c, A, b = problem.c, problem.A, problem.b
    n_con = len(A)
    # In the coordinates of R: y = R c and v_i = R a_i, so z0 = -R'y,
    # (A Q^-1 A')_ij = v_i . v_j and gap_i = (A z0 - b)_i = -v_i . y - b_i.
    # At the candidate of active set S, A z - b = gap - (A Q^-1 A_S') lam,
    # which vanishes on S: the rows outside S are screened with it before
    # z is formed, and _candidate checks every row on z itself.
    y = _lower_times(R, c)
    v = [_lower_times(R, a) for a in A]
    gram = [[sum(map(mul, vi, vj)) for vj in v] for vi in v]
    gap = [-sum(map(mul, vi, y)) - bi for vi, bi in zip(v, b)]
    for subset, others in _active_sets(n_con, len(c)):
        lam = []
        factor = None
        if subset:
            factor = _ldl(gram, subset)
            if factor is None:
                continue
            lam = _ldl_solve(factor, [gap[s] for s in subset])
            if min(lam) < -MULTIPLIER_TOL:
                continue
        for i in others:
            gi = gram[i]
            value = gap[i]
            for s, l in zip(subset, lam):
                value -= gi[s] * l
            if value > FEASIBILITY_TOL:
                break
        else:
            solution = _candidate(problem, R, y, v, subset, lam, factor)
            if solution is not None:
                return solution
    return QpSolution(
        z=(), active_set=(), objective=math.inf, status="infeasible", multipliers=()
    )


def reference_evaluate(realization, t):
    """The disturbance signal vector at t, summed term by term: per channel
    0.0 plus each term's value in turn, after the same horizon check."""
    tt = float(t)
    if tt < 0.0 or tt > realization.horizon * (1.0 + _BOUNDARY_NUDGE):
        raise DisturbanceError(
            f"time {tt} is outside the realized horizon [0, {realization.horizon}]"
        )
    out = []
    for terms, drawn in zip(realization.spec.channels, realization.draws):
        value = 0.0
        for term, values in zip(terms, drawn):
            if isinstance(term, Constant):
                value += term.value
            elif isinstance(term, Sinusoid):
                angle = term.angular_frequency * tt + term.phase
                base = math.sin(angle) if term.kind == "sin" else math.cos(angle)
                value += term.amplitude * base
            else:
                index = math.floor(tt / term.hold_interval + _BOUNDARY_NUDGE)
                value += values[min(len(values) - 1, int(index))]
        out.append(value)
    return tuple(out)


def triple_integrator():
    """A plant of input relative degree 3: x = (p, v, a) with p' = v + d1,
    v' = a and a' = u + d2. d1 is unmatched and enters at the first cascade
    level of a barrier on p (drd_r = 1); d2 is matched."""
    return ControlAffineSystem(
        n=3,
        p=1,
        q=2,
        f=lambda x: (x[1], x[2], 0.0),
        g=lambda x: ((0.0,), (0.0,), (1.0,)),
        h=lambda x: ((1.0, 0.0), (0.0, 0.0), (0.0, 1.0)),
        ird_m=3,
        drd_r=1,
    )


def ceiling_barrier(ceiling):
    """b = P - p on the triple integrator."""
    return field_from_callable(lambda x: ceiling - x[0], 3)


def triple_integrator_drcbf_terms(x, ceiling, k, D):
    """The robust cascade of b = P - p on the triple integrator, by hand.

    L_h b = (-1, 0), so the first level pays the Young term: -v - 1/(4k1)
    - k1 D^2. Its L_h is (0, 0), so the second level pays k2 D^2 only:
    -a - k2 D^2. The top level's L_f vanishes and its L_h is (0, -1), so the
    top drift is -1/(4k3) and the control row is (-1). Returns (levels, top
    drift, control row).
    """
    p, v, a = x
    k1, k2, k3 = k
    levels = (ceiling - p, -v - 1.0 / (4.0 * k1) - k1 * (D * D), -a - k2 * (D * D))
    return levels, -1.0 / (4.0 * k3), (-1.0,)


def reference_run(config):
    """run_simulation as one loop over the control steps: per step the
    disturbance lookup, one control_step and one integrate_step per substep,
    then one record of the step in the log. The log's metadata has no
    fallback_steps."""
    system = config.system
    controller = config.controller
    _check_initial_state(controller.chain, config.x0)

    dt = config.control_period
    substeps = config.integrator_substeps
    sub_h = dt / substeps
    zero_d = (0.0,) * system.q

    log = TrajectoryLog(system.n, system.p, system.q, controller.chain.m)
    log.metadata = {
        "mode": controller.mode,
        "horizon": config.horizon,
        "control_period": dt,
        "integrator_substeps": substeps,
        "steps": config.steps,
        "disturbance_seed": None
        if config.disturbance is None
        else config.disturbance.spec.seed,
    }

    x = config.x0
    t = 0.0
    guard_total = 0
    disturbance = config.disturbance

    for step in range(config.steps):
        t = step * dt
        d = zero_d if disturbance is None else evaluate_signal(disturbance, t)

        try:
            result = control_step(controller, x, t)
        except DegenerateConstraintError as exc:
            log.failed = True
            log.failure_reason = f"controller fault at t={t}: {exc}"
            break

        log.record(t, x, result.u, result.slack, d, result.phi, result.cbf_residual,
                   result.clf_residual, result.qp_status, len(result.guard_events),
                   result.active_set)
        guard_total += len(result.guard_events)
        if result.qp_status != "optimal":
            log.failed = True
            log.failure_reason = f"solver returned {result.qp_status} at t={t}"
            break

        try:
            for _ in range(substeps):
                x = integrate_step(system, x, result.u, d, sub_h)
        except IntegrationFault as exc:
            log.failed = True
            log.failure_reason = f"integration fault at t={t}: {exc}"
            break

    if not log.failed:
        t = config.steps * dt

    log.final_state = x
    log.final_time = t if log.failed else config.horizon
    log.metadata["guard_event_total"] = guard_total
    return log


def assert_same_run(config):
    """run_simulation's log of config, checked against reference_run's: the
    same repr once its metadata's fallback_steps is set aside."""
    log = run_simulation(config)
    metadata = dict(log.metadata)
    fallback_steps = log.metadata.pop("fallback_steps")
    expected = reference_run(config)
    assert repr(log) == repr(expected)
    assert 0 <= fallback_steps <= len(log)
    log.metadata = metadata
    return log


def planar_double_integrator():
    """A plant of input width 2: x = (p_x, p_y, v_x, v_y) with p_x' = v_x +
    d1, p_y' = v_y, v_x' = u1 and v_y' = u2 + d2. d1 is unmatched and enters
    at the first cascade level of a barrier on the position (drd_r = 1); d2
    is matched."""
    return ControlAffineSystem(
        n=4,
        p=2,
        q=2,
        f=lambda x: (x[2], x[3], 0.0, 0.0),
        g=lambda x: ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
        h=lambda x: ((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 1.0)),
        ird_m=2,
        drd_r=1,
    )


def disc_barrier(center, radius):
    """b = |p - center|^2 - radius^2 on the planar double integrator: the
    position stays outside the disc."""
    cx, cy = center
    r2 = radius * radius
    return field_from_callable(lambda x: (x[0] - cx) * (x[0] - cx) + (x[1] - cy) * (x[1] - cy) - r2, 4)


def triple_integrator_config(mode, horizon):
    """The m = 3 plant driven from p = 6 towards a ceiling at p = 10, with held noise on
    the unmatched channel and a sinusoid on the matched one."""
    system = triple_integrator()
    barrier = ceiling_barrier(10.0)
    coeffs = coefficients_from_poles((1.0, 2.0, 3.0))
    gains = (1.0, 2.0, 3.0)
    chain = {
        "hocbf": lambda: build_hocbf_chain(system, barrier, coeffs),
        "drcbf": lambda: build_drcbf_chain(system, barrier, coeffs, gains, 0.5),
        "adrcbf": lambda: build_adrcbf_chain(system, barrier, coeffs, gains, (1.0, 1.0, 1.0)),
    }[mode]()
    controller = ControllerSpec(
        mode=mode,
        chain=chain,
        clf=ClfSpec(
            V=field_from_callable(lambda x: (x[1] + x[2] - 1.0) * (x[1] + x[2] - 1.0), 3),
            sigma=1.0,
            slack_weight=10.0,
        ),
        objective_h=((1.0,),),
        objective_f=lambda x: (0.5 * x[2],),
    )
    signal = SignalSpec(
        channels=((UniformNoise(-0.3, 0.3, 0.01),), (Sinusoid(0.3, 2.0),)), seed=9
    )
    return SimulationConfig(
        system=system,
        controller=controller,
        disturbance=realize(signal, horizon),
        x0=(6.0, 0.0, 0.0),
        horizon=horizon,
        control_period=1e-3,
    )


def planar_config(mode, horizon):
    """The p = 2 plant heading past a disc of radius 2 at (5, 0), tracking
    v_x = 1 with a state-dependent objective row."""
    system = planar_double_integrator()
    barrier = disc_barrier((5.0, 0.0), 2.0)
    coeffs = coefficients_from_poles((1.0, 2.0))
    chain = {
        "hocbf": lambda: build_hocbf_chain(system, barrier, coeffs),
        "drcbf": lambda: build_drcbf_chain(system, barrier, coeffs, (5.0, 5.0), 0.3),
        "adrcbf": lambda: build_adrcbf_chain(system, barrier, coeffs, (20.0, 20.0), (1.0, 1.0)),
    }[mode]()
    controller = ControllerSpec(
        mode=mode,
        chain=chain,
        clf=ClfSpec(
            V=field_from_callable(lambda x: (x[2] - 1.0) * (x[2] - 1.0) + x[3] * x[3], 4),
            sigma=1.0,
            slack_weight=10.0,
        ),
        objective_h=((1.0, 0.0), (0.0, 1.0)),
        objective_f=lambda x: (0.1 * x[2], -0.1 * x[3]),
    )
    signal = SignalSpec(
        channels=((UniformNoise(-0.2, 0.2, 0.01),), (Sinusoid(0.2, 3.0),)), seed=4
    )
    return SimulationConfig(
        system=system,
        controller=controller,
        disturbance=realize(signal, horizon),
        x0=(0.0, 0.3, 0.5, 0.0),
        horizon=horizon,
        control_period=1e-3,
    )
