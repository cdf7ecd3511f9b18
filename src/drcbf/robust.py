"""Barrier cascades: the robust one, the nominal high-order baseline, and
the one class and constraint entry that all three cascades share.

A cascade's levels start at the barrier b; each next level is the drift of
the one below. The robust cascade lowers each drift by the worst case a
bounded disturbance can contribute, using the Young-inequality split
(1/4k)||L_h b||^2 + k D^2 >= D ||L_h b||, so the safety condition is affine
in the control and needs only the bound D, never the disturbance signal.
The adaptive cascade (drcbf.adaptive) pays k Gamma(phi) in place of k D^2.
The nominal cascade, the baseline they are compared against, pays neither
term. BarrierCascade holds any of the three, evaluates it at a state and
assembles its safety offset; evaluate_with_clamping turns that into the
constraint the controller enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Sequence

from .fields import (
    ControlAffineSystem,
    DimensionMismatchError,
    SmoothScalarField,
    _grad_dot,
    _grad_row_squared_norm,
    _grad_times_matrix,
    as_state,
    clamped_guards,
    lie_derivative_field,
    verify_relative_degree,
)
from .poles import CoefficientTable

__all__ = [
    "BarrierConstructionError",
    "DegenerateConstraintError",
    "AffineControlConstraint",
    "ChainEvaluation",
    "BarrierCascade",
    "DrcbfChain",
    "HocbfChain",
    "build_drcbf_chain",
    "build_hocbf_chain",
    "evaluate_with_clamping",
    "membership",
    "optimal_k",
]

BETA_DEGENERACY_TOL = 1e-12


class BarrierConstructionError(ValueError):
    """Invalid inputs for building a barrier cascade."""


class DegenerateConstraintError(RuntimeError):
    """The control coefficient row vanished: the declared relative degree fails here."""

    def __init__(self, row, x):
        self.row = tuple(row)
        self.x = tuple(x)
        super().__init__(
            f"control coefficient row {self.row} is numerically zero at state {self.x}"
        )


@dataclass(frozen=True)
class AffineControlConstraint:
    """row . u  (sense)  offset, with sense one of '>=' or '<='."""

    row: tuple
    offset: float
    sense: str = ">="

    def __post_init__(self):
        row = tuple(map(float, self.row))
        offset = float(self.offset)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "offset", offset)
        if self.sense not in (">=", "<="):
            raise BarrierConstructionError(f"unknown constraint sense {self.sense!r}")
        if not (all(map(math.isfinite, row)) and math.isfinite(offset)):
            raise BarrierConstructionError("constraint has non-finite entries")

    def residual(self, u) -> float:
        """Slack of the constraint at u; nonnegative means satisfied."""
        value = sum(r * float(v) for r, v in zip(self.row, u))
        return value - self.offset if self.sense == ">=" else self.offset - value


@dataclass(frozen=True)
class ChainEvaluation:
    """All per-state quantities a cascade's constraint and audits need."""

    levels: tuple        # cascade level values at x (lowest first)
    top_drift: float     # drift term of the top derivative (control-free part)
    control_row: tuple   # coefficient row of u in the top derivative
    phi: tuple           # set-membership function values at x
    offset: float        # safety offset: control_row . u >= offset


def _phi_values(level_values, coeffs: CoefficientTable):
    phi = [level_values[0]]
    for i in range(1, len(level_values)):
        row = coeffs.rows[i - 1]
        s = level_values[i]
        for j, c in enumerate(row):
            s = s + c * level_values[j]
        phi.append(s)
    return tuple(phi)


def _combination_fields(level_fields, coeffs: CoefficientTable):
    phi = [level_fields[0]]
    for i in range(1, len(level_fields)):
        row = coeffs.row(i)
        combo = level_fields[i]
        for j, c in enumerate(row):
            combo = combo + level_fields[j] * c
        phi.append(combo)
    return tuple(phi)


def _check_barrier(system, b, coeffs):
    if b.n != system.n:
        raise DimensionMismatchError("barrier on system state", system.n, b.n)
    if coeffs.order < system.ird_m:
        raise BarrierConstructionError(
            f"coefficient table of order {coeffs.order} cannot serve order {system.ird_m}"
        )


def _positive_gains(values, m, name, symbol):
    """values as a tuple of m strictly positive floats."""
    gains = tuple(float(v) for v in values)
    if len(gains) != m:
        raise DimensionMismatchError(f"{name} list {symbol}", m, len(gains))
    for v in gains:
        if not v > 0.0:
            raise BarrierConstructionError(f"{name} {v!r} is not strictly positive")
    return gains


def _maybe_verify_degrees(system, b, samples):
    if samples is None:
        return
    report = verify_relative_degree(system, b, samples)
    if not (report.ird_ok and report.drd_ok):
        raise BarrierConstructionError(
            f"relative-degree verification failed: {report.witnesses}"
        )


@dataclass(frozen=True)
class BarrierCascade:
    """Levels psi_0..psi_{m-1} of the barrier b, the top level's drift field
    and the combination fields phi_0..phi_{m-1}.

    Level i is the drift of level i-1, lowered, where the cascade has gains
    k, by the Young split (1/4k_i)||L_h psi_{i-1}||^2 and the penalty
    k_i P_{i-1}, with P = D^2 in the robust cascade and P_{i-1} = Gamma_{i-1}
    = r_{i-1} B(phi_{i-1}) in the adaptive one. penalty is the top level's P
    as a function of the value of phi_{m-1}. The nominal cascade has neither
    gains nor penalty. build_hocbf_chain, build_drcbf_chain and
    drcbf.adaptive.build_adrcbf_chain build the three.
    """

    system: ControlAffineSystem
    b: SmoothScalarField
    m: int
    coeffs: CoefficientTable
    levels: tuple
    top_drift: SmoothScalarField
    phi: tuple
    k: tuple = ()                               # Young gains k_1..k_m
    penalty: Optional[Callable] = None
    disturbance_bound: Optional[float] = None   # robust cascade: D
    r: tuple = ()                               # adaptive cascade: the rates,
    B: object = None                            # the BarrierEnergy
    gamma: tuple = ()                           # and Gamma_0..Gamma_{m-1}

    @property
    def mode(self) -> str:
        """The cascade's label in a run's records: "drcbf" with a disturbance
        bound, "adrcbf" with energies, "hocbf" with neither."""
        if self.disturbance_bound is not None:
            return "drcbf"
        return "hocbf" if self.B is None else "adrcbf"

    def evaluate(self, x) -> ChainEvaluation:
        """One fused pass: level values, top drift, control row, phi values
        and the safety offset

            k_m P(phi_{m-1}) - top drift - sum_j c_j^m psi_j.

        The top level's gradient is evaluated once and reused for the drift,
        disturbance and control rows, which is what keeps per-step cost low.
        Guarded reciprocals (the adaptive cascade's energies) raise at a
        breach unless this runs inside a clamped_guards context.
        """
        sys = self.system
        n = sys.n
        xs = as_state(x, n)
        lower = tuple([fld._evaluator(xs) for fld in self.levels[:-1]])
        top_val, grad = self.levels[-1]._jet(xs)
        drift = _grad_dot(grad, sys.f(xs), n)
        if self.k:
            lh = _grad_times_matrix(grad, sys.h(xs), n, sys.q)
            quarter = 1.0 / (4.0 * self.k[-1])
            drift = drift - quarter * _grad_dot(lh, lh, sys.q)
        control_row = _grad_times_matrix(grad, sys.g(xs), n, sys.p)
        levels = (*lower, top_val)
        phi = _phi_values(levels, self.coeffs)
        # Without a penalty the offset starts at -drift, not 0.0 - drift:
        # the two differ in the sign of a zero.
        offset = -drift if self.penalty is None else self.k[-1] * self.penalty(phi[-1]) - drift
        for c, value in zip(self.coeffs.row(self.m), levels):
            offset -= c * value
        return ChainEvaluation(levels, drift, control_row, phi, offset)


# One empty subclass per builder, for the benchmark's tracer
# (perfbench/tracing.py): it times HocbfChain.evaluate, DrcbfChain.evaluate
# and AdrcbfChain.evaluate as one span each. Were the three names aliases of
# one class, every call would run inside all three wrappers.
class HocbfChain(BarrierCascade):
    """The nominal cascade built by build_hocbf_chain."""


class DrcbfChain(BarrierCascade):
    """The robust cascade built by build_drcbf_chain."""


def _young_drift_field(
    field: SmoothScalarField, system: ControlAffineSystem, k: float
) -> SmoothScalarField:
    """The field L_f field - (1/4k)||L_h field||^2, itself jet-evaluable.

    This is the drift of field lowered by the Young split of the worst-case
    disturbance contribution, less the k D^2 that the robust cascade also
    subtracts. One jet of field per evaluation serves both terms.
    """
    n, q = field.n, system.q
    jet = field._jet
    f, h = system.f, system.h
    quarter = 1.0 / (4.0 * k)

    def evaluator(xs):
        _, grad = jet(xs)
        return _grad_dot(grad, f(xs), n) - _grad_row_squared_norm(grad, h(xs), n, q) * quarter

    return SmoothScalarField(evaluator, n)


def build_drcbf_chain(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    coeffs: CoefficientTable,
    k: Sequence,
    D: float,
    samples=None,
) -> DrcbfChain:
    """Build the robust cascade for a disturbance of Euclidean norm at most D.

    Level i lowers the drift of level i-1 by the Young split of the worst-case
    disturbance contribution: tilde_b_i = L_f tilde_b_{i-1}
    - (1/4k_i)||L_h tilde_b_{i-1}||^2 - k_i D^2. Every level is built with the
    jet-evaluable field combinators, so the next level can differentiate it
    exactly. The disturbance signal itself appears nowhere.

    When samples are given, the declared relative degrees are verified on them
    first and a failure raises instead of building a degenerate cascade.
    """
    _check_barrier(system, b, coeffs)
    gains = _positive_gains(k, system.ird_m, "gain", "k")
    bound = float(D)
    if bound < 0.0:
        raise BarrierConstructionError("disturbance bound must be nonnegative")
    _maybe_verify_degrees(system, b, samples)

    m = system.ird_m
    bound_sq = bound * bound
    levels = [b]
    for i in range(1, m):
        levels.append(
            _young_drift_field(levels[-1], system, gains[i - 1]) - gains[i - 1] * bound_sq
        )
    # bound ** 2, not bound_sq: the compiled step bakes this constant in,
    # and a power need not round as a product does.
    top_penalty = bound ** 2
    return DrcbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        levels=tuple(levels),
        top_drift=_young_drift_field(levels[-1], system, gains[-1]),
        phi=_combination_fields(levels, coeffs),
        k=gains,
        penalty=lambda phi: top_penalty,
        disturbance_bound=bound,
    )


def build_hocbf_chain(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    coeffs: CoefficientTable,
    samples=None,
) -> HocbfChain:
    """Nominal high-order cascade: level i is L_f applied i times to b."""
    _check_barrier(system, b, coeffs)
    _maybe_verify_degrees(system, b, samples)
    m = system.ird_m
    levels = [b]
    for _ in range(1, m):
        levels.append(lie_derivative_field(levels[-1], system.f))
    return HocbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        levels=tuple(levels),
        top_drift=lie_derivative_field(levels[-1], system.f),
        phi=_combination_fields(levels, coeffs),
    )


def evaluate_with_clamping(chain: BarrierCascade, x):
    """The cascade's evaluation at x and its safety condition, affine in u,

        control_row . u  >=  k_m P(phi_{m-1}) - top drift - sum_j c_j^m psi_j,

    with guarded reciprocals clamped at their guard. Returns (evaluation,
    constraint, guard_events). This is the controller-facing path: exact
    arithmetic keeps trajectories interior, but a fixed-step integrator can
    overshoot the boundary by O(step); clamping keeps the constraint finite
    and reports each breach instead of aborting. A control row of norm
    below BETA_DEGENERACY_TOL raises DegenerateConstraintError.
    """
    with clamped_guards() as events:
        ev = chain.evaluate(x)
    row = ev.control_row
    if math.sqrt(sum(map(mul, row, row))) < BETA_DEGENERACY_TOL:
        raise DegenerateConstraintError(row, x)
    return ev, AffineControlConstraint(row=row, offset=ev.offset, sense=">="), tuple(events)


def optimal_k(eta: Sequence, D: float) -> tuple:
    """Least-conservative gains k_i = eta_i / (2 D).

    Each gain minimizes the per-level conservativeness
    rho_i(k) = eta_i^2/(4k) + k D^2, whose minimum sits at eta_i/(2D).
    """
    bound = float(D)
    if not bound > 0.0:
        raise BarrierConstructionError("disturbance bound must be strictly positive")
    gains = []
    for value in eta:
        e = float(value)
        if not e > 0.0:
            raise BarrierConstructionError(f"eta {e!r} is not strictly positive")
        gains.append(e / (2.0 * bound))
    if not gains:
        raise BarrierConstructionError("at least one eta is required")
    return tuple(gains)


def membership(chain: BarrierCascade, x) -> dict:
    """Whether x lies in the cascade's safe set, the intersection of the sets
    phi_i >= 0; open (phi_i > 0) for a cascade with energies, which diverge
    on its boundary.

    Evaluated with clamped guards so that exterior states report cleanly:
    the lowest level value is always exact, and any value outside means the
    state is outside regardless of clamping above it.
    """
    with clamped_guards():
        values = chain.evaluate(x).phi
    if chain.gamma:
        inside = all(v > 0.0 for v in values)
    else:
        inside = all(v >= 0.0 for v in values)
    return {"in_set": inside, "values": values, "min_margin": min(values)}
