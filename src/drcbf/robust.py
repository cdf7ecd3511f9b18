"""Disturbance-rejection barrier cascades and the nominal high-order baseline.

The robust cascade lowers each barrier derivative by the worst case a bounded
disturbance can contribute, using the Young-inequality split
(1/4k)||L_h b||^2 + k D^2 >= D ||L_h b||. The resulting safety condition is
affine in the control and never needs the disturbance signal itself, only the
bound D. The nominal (disturbance-ignoring) high-order construction is kept
alongside as the baseline it is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from .fields import (
    ControlAffineSystem,
    DimensionMismatchError,
    FieldError,
    SmoothScalarField,
    _grad_dot,
    _grad_row_squared_norm,
    as_state,
    lie_derivative_field,
    verify_relative_degree,
)
from .poles import CoefficientTable

__all__ = [
    "BarrierConstructionError",
    "DegenerateConstraintError",
    "AffineControlConstraint",
    "ChainEvaluation",
    "DrcbfChain",
    "HocbfChain",
    "build_drcbf_chain",
    "build_hocbf_chain",
    "drcbf_constraint",
    "hocbf_constraint",
    "hocbf_chain_constraint",
    "optimal_k",
    "chain_membership",
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


def _dot(a, b):
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s = s + a[i] * b[i]
    return s


def _row_times_matrix(grad, mat, n, width):
    out = []
    for j in range(width):
        s = grad[0] * mat[0][j]
        for i in range(1, n):
            s = s + grad[i] * mat[i][j]
        out.append(s)
    return tuple(out)


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


def _validate_chain_inputs(system, b, coeffs, k, order_label="k"):
    if b.n != system.n:
        raise DimensionMismatchError("barrier on system state", system.n, b.n)
    m = system.ird_m
    if coeffs.order < m:
        raise BarrierConstructionError(
            f"coefficient table of order {coeffs.order} cannot serve order {m}"
        )
    gains = tuple(float(v) for v in k)
    if len(gains) != m:
        raise DimensionMismatchError(f"gain list {order_label}", m, len(gains))
    for v in gains:
        if not v > 0.0:
            raise BarrierConstructionError(f"gain {v!r} is not strictly positive")
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
class DrcbfChain:
    """Robust cascade: levels tilde_b_0..tilde_b_{m-1}, top drift w_m, control row."""

    system: ControlAffineSystem
    b: SmoothScalarField
    m: int
    coeffs: CoefficientTable
    k: tuple
    disturbance_bound: float
    tilde_b: tuple
    w_m: SmoothScalarField
    phi: tuple

    def evaluate(self, x) -> ChainEvaluation:
        """One fused pass: level values, top drift, control row, phi values.

        The top level's gradient is evaluated once and reused for the drift,
        control, and disturbance rows, which is what keeps per-step cost low.
        """
        sys = self.system
        xs = as_state(x, sys.n)
        lower = tuple([fld._evaluator(xs) for fld in self.tilde_b[:-1]])
        top_val, grad = self.tilde_b[-1]._jet(xs)
        n = sys.n
        f = sys.f(xs)
        lf = _dot(grad, f)
        h = sys.h(xs)
        lh = _row_times_matrix(grad, h, n, sys.q)
        quarter = 1.0 / (4.0 * self.k[-1])
        w_m = lf - quarter * _dot(lh, lh)
        control_row = _row_times_matrix(grad, sys.g(xs), n, sys.p)
        levels = (*lower, top_val)
        return ChainEvaluation(levels, w_m, control_row, _phi_values(levels, self.coeffs))


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

    return SmoothScalarField(evaluator, n, "derived-by-differentiation")


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
    gains = _validate_chain_inputs(system, b, coeffs, k)
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
    w_m = _young_drift_field(levels[-1], system, gains[-1])
    return DrcbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        k=gains,
        disturbance_bound=bound,
        tilde_b=tuple(levels),
        w_m=w_m,
        phi=_combination_fields(levels, coeffs),
    )


def _checked_constraint(row, offset, x):
    norm = math.sqrt(sum(map(mul, row, row)))
    if norm < BETA_DEGENERACY_TOL:
        raise DegenerateConstraintError(row, x)
    return AffineControlConstraint(row=row, offset=offset, sense=">=")


def drcbf_constraint(chain: DrcbfChain, x) -> AffineControlConstraint:
    """Safety condition at x, affine in u:

        beta_u(x) . u  >=  k_m D^2 - w_m(x) - sum_j c_j^m tilde_b_j(x).
    """
    ev = chain.evaluate(x)
    top_row = chain.coeffs.row(chain.m)
    offset = chain.k[-1] * chain.disturbance_bound ** 2 - ev.top_drift
    for c, value in zip(top_row, ev.levels):
        offset -= c * value
    return _checked_constraint(ev.control_row, offset, x)


@dataclass(frozen=True)
class HocbfChain:
    """Nominal cascade: plain drift derivatives of b, ignoring the disturbance map."""

    system: ControlAffineSystem
    b: SmoothScalarField
    m: int
    coeffs: CoefficientTable
    levels: tuple
    phi: tuple

    def evaluate(self, x) -> ChainEvaluation:
        sys = self.system
        xs = as_state(x, sys.n)
        lower = tuple([fld._evaluator(xs) for fld in self.levels[:-1]])
        top_val, grad = self.levels[-1]._jet(xs)
        lf = _dot(grad, sys.f(xs))
        control_row = _row_times_matrix(grad, sys.g(xs), sys.n, sys.p)
        values = (*lower, top_val)
        return ChainEvaluation(values, lf, control_row, _phi_values(values, self.coeffs))


def build_hocbf_chain(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    coeffs: CoefficientTable,
    samples=None,
) -> HocbfChain:
    """Nominal high-order cascade: level i is L_f applied i times to b."""
    if b.n != system.n:
        raise DimensionMismatchError("barrier on system state", system.n, b.n)
    m = system.ird_m
    if coeffs.order < m:
        raise BarrierConstructionError(
            f"coefficient table of order {coeffs.order} cannot serve order {m}"
        )
    _maybe_verify_degrees(system, b, samples)
    levels = [b]
    for _ in range(1, m):
        levels.append(lie_derivative_field(levels[-1], system.f))
    return HocbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        levels=tuple(levels),
        phi=_combination_fields(levels, coeffs),
    )


def hocbf_constraint(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    coeffs: CoefficientTable,
    x,
) -> AffineControlConstraint:
    """Nominal high-order safety condition at x, affine in u:

        L_g nu_{m-1}(x) . u  >=  -L_f nu_{m-1}(x) - sum_j c_j^m nu_j(x)

    where nu_i = L_f^i b. Equivalent to requiring the m-th linear-combination
    function to stay nonnegative.
    """
    chain = build_hocbf_chain(system, b, coeffs)
    return hocbf_chain_constraint(chain, x)


def hocbf_chain_constraint(chain: HocbfChain, x) -> AffineControlConstraint:
    ev = chain.evaluate(x)
    offset = -ev.top_drift
    for c, value in zip(chain.coeffs.row(chain.m), ev.levels):
        offset -= c * value
    return _checked_constraint(ev.control_row, offset, x)


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


def chain_membership(chain, x) -> dict:
    """Whether x lies in the (closed) intersection of the cascade's sublevel sets."""
    values = chain.evaluate(x).phi
    return {"in_set": all(v >= 0.0 for v in values), "values": values}
