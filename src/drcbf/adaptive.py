"""Adaptive barrier cascades: state-dependent gains instead of a known bound.

Where the robust cascade subtracts k_i D^2 per level, the adaptive one
subtracts k_i Gamma_{i-1}(x) with Gamma_i = r_i B(phi_i) and B a barrier
energy that blows up at the safe-set boundary. The resulting condition needs
no disturbance bound at all: as the state approaches the boundary the energy
diverges and the constraint tightens without limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .fields import (
    ControlAffineSystem,
    DimensionMismatchError,
    SmoothScalarField,
    _guarded_reciprocal,
    as_state,
    clamped_guards,
    reciprocal_field,
)
from .poles import CoefficientTable
from .robust import (
    AffineControlConstraint,
    BarrierConstructionError,
    ChainEvaluation,
    _checked_constraint,
    _combination_fields,
    _dot,
    _maybe_verify_degrees,
    _phi_values,
    _row_times_matrix,
    _validate_chain_inputs,
    _young_drift_field,
)

__all__ = [
    "BoundaryProximityError",
    "BarrierEnergy",
    "reciprocal_barrier_energy",
    "AdrcbfChain",
    "build_adrcbf_chain",
    "adrcbf_constraint",
    "evaluate_with_clamping",
    "interior_membership",
]

DEFAULT_ENERGY_GUARD = 1e-9
STRUCTURAL_ROW_TOL = 1e-9


class BoundaryProximityError(RuntimeError):
    """An adaptive constraint was requested too close to the safe-set boundary."""

    def __init__(self, level: int, value: float, guard: float):
        self.level = level
        self.value = value
        self.guard = guard
        super().__init__(
            f"phi_{level} = {value!r} is within the guard {guard!r} of the boundary"
        )


@dataclass(frozen=True)
class BarrierEnergy:
    """Energy B(phi) on the open safe side, unbounded as phi -> 0+.

    evaluator must be Dual-closed and guard-aware so cascades can
    differentiate through it; derivative is the plain scalar dB/dphi used by
    audits and diagnostics.
    """

    evaluator: Callable
    derivative: Callable
    guard: float

    def __post_init__(self):
        if not self.guard > 0.0:
            raise BarrierConstructionError("energy guard must be positive")

    def apply(self, field: SmoothScalarField) -> SmoothScalarField:
        evaluator = self.evaluator
        inner = field._evaluator
        return SmoothScalarField(
            lambda xs: evaluator(inner(xs)), field.n, "algebraic-composite"
        )

    def value(self, phi: float) -> float:
        return self.evaluator(float(phi))


def reciprocal_barrier_energy(guard: float = DEFAULT_ENERGY_GUARD) -> BarrierEnergy:
    """The shipped candidate B(phi) = 1/phi.

    Satisfies the sandwich 1/a1(phi) <= B(phi) <= 1/a2(phi) with both
    comparison functions the identity, and diverges as phi -> 0+. Values at or
    below the guard either raise or, inside a clamped_guards context, evaluate
    at the guard with zero gradient.
    """

    def evaluator(s):
        return _guarded_reciprocal(s, guard, positive_domain=True)

    def derivative(phi: float) -> float:
        return -1.0 / (phi * phi)

    return BarrierEnergy(evaluator=evaluator, derivative=derivative, guard=guard)


@dataclass(frozen=True)
class AdrcbfChain:
    """Adaptive cascade: levels psi_0..psi_{m-1}, energies Gamma_0..Gamma_{m-1}."""

    system: ControlAffineSystem
    b: SmoothScalarField
    m: int
    coeffs: CoefficientTable
    k: tuple
    r: tuple
    B: BarrierEnergy
    psi: tuple
    pi_m: SmoothScalarField
    phi: tuple
    gamma: tuple

    def evaluate(self, x) -> ChainEvaluation:
        """Fused per-state pass; see DrcbfChain.evaluate.

        Must run with the state strictly interior, or inside a clamped_guards
        context: the level evaluators contain the barrier energies of deeper
        levels, whose guards fire otherwise.
        """
        sys = self.system
        xs = as_state(x, sys.n)
        lower = tuple([fld._evaluator(xs) for fld in self.psi[:-1]])
        top_val, grad = self.psi[-1]._jet(xs)
        n = sys.n
        lf = _dot(grad, sys.f(xs))
        lh = _row_times_matrix(grad, sys.h(xs), n, sys.q)
        quarter = 1.0 / (4.0 * self.k[-1])
        pi_m = lf - quarter * _dot(lh, lh)
        control_row = _row_times_matrix(grad, sys.g(xs), n, sys.p)
        levels = (*lower, top_val)
        return ChainEvaluation(levels, pi_m, control_row, _phi_values(levels, self.coeffs))

    def top_energy(self, phi_top):
        """Gamma_{m-1} from an already-computed top phi value (guard-aware)."""
        return self.r[-1] * self.B.evaluator(phi_top)


def build_adrcbf_chain(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    coeffs: CoefficientTable,
    k: Sequence,
    r: Sequence,
    B: BarrierEnergy = None,
    samples=None,
) -> AdrcbfChain:
    """Build the adaptive cascade psi_i = pi_i - k_i Gamma_{i-1}.

    pi_i = L_f psi_{i-1} - (1/4k_i)||L_h psi_{i-1}||^2 and
    Gamma_i = r_i B(phi_i) with phi_i the level-i linear combination. The
    energies are composed with the jet-evaluable combinators, so pi_i
    differentiates Gamma_{i-1} exactly. No disturbance bound appears anywhere.

    When samples are given, relative degrees are verified and the energy terms
    are checked to contribute nothing to the control row (each Gamma_j has
    strictly higher input relative degree than the level consuming it, so
    L_g Gamma_j must vanish on the samples).
    """
    gains = _validate_chain_inputs(system, b, coeffs, k)
    m = system.ird_m
    adaptive_gains = tuple(float(v) for v in r)
    if len(adaptive_gains) != m:
        raise DimensionMismatchError("adaptive gain list r", m, len(adaptive_gains))
    for v in adaptive_gains:
        if not v > 0.0:
            raise BarrierConstructionError(
                f"adaptive gain {v!r} is not strictly positive"
            )
    if B is None:
        B = reciprocal_barrier_energy()
    _maybe_verify_degrees(system, b, samples)

    psi = [b]
    gamma = []
    phi = [b]
    for i in range(1, m):
        pi_i = _young_drift_field(psi[-1], system, gains[i - 1])
        gamma_prev = B.apply(phi[i - 1]) * adaptive_gains[i - 1]
        gamma.append(gamma_prev)
        psi.append(pi_i - gamma_prev * gains[i - 1])
        phi = list(_combination_fields(psi, coeffs))
    pi_m = _young_drift_field(psi[-1], system, gains[-1])
    gamma.append(B.apply(phi[m - 1]) * adaptive_gains[m - 1])

    chain = AdrcbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        k=gains,
        r=adaptive_gains,
        B=B,
        psi=tuple(psi),
        pi_m=pi_m,
        phi=tuple(phi),
        gamma=tuple(gamma),
    )
    if samples is not None:
        _check_energy_degree_structure(chain, samples)
    return chain


def _check_energy_degree_structure(chain: AdrcbfChain, samples):
    sys = chain.system
    for j, gamma_field in enumerate(chain.gamma[:-1]):
        for x in samples:
            xs = as_state(x, sys.n)
            _, grad = gamma_field._jet(xs)
            row = _row_times_matrix(grad, sys.g(xs), sys.n, sys.p)
            norm = math.sqrt(sum(v * v for v in row))
            if norm > STRUCTURAL_ROW_TOL:
                raise BarrierConstructionError(
                    f"energy Gamma_{j} contributes to the control row at {xs}: "
                    f"norm {norm}; the barrier's input relative degree is wrong"
                )


def _constraint_from_evaluation(chain: AdrcbfChain, ev: ChainEvaluation, x):
    gamma_top = chain.top_energy(ev.phi[-1])
    offset = chain.k[-1] * gamma_top - ev.top_drift
    for c, value in zip(chain.coeffs.row(chain.m), ev.levels):
        offset -= c * value
    return _checked_constraint(ev.control_row, offset, x)


def evaluate_with_clamping(chain: AdrcbfChain, x):
    """Evaluate the cascade with energies clamped at their guard.

    Returns (evaluation, constraint, guard_events). This is the
    controller-facing path: exact arithmetic keeps trajectories interior, but
    a fixed-step integrator can overshoot the boundary by O(step); clamping
    keeps the constraint finite and reports each breach instead of aborting.
    """
    with clamped_guards() as events:
        ev = chain.evaluate(x)
        constraint = _constraint_from_evaluation(chain, ev, x)
    return ev, constraint, tuple(events)


def adrcbf_constraint(chain: AdrcbfChain, x) -> AffineControlConstraint:
    """Adaptive safety condition at x, affine in u:

        beta_u(x) . u  >=  k_m Gamma_{m-1}(x) - pi_m(x) - sum_j c_j^m psi_j(x).

    Requires x strictly interior (every phi_i above the energy guard); a
    breach raises BoundaryProximityError naming the offending level. Use
    evaluate_with_clamping for the tolerant controller-facing variant.
    """
    with clamped_guards() as events:
        ev = chain.evaluate(x)
    guard = chain.B.guard
    for level, value in enumerate(ev.phi):
        if value <= guard:
            raise BoundaryProximityError(level, value, guard)
    if events:
        # Levels read energies of deeper levels only, so interior phi values
        # imply no breaches; reaching here means the guard semantics broke.
        raise BoundaryProximityError(-1, min(e.value for e in events), guard)
    return _constraint_from_evaluation(chain, ev, x)


def interior_membership(chain: AdrcbfChain, x) -> dict:
    """Whether x lies in the open intersection of the cascade's level sets.

    Evaluated with clamped energies so exterior states report cleanly; the
    lowest level value is always exact, and any nonpositive value means the
    state is outside regardless of clamping above it.
    """
    with clamped_guards():
        values = chain.evaluate(x).phi
    return {
        "in_open_set": all(v > 0.0 for v in values),
        "values": values,
        "min_margin": min(values),
    }
