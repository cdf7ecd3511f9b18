"""Adaptive barrier cascades: state-dependent gains instead of a known bound.

Where the robust cascade subtracts k_i D^2 per level, the adaptive one
subtracts k_i Gamma_{i-1}(x) with Gamma_i = r_i B(phi_i) and B a barrier
energy that blows up at the safe-set boundary. The resulting condition needs
no disturbance bound at all: as the state approaches the boundary the energy
diverges and the constraint tightens without limit. The cascade is a
drcbf.robust.BarrierCascade, evaluated and enforced as the other two are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .fields import (
    ControlAffineSystem,
    SmoothScalarField,
    _grad_times_matrix,
    _guarded_reciprocal,
    as_state,
)
from .poles import CoefficientTable
from .robust import (
    BarrierCascade,
    BarrierConstructionError,
    _check_barrier,
    _combination_fields,
    _maybe_verify_degrees,
    _positive_gains,
    _young_drift_field,
)

__all__ = [
    "BarrierEnergy",
    "reciprocal_barrier_energy",
    "AdrcbfChain",
    "build_adrcbf_chain",
]

DEFAULT_ENERGY_GUARD = 1e-9
STRUCTURAL_ROW_TOL = 1e-9


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


# An empty subclass for the benchmark's tracer, as drcbf.robust's
# HocbfChain and DrcbfChain are.
class AdrcbfChain(BarrierCascade):
    """The adaptive cascade built by build_adrcbf_chain."""


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
    _check_barrier(system, b, coeffs)
    m = system.ird_m
    gains = _positive_gains(k, m, "gain", "k")
    adaptive_gains = _positive_gains(r, m, "adaptive gain", "r")
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
    gamma.append(B.apply(phi[m - 1]) * adaptive_gains[m - 1])
    energy, top_rate = B.evaluator, adaptive_gains[-1]

    chain = AdrcbfChain(
        system=system,
        b=b,
        m=m,
        coeffs=coeffs,
        levels=tuple(psi),
        top_drift=_young_drift_field(psi[-1], system, gains[-1]),
        phi=tuple(phi),
        k=gains,
        penalty=lambda phi_top: top_rate * energy(phi_top),
        r=adaptive_gains,
        B=B,
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
            row = _grad_times_matrix(grad, sys.g(xs), sys.n, sys.p)
            norm = math.sqrt(sum(v * v for v in row))
            if norm > STRUCTURAL_ROW_TOL:
                raise BarrierConstructionError(
                    f"energy Gamma_{j} contributes to the control row at {xs}: "
                    f"norm {norm}; the barrier's input relative degree is wrong"
                )
