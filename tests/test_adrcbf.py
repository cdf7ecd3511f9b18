"""Adaptive cascades: boundary-divergent energies replace the disturbance bound."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drcbf.adaptive import build_adrcbf_chain, reciprocal_barrier_energy
from drcbf.disturbances import SignalRealization
from drcbf.fields import ControlAffineSystem, field_from_callable, lie_f
from drcbf.poles import coefficients_from_poles
from drcbf.robust import (
    BarrierConstructionError,
    build_drcbf_chain,
    evaluate_with_clamping,
    membership,
)
from drcbf.acc import AccParameters, acc_system, distance_barrier, pole_table

PARAMS = AccParameters()
SYSTEM = acc_system(PARAMS)
BARRIER = distance_barrier(PARAMS)
TABLE = pole_table(PARAMS)


def make_chain(k=(0.1, 0.1), r=(1.0, 1.0), samples=None):
    return build_adrcbf_chain(SYSTEM, BARRIER, TABLE, k, r, samples=samples)


def interior_constraint(chain, x):
    """The chain's safety constraint at an interior x, where no guard fires."""
    _, con, events = evaluate_with_clamping(chain, x)
    assert events == ()
    return con


class TestBarrierEnergyFunction:
    def test_reciprocal_values_and_derivative(self):
        B = reciprocal_barrier_energy()
        assert B.evaluator(2.0) == 0.5
        assert B.derivative(2.0) == -0.25
        assert B.evaluator(0.01) == pytest.approx(100.0)

    @given(st.integers(min_value=-20, max_value=20))
    def test_product_with_argument_is_exactly_one_on_binary_points(self, exp):
        # Powers of two invert exactly in floating point.
        B = reciprocal_barrier_energy()
        phi = 2.0**exp
        assert B.evaluator(phi) * phi == 1.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_product_with_argument_is_one_to_an_ulp(self, phi):
        B = reciprocal_barrier_energy()
        assert B.evaluator(phi) * phi == pytest.approx(1.0, rel=2e-16)

    @given(st.floats(min_value=1e-4, max_value=1e3))
    def test_diverges_monotonically_toward_zero(self, phi):
        B = reciprocal_barrier_energy()
        assert B.evaluator(phi * 0.5) > B.evaluator(phi)

    def test_guard_is_carried(self):
        B = reciprocal_barrier_energy(guard=1e-6)
        assert B.guard == 1e-6


class TestAdaptiveChainConstruction:
    def test_shapes(self):
        chain = make_chain()
        assert chain.m == 2
        assert len(chain.levels) == 2
        assert len(chain.gamma) == 2
        assert len(chain.phi) == 2

    def test_first_energy_is_rate_over_barrier(self):
        chain = make_chain(r=(1.0, 1.0))
        assert chain.gamma[0].value((100.0, 13.89)) == pytest.approx(
            1.0 / 90.0, rel=1e-14
        )
        doubled = make_chain(r=(2.0, 1.0))
        assert doubled.gamma[0].value((100.0, 13.89)) == pytest.approx(
            2.0 / 90.0, rel=1e-14
        )

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(BarrierConstructionError):
            make_chain(r=(0.0, 1.0))
        with pytest.raises(BarrierConstructionError):
            make_chain(r=(1.0, -2.0))

    def test_rejects_rate_count_mismatch(self):
        with pytest.raises(Exception):
            build_adrcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), (1.0,))

    def test_construction_with_samples_passes_structure_checks(self):
        chain = make_chain(samples=[(100.0, 13.89), (60.0, 25.0)])
        assert chain.m == 2

    def test_chain_never_holds_a_bound_or_realization(self):
        # The adaptive cascade must not know any disturbance magnitude: no
        # bound field exists and no sampled path is captured.
        chain = make_chain()
        assert chain.disturbance_bound is None
        for name in chain.__dataclass_fields__:
            assert not isinstance(getattr(chain, name), SignalRealization)

    def test_second_level_subtracts_scaled_energy(self):
        k1 = 0.1
        chain = make_chain(k=(k1, 0.1), r=(1.0, 1.0))
        x = (100.0, 13.89)
        # psi_1 = L_f b - 1/(4 k1) ||L_h b||^2 - k1 * Gamma_0, with unit row.
        expected = lie_f(BARRIER, SYSTEM, x) - 1.0 / (4.0 * k1) - k1 * (1.0 / 90.0)
        assert chain.levels[1].value(x) == pytest.approx(expected, rel=1e-12)

    def test_less_conservative_than_robust_far_from_boundary(self):
        # Away from the boundary the energy term r/b is far below the
        # worst-case bound penalty, so the adaptive level sits above it.
        bound = math.sqrt(45.25)
        robust = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), bound)
        adaptive = make_chain()
        x = (100.0, 13.89)
        assert adaptive.levels[1].value(x) > robust.levels[1].value(x)


class TestAdaptiveConstraint:
    def test_row_matches_control_direction(self):
        chain = make_chain()
        con = interior_constraint(chain, (100.0, 13.89))
        assert con.row == pytest.approx((-1.0 / PARAMS.mass,), rel=1e-12)
        assert con.sense == ">="

    def test_offset_decomposition(self):
        # Moving every term to one side must reproduce the evaluated pieces:
        # offset = k2*Gamma_1 - pi_2 - sum_j c_j psi_j.
        chain = make_chain()
        x = (47.0, 22.0)
        ev = chain.evaluate(x)
        con = interior_constraint(chain, x)
        gamma1 = chain.gamma[1].value(x)
        mixed = sum(c * v for c, v in zip(TABLE.row(2), ev.levels))
        expected = chain.k[1] * gamma1 - ev.top_drift - mixed
        assert con.offset == pytest.approx(expected, rel=1e-12)

    def test_offset_diverges_at_the_boundary(self):
        # Approach the gap boundary slowly enough (v_f = 0) that every mixed
        # level stays positive; the required thrust bound still blows up.
        chain = make_chain()
        offsets = []
        for margin in (0.1, 0.05, 0.02, 0.01, 0.006):
            x = (10.0 + margin, 0.0)
            assert membership(chain, x)["in_set"]
            offsets.append(interior_constraint(chain, x).offset)
        for nearer, farther in zip(offsets[1:], offsets):
            assert nearer > farther
        assert offsets[-1] > 1e6

    def test_clamped_evaluation_flags_and_stays_finite(self):
        chain = make_chain()
        ev, con, events = evaluate_with_clamping(chain, (10.0 + 1e-12, 20.0))
        assert events
        assert all(e.value <= e.guard for e in events)
        assert math.isfinite(con.offset)
        assert math.isfinite(ev.top_drift)

    def test_clamped_evaluation_is_clean_in_the_interior(self):
        chain = make_chain()
        ev, con, events = evaluate_with_clamping(chain, (100.0, 13.89))
        assert events == ()
        assert ev == chain.evaluate((100.0, 13.89))
        assert (con.row, con.offset) == (ev.control_row, ev.offset)

    def test_single_level_chain_closed_form(self):
        # Scalar plant x' = -0.5 x + u with barrier x - 1 and pole p:
        # u - 0.5 x - 1/(4 k) - k r/(x-1) >= -p (x - 1).
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (-0.5 * x[0],),
            g=lambda x: ((1.0,),),
            h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        b = field_from_callable(lambda x: x[0] - 1.0, 1)
        k, r, pole = 0.4, 2.0, 3.0
        chain = build_adrcbf_chain(
            system, b, coefficients_from_poles((pole,)), (k,), (r,)
        )
        x = (5.0,)
        con = interior_constraint(chain, x)
        pi_1 = -0.5 * x[0] - 1.0 / (4.0 * k)
        gamma_0 = r / (x[0] - 1.0)
        expected_offset = k * gamma_0 - pi_1 - pole * (x[0] - 1.0)
        assert con.row == (1.0,)
        assert con.offset == pytest.approx(expected_offset, rel=1e-12)


class TestDivergencePreventsEscape:
    """Arithmetic core of the forward-invariance argument: near the boundary
    the scaled energy dominates any fixed quadratic disturbance level."""

    @given(
        st.floats(min_value=0.01, max_value=20.0),  # disturbance magnitude
        # fraction of the threshold; bounded below so phi stays above the
        # evaluator's guard band (clamping there is covered separately)
        st.floats(min_value=1e-4, max_value=0.999),
    )
    def test_energy_term_dominates_below_threshold(self, magnitude, fraction):
        chain = make_chain()
        # Consumer mixing for the top level: weights c_j on psi levels, with
        # a unit leading coefficient; gains k_(j+1) scale each energy.
        c_row = (TABLE.row(2)[1], 1.0)  # coefficients multiplying psi_0-energy
        k = chain.k
        r = chain.r
        for level, (gain, rate, weight) in enumerate(zip(k, r, c_row)):
            checked = sum(kj * cj for kj, cj in zip(k, c_row))
            threshold = gain * rate * weight / (checked * magnitude * magnitude)
            phi = fraction * threshold
            margin = (
                gain * rate * weight * chain.B.evaluator(phi)
                - checked * magnitude * magnitude
            )
            assert margin > 0.0


class TestInteriorMembership:
    def test_initial_state_is_interior(self):
        report = membership(make_chain(), (100.0, 13.89))
        assert report["in_set"]
        assert report["min_margin"] > 0.0

    def test_boundary_state_is_not_interior(self):
        report = membership(make_chain(), (10.0, 20.0))
        assert not report["in_set"]

    def test_outside_state_is_not_interior(self):
        assert not membership(make_chain(), (8.0, 20.0))["in_set"]

    def test_margin_shrinks_monotonically_toward_boundary(self):
        chain = make_chain()
        gaps = [40.0 - 1.45 * i for i in range(20)] + [10.5, 10.2, 10.1]
        margins = [
            membership(chain, (gap, 18.0))["min_margin"] for gap in gaps
        ]
        for closer, farther in zip(margins[1:], margins):
            assert closer < farther
