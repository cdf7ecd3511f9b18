"""Robust barrier cascades: worst-case margins, gain choice, nominal fallback."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drcbf.disturbances import SignalRealization
from drcbf.fields import (
    ControlAffineSystem,
    field_from_callable,
    lie_f,
    lie_h,
)
from drcbf.poles import coefficients_from_poles
from drcbf.robust import (
    BarrierConstructionError,
    DegenerateConstraintError,
    build_drcbf_chain,
    build_hocbf_chain,
    chain_membership,
    drcbf_constraint,
    hocbf_chain_constraint,
    hocbf_constraint,
    optimal_k,
)
from drcbf.acc import AccParameters, acc_system, distance_barrier, pole_table

from oracles import ceiling_barrier, triple_integrator, triple_integrator_drcbf_terms

PARAMS = AccParameters()
SYSTEM = acc_system(PARAMS)
BARRIER = distance_barrier(PARAMS)
TABLE = pole_table(PARAMS)
BOUND = 6.7268120108100975  # sqrt(45.25), the worst-case norm used in tests


def double_integrator(h=None):
    hmap = h if h is not None else (lambda x: ((0.0,), (1.0,)))
    return ControlAffineSystem(
        n=2, p=1, q=1,
        f=lambda x: (x[1], 0.0),
        g=lambda x: ((0.0,), (1.0,)),
        h=hmap,
        ird_m=2, drd_r=2,
    )


class TestOptimalGains:
    def test_unit_sensitivities(self):
        assert optimal_k((1.0, 1.0), 5.0) == (0.1, 0.1)

    def test_single_level(self):
        assert optimal_k((1.0,), 0.5) == (1.0,)

    def test_rejects_zero_bound(self):
        with pytest.raises(BarrierConstructionError):
            optimal_k((1.0,), 0.0)

    def test_rejects_nonpositive_sensitivity(self):
        with pytest.raises(BarrierConstructionError):
            optimal_k((0.0,), 1.0)

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_minimizes_conservativeness_penalty(self, eta, bound):
        (k_star,) = optimal_k((eta,), bound)
        rho = lambda k: eta * eta / (4.0 * k) + k * bound * bound
        for factor in (0.2, 0.5, 0.9, 1.1, 2.0, 10.0):
            assert rho(k_star) <= rho(k_star * factor) + 1e-12

    @given(
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_penalty_at_optimum_equals_linear_bound(self, eta, bound):
        # At the optimal gain the two penalty halves are equal, so the total
        # collapses to exactly the linear worst case eta * bound.
        (k_star,) = optimal_k((eta,), bound)
        rho = eta * eta / (4.0 * k_star) + k_star * bound * bound
        assert rho == pytest.approx(eta * bound, rel=1e-12)


class TestRobustChainConstruction:
    def test_level_count_matches_declared_degree(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        assert chain.m == 2
        assert len(chain.tilde_b) == 2
        assert len(chain.phi) == 2

    def test_gain_count_must_match_degree(self):
        with pytest.raises(Exception):
            build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1,), BOUND)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(BarrierConstructionError):
            build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, -0.1), BOUND)

    def test_negative_bound_rejected(self):
        with pytest.raises(BarrierConstructionError):
            build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), -1.0)

    def test_verification_failure_surfaces(self):
        # The speed coordinate has input degree 1, not the declared 2.
        speed = field_from_callable(lambda x: x[1], 2)
        with pytest.raises(BarrierConstructionError):
            build_drcbf_chain(
                SYSTEM, speed, TABLE, (0.1, 0.1), BOUND, samples=[(100.0, 13.0)]
            )

    def test_chain_holds_no_disturbance_realization(self):
        # The cascade must depend on the bound alone, never on sampled paths.
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        for name in chain.__dataclass_fields__:
            assert not isinstance(getattr(chain, name), SignalRealization)
        assert chain.disturbance_bound == BOUND

    def test_first_level_is_the_barrier(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        for x in ((100.0, 13.89), (42.0, 7.0)):
            assert chain.tilde_b[0].value(x) == BARRIER.value(x)

    def test_second_level_subtracts_worst_case_margin(self):
        k1 = 0.1
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (k1, 0.1), BOUND)
        x = (100.0, 13.89)
        expected = (
            lie_f(BARRIER, SYSTEM, x)
            - 1.0 / (4.0 * k1)  # unit disturbance row on the gap rate
            - k1 * BOUND * BOUND
        )
        assert chain.tilde_b[1].value(x) == pytest.approx(expected, rel=1e-12)


class TestWorstCaseMargin:
    """The defining inequality: each level's worst-case derivative dominates
    the next level, for every disturbance inside the modeled ball."""

    @given(
        st.floats(min_value=10.6, max_value=200.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_disturbed_derivative_dominates_next_level(self, gap, speed, angle, radius):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        x = (gap, speed)
        d = (
            radius * BOUND * math.cos(angle),
            radius * BOUND * math.sin(angle),
        )
        level = chain.tilde_b[0]
        drift = lie_f(level, SYSTEM, x)
        row = lie_h(level, SYSTEM, x)
        disturbed = drift + row[0] * d[0] + row[1] * d[1]
        assert disturbed >= chain.tilde_b[1].value(x) - 1e-10

    @given(
        st.floats(min_value=10.6, max_value=200.0),
        st.floats(min_value=0.0, max_value=40.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_constraint_certifies_worst_case_top_derivative(self, gap, speed, angle):
        # Pick u on the constraint boundary; the disturbed top-level
        # derivative must still dominate the pole-mixed lower levels.
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        x = (gap, speed)
        con = drcbf_constraint(chain, x)
        u = (con.offset / con.row[0],)
        assert abs(con.residual(u)) <= 1e-9 * max(1.0, abs(con.offset))
        d = (BOUND * math.cos(angle), BOUND * math.sin(angle))
        top = chain.tilde_b[1]
        drift = lie_f(top, SYSTEM, x)
        row_u = con.row
        row_d = lie_h(top, SYSTEM, x)
        disturbed = drift + row_u[0] * u[0] + row_d[0] * d[0] + row_d[1] * d[1]
        mixed = sum(
            c * lvl.value(x) for c, lvl in zip(TABLE.row(2), chain.tilde_b)
        )
        assert disturbed >= -mixed - 1e-7 * max(1.0, abs(mixed))


class TestRobustConstraint:
    def test_row_is_control_direction_of_top_level(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        con = drcbf_constraint(chain, (100.0, 13.89))
        assert con.row == pytest.approx((-1.0 / PARAMS.mass,), rel=1e-12)
        assert con.sense == ">="

    def test_residual_is_affine_in_control(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        con = drcbf_constraint(chain, (80.0, 20.0))
        r0 = con.residual((0.0,))
        r1 = con.residual((1.0,))
        r2 = con.residual((2.0,))
        assert r2 - r1 == pytest.approx(r1 - r0, rel=1e-9, abs=1e-12)
        assert r0 == pytest.approx(-con.offset, rel=1e-12)

    def test_degenerate_control_row_raises(self):
        # Input gain vanishes at x0 = 0, so the constraint cannot be enforced.
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (1.0,),
            g=lambda x: ((x[0],),),
            h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        b = field_from_callable(lambda x: x[0] + 5.0, 1)
        chain = build_drcbf_chain(
            system, b, coefficients_from_poles((1.0,)), (0.5,), 1.0
        )
        with pytest.raises(DegenerateConstraintError):
            drcbf_constraint(chain, (0.0,))


class TestNominalFallback:
    def test_zero_bound_and_zero_ports_collapse_to_nominal(self):
        quiet = acc_system(PARAMS, disturbed=False)
        robust = build_drcbf_chain(quiet, BARRIER, TABLE, (0.1, 0.1), 0.0)
        nominal = build_hocbf_chain(quiet, BARRIER, TABLE)
        for x in ((100.0, 13.89), (25.0, 30.0), (11.0, 0.0)):
            for lvl_r, lvl_n in zip(robust.tilde_b, nominal.levels):
                assert lvl_r.value(x) == pytest.approx(lvl_n.value(x), abs=1e-14)
            con_r = drcbf_constraint(robust, x)
            con_n = hocbf_chain_constraint(nominal, x)
            assert con_r.row == pytest.approx(con_n.row, rel=1e-15)
            assert con_r.offset == pytest.approx(con_n.offset, rel=1e-12, abs=1e-12)

    def test_zero_bound_with_live_ports_stays_conservative(self):
        # With ports present the squared-norm penalty remains: strictly more
        # conservative than nominal, never less.
        robust = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), 0.0)
        nominal = build_hocbf_chain(SYSTEM, BARRIER, TABLE)
        x = (100.0, 13.89)
        assert robust.tilde_b[1].value(x) < nominal.levels[1].value(x)


class TestNominalChain:
    def test_double_integrator_row_form(self):
        # b = x0, poles (1, 1): levels (x0, x1); constraint u >= -(x0 + 2 x1).
        system = double_integrator()
        b = field_from_callable(lambda x: x[0], 2)
        table = coefficients_from_poles((1.0, 1.0))
        x = (3.0, -1.0)
        con = hocbf_constraint(system, b, table, x)
        assert con.row == (1.0,)
        assert con.offset == pytest.approx(-(x[0] + 2.0 * x[1]), rel=1e-12)
        assert con.sense == ">="

    def test_single_level_reduces_to_classic_condition(self):
        # Scalar plant x' = -x + u, b = x - 1, pole p: u - x >= -p (x - 1).
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (-x[0],),
            g=lambda x: ((1.0,),),
            h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        b = field_from_callable(lambda x: x[0] - 1.0, 1)
        pole = 2.5
        x = (4.0,)
        con = hocbf_constraint(system, b, coefficients_from_poles((pole,)), x)
        # L_f b + L_g b u >= -p b  =>  u >= x - p (x - 1)
        assert con.row == (1.0,)
        assert con.offset == pytest.approx(x[0] - pole * (x[0] - 1.0), rel=1e-12)

    def test_levels_are_iterated_drift_derivatives(self):
        chain = build_hocbf_chain(SYSTEM, BARRIER, TABLE)
        x = (100.0, 13.89)
        assert chain.levels[0].value(x) == 90.0
        assert chain.levels[1].value(x) == pytest.approx(
            lie_f(BARRIER, SYSTEM, x), rel=1e-14
        )


class TestMembership:
    def test_initial_state_is_inside(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        report = chain_membership(chain, (100.0, 13.89))
        assert report["in_set"]
        assert all(v >= 0.0 for v in report["values"])

    def test_negative_barrier_is_outside(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        assert not chain_membership(chain, (9.0, 13.89))["in_set"]

    def test_boundary_state_is_inside_the_closed_set(self):
        # Exactly on the barrier's zero level: still a member (>= 0, not > 0).
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        x = (10.0, 20.0 - 1.0 / 0.4 - 0.1 * BOUND * BOUND)
        report = chain_membership(chain, x)
        assert report["values"][0] == 0.0
        assert report["in_set"]

    def test_mixed_level_boundary_found_by_bisection_is_inside(self):
        # Bisect the speed until phi_1 lands on the smallest nonnegative
        # float along the scan; the closed set must still contain it while
        # the next float over falls outside.
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, (0.1, 0.1), BOUND)
        gap = 12.0
        phi1 = lambda v: chain_membership(chain, (gap, v))["values"][1]
        lo, hi = 0.0, 60.0
        assert phi1(lo) > 0.0 > phi1(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi1(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
            if hi == math.nextafter(lo, math.inf):
                break
        assert phi1(lo) >= 0.0
        assert chain_membership(chain, (gap, lo))["in_set"]
        assert not chain_membership(chain, (gap, hi))["in_set"]


class TestTripleIntegrator:
    """Input relative degree 3: the cascade's jets nest three Duals deep."""

    CEILING = 10.0
    GAINS = (1.0, 2.0, 3.0)
    D = 0.5

    @staticmethod
    def assert_within_ulps(got, want, scale, ulps=2):
        assert abs(got - want) <= ulps * math.ulp(scale), (got, want)

    def test_levels_and_top_drift_match_the_closed_forms(self):
        system = triple_integrator()
        chain = build_drcbf_chain(
            system,
            ceiling_barrier(self.CEILING),
            coefficients_from_poles((1.0, 2.0, 3.0)),
            self.GAINS,
            self.D,
            samples=[(1.0, -2.0, -3.0), (5.0, 1.0, 0.5)],
        )
        rng = np.random.default_rng(17)
        states = [(1.0, -2.0, -3.0), *map(tuple, rng.uniform(-20.0, 20.0, (200, 3)))]
        k1, k2, k3 = self.GAINS
        for x in states:
            ev = chain.evaluate(x)
            levels, top_drift, control_row = triple_integrator_drcbf_terms(
                x, self.CEILING, self.GAINS, self.D
            )
            # Each level's scale is its largest term, so that a level near
            # zero by cancellation is still held to 2 ulp of its terms.
            scales = (
                max(self.CEILING, abs(x[0])),
                max(abs(x[1]), 1.0 / (4.0 * k1), k1 * self.D**2),
                max(abs(x[2]), k2 * self.D**2),
            )
            for got, want, scale in zip(ev.levels, levels, scales):
                self.assert_within_ulps(got, want, scale)
            self.assert_within_ulps(ev.top_drift, top_drift, 1.0 / (4.0 * k3))
            assert ev.control_row == control_row
