"""Cruise-control study: dynamics, barrier, closed-form cross-oracles, cases."""

import math
import random

import pytest

from drcbf.acc import (
    AccParameters,
    build_study,
    case_bound,
    case_config,
    case_disturbance_spec,
    distance_barrier,
    drag_force,
    acc_system,
    pole_table,
    speed_tracking_clf,
    summarize_log,
    tracking_objective,
    verification_samples,
)
from drcbf.adaptive import build_adrcbf_chain
from drcbf.disturbances import evaluate, realize
from drcbf.fields import lie_h, verify_relative_degree
from drcbf.robust import build_drcbf_chain, evaluate_with_clamping, membership, optimal_k
from drcbf.simulate import TrajectoryLog, run_simulation

from oracles import closed_form_adaptive_terms, closed_form_robust_terms, fd_gradient

PARAMS = AccParameters()
SYSTEM = acc_system(PARAMS)
BARRIER = distance_barrier(PARAMS)
TABLE = pole_table(PARAMS)
GAINS = (0.1, 0.1)
RATES = (1.0, 1.0)
X0 = (100.0, 13.89)


def operating_states(count, seed):
    """Random states over the study's operating box (gap, speed)."""
    rng = random.Random(seed)
    return [
        (rng.uniform(10.5, 200.0), rng.uniform(0.0, 40.0)) for _ in range(count)
    ]


def hand_drag(speed):
    return 0.1 + 5.0 * speed + 0.25 * speed * speed


class TestParameters:
    def test_study_defaults(self):
        p = AccParameters()
        assert p.mass == 1650.0
        assert p.lead_speed == 20.0
        assert (p.drag_constant, p.drag_linear, p.drag_quadratic) == (0.1, 5.0, 0.25)
        assert p.min_distance == 10.0
        assert p.desired_speed == 35.0
        assert p.clf_decay == 10.0
        assert p.slack_weight == 2.0
        assert p.poles == (5.0, 10.0)
        assert p.robust_gains == (0.1, 0.1)
        assert p.adaptive_rates == (1.0, 1.0)
        assert p.initial_state == (100.0, 13.89)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            AccParameters(mass=0.0)

    def test_pole_count_enforced(self):
        with pytest.raises(ValueError):
            AccParameters(poles=(5.0,))

    def test_initial_state_length_enforced(self):
        with pytest.raises(ValueError):
            AccParameters(initial_state=(100.0,))

    def test_initial_gap_must_exceed_the_floor(self):
        with pytest.raises(ValueError):
            AccParameters(initial_state=(10.0, 13.89))
        with pytest.raises(ValueError):
            AccParameters(initial_state=(9.0, 13.89))


class TestDynamics:
    def test_gap_rate_at_initial_state(self):
        drift = SYSTEM.f(X0)
        assert drift[0] == pytest.approx(6.11, abs=1e-12)

    def test_drag_deceleration_at_initial_state(self):
        drift = SYSTEM.f(X0)
        assert drift[1] == pytest.approx(-hand_drag(13.89) / 1650.0, rel=1e-15)
        assert drift[1] == pytest.approx(-0.07138, abs=1e-5)

    def test_thrust_cancels_drag(self):
        speed = 27.3
        u = drag_force(PARAMS, speed)
        x = (55.0, speed)
        accel = SYSTEM.f(x)[1] + SYSTEM.g(x)[1][0] * u
        assert accel == pytest.approx(0.0, abs=1e-15)

    def test_disturbance_ports_are_identity_rows(self):
        assert SYSTEM.h((42.0, 11.0)) == ((1.0, 0.0), (0.0, 1.0))

    def test_portless_variant_has_zero_rows(self):
        quiet = acc_system(PARAMS, disturbed=False)
        assert quiet.h((42.0, 11.0)) == ((0.0, 0.0), (0.0, 0.0))

    def test_declared_dimensions(self):
        assert (SYSTEM.n, SYSTEM.p, SYSTEM.q) == (2, 1, 2)
        assert (SYSTEM.ird_m, SYSTEM.drd_r) == (2, 1)

    def test_relative_degrees_hold_at_100_random_states(self):
        report = verify_relative_degree(SYSTEM, BARRIER, operating_states(100, 2024))
        assert report.ird_ok
        assert report.drd_ok


class TestBarrier:
    def test_initial_margin(self):
        assert BARRIER.value((100.0, 13.89)) == 90.0

    def test_zero_on_the_floor(self):
        assert BARRIER.value((10.0, 33.0)) == 0.0

    def test_gradient_is_unit_gap_direction(self):
        assert BARRIER.gradient((67.0, 21.0)) == (1.0, 0.0)

    def test_gradient_matches_finite_differences(self):
        for x in operating_states(10, 55):
            fd = fd_gradient(BARRIER.value, x)
            grad = BARRIER.gradient(x)
            for a, b in zip(grad, fd):
                assert a == pytest.approx(b, abs=1e-6)


class TestTrackingPieces:
    def test_speed_error_energy(self):
        clf = speed_tracking_clf(PARAMS)
        assert clf.V.value(X0) == pytest.approx((13.89 - 35.0) ** 2, rel=1e-15)
        assert clf.V.gradient((80.0, 30.0)) == pytest.approx((0.0, 2.0 * (30.0 - 35.0)))
        assert clf.sigma == 10.0
        assert clf.slack_weight == 2.0

    def test_effort_objective(self):
        h, f_row = tracking_objective(PARAMS)
        assert h == ((pytest.approx(2.0 / 1650.0**2, rel=1e-15),),)
        got = f_row((0.0, 13.89))[0]
        assert got == pytest.approx(-2.0 * hand_drag(13.89) / 1650.0**2, rel=1e-15)

    def test_verification_samples_are_strictly_safe(self):
        for x in verification_samples(PARAMS):
            assert x[0] > PARAMS.min_distance


class TestClosedFormRobust:
    def test_first_drift_at_initial_state(self):
        terms = closed_form_robust_terms(PARAMS, X0, GAINS, case_bound(1))
        assert terms["first_drift"] == pytest.approx(3.61, abs=1e-12)

    def test_top_drift_at_initial_speed(self):
        terms = closed_form_robust_terms(PARAMS, X0, GAINS, case_bound(1))
        assert terms["top_drift"] == pytest.approx(
            hand_drag(13.89) / 1650.0 - 2.5, rel=1e-15
        )
        assert terms["top_drift"] == pytest.approx(-2.42861, abs=1e-5)

    def test_huge_first_gain_removes_the_penalty(self):
        terms = closed_form_robust_terms(PARAMS, X0, (1e12, 0.1), 0.0)
        assert terms["first_drift"] == pytest.approx(6.11, abs=1e-10)

    def test_control_row_is_inverse_mass(self):
        terms = closed_form_robust_terms(PARAMS, X0, GAINS, case_bound(1))
        assert terms["control_row"] == (pytest.approx(-1.0 / 1650.0, rel=1e-15),)


class TestRobustCrossOracle:
    def test_generic_chain_matches_closed_forms_at_100_states(self):
        bound = case_bound(1)
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, bound)
        worst = 0.0
        for x in operating_states(100, 77):
            ev = chain.evaluate(x)
            ref = closed_form_robust_terms(PARAMS, x, GAINS, bound)
            diffs = [
                abs(ev.levels[0] - ref["levels"][0]),
                abs(ev.levels[1] - ref["levels"][1]),
                abs(ev.top_drift - ref["top_drift"]),
                abs(ev.control_row[0] - ref["control_row"][0]),
                abs(ev.phi[0] - ref["phi"][0]),
                abs(ev.phi[1] - ref["phi"][1]),
            ]
            _, con, events = evaluate_with_clamping(chain, x)
            assert events == ()
            diffs.append(abs(con.offset - ref["offset"]))
            diffs.append(abs(con.row[0] - ref["control_row"][0]))
            worst = max(worst, max(diffs))
        assert worst <= 1e-9

    def test_case_bounds(self):
        assert case_bound(1) == pytest.approx(math.sqrt(45.25), rel=1e-15)
        assert case_bound(2) == pytest.approx(math.sqrt(21.25), rel=1e-15)
        assert case_bound(3) == pytest.approx(math.sqrt(162.0), rel=1e-15)


class TestClosedFormAdaptive:
    def test_first_energy_at_initial_state(self):
        terms = closed_form_adaptive_terms(PARAMS, X0, GAINS, RATES)
        assert terms["gamma"][0] == pytest.approx(1.0 / 90.0, rel=1e-15)
        assert terms["gamma"][0] == pytest.approx(0.011111, abs=1e-6)

    def test_adaptive_terms_vanish_far_from_the_boundary(self):
        terms = closed_form_adaptive_terms(PARAMS, (1e9, 13.89), GAINS, RATES)
        assert terms["top_drift"] == pytest.approx(
            hand_drag(13.89) / 1650.0 - 2.5, abs=1e-12
        )

    def test_generic_chain_matches_closed_forms_at_100_interior_states(self):
        chain = build_adrcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, RATES)
        rng = random.Random(424242)
        accepted = []
        while len(accepted) < 100:
            x = (rng.uniform(10.5, 200.0), rng.uniform(0.0, 40.0))
            if membership(chain, x)["min_margin"] > 1e-2:
                accepted.append(x)
        worst = 0.0
        for x in accepted:
            ev = chain.evaluate(x)
            ref = closed_form_adaptive_terms(PARAMS, x, GAINS, RATES)
            _, con, events = evaluate_with_clamping(chain, x)
            assert events == ()
            diffs = [
                abs(ev.levels[0] - ref["levels"][0]),
                abs(ev.levels[1] - ref["levels"][1]),
                abs(ev.top_drift - ref["top_drift"]),
                abs(ev.control_row[0] - ref["control_row"][0]),
                abs(ev.phi[0] - ref["phi"][0]),
                abs(ev.phi[1] - ref["phi"][1]),
                abs(chain.gamma[0].value(x) - ref["gamma"][0]),
                abs(chain.penalty(ev.phi[-1]) - ref["gamma"][1]),
                abs(con.offset - ref["offset"]),
                abs(con.row[0] - ref["control_row"][0]),
            ]
            worst = max(worst, max(diffs))
        assert worst <= 1e-9


class TestUnitDisturbanceRows:
    def test_both_cascade_levels_see_unit_norm_ports(self):
        chain = build_drcbf_chain(SYSTEM, BARRIER, TABLE, GAINS, case_bound(1))
        for x in operating_states(100, 909):
            for level in chain.levels:
                row = lie_h(level, SYSTEM, x)
                norm = math.sqrt(sum(v * v for v in row))
                assert norm == pytest.approx(1.0, rel=1e-12)


class TestCaseCatalog:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            case_disturbance_spec(4)
        with pytest.raises(ValueError):
            case_config(4, "drcbf")

    def test_gain_multiplier_reserved_for_the_sweep_case(self):
        with pytest.raises(ValueError):
            case_config(1, "drcbf", gain_multiplier=2.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            case_config(1, "bang-bang")

    def test_case1_channels_mix_held_noise_and_waves(self):
        spec = case_disturbance_spec(1)
        assert len(spec.channels) == 2
        assert all(len(ch) == 2 for ch in spec.channels)

    def test_case2_signal_at_start(self):
        realization = realize(case_disturbance_spec(2), 1.0)
        assert evaluate(realization, 0.0) == (1.5, 2.0)

    def test_fixed_gain_cases_use_study_defaults(self):
        config = case_config(1, "drcbf", verify=False)
        assert config.controller.chain.k == (0.1, 0.1)
        assert config.controller.chain.disturbance_bound == pytest.approx(
            math.sqrt(45.25), rel=1e-15
        )

    def test_sweep_case_derives_least_conservative_gains(self):
        config = case_config(3, "drcbf", verify=False)
        expected = optimal_k((1.0, 1.0), case_bound(3))
        assert config.controller.chain.k == expected
        for gain in config.controller.chain.k:
            assert gain == pytest.approx(0.039283710065919304, rel=1e-15)
            assert gain == pytest.approx(1.0 / (2.0 * math.sqrt(162.0)), rel=1e-15)

    def test_sweep_case_gain_multiplier_scales(self):
        config = case_config(3, "drcbf", gain_multiplier=10.0, verify=False)
        base = optimal_k((1.0, 1.0), case_bound(3))
        for got, ref in zip(config.controller.chain.k, base):
            assert got == pytest.approx(10.0 * ref, rel=1e-15)

    def test_sweep_case_adaptive_uses_rates_as_the_knob(self):
        config = case_config(
            3, "adrcbf", adaptive_rates=(100.0, 100.0), verify=False
        )
        assert config.controller.chain.r == (100.0, 100.0)
        assert config.controller.chain.k == optimal_k((1.0, 1.0), case_bound(3))


class TestStudyBuilder:
    def test_case_and_spec_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            build_study(
                "drcbf",
                case=1,
                disturbance_spec=case_disturbance_spec(2),
                verify=False,
            )

    def test_explicit_bound_overrides_the_nominal_one(self):
        config = build_study("drcbf", case=1, disturbance_bound=2.0, verify=False)
        assert config.controller.chain.disturbance_bound == 2.0

    def test_explicit_gains_win_over_derived_ones(self):
        config = build_study(
            "drcbf", case=3, gains=(0.2, 0.3), use_optimal_gains=True, verify=False
        )
        assert config.controller.chain.k == (0.2, 0.3)

    def test_disturbance_free_study_collapses_the_ports(self):
        config = build_study("drcbf", verify=False)
        assert config.disturbance is None
        assert config.controller.chain.disturbance_bound == 0.0
        assert config.system.h((50.0, 20.0)) == ((0.0, 0.0), (0.0, 0.0))


class TestSummary:
    def test_empty_log_reports_no_records(self):
        summary = summarize_log(TrajectoryLog(), PARAMS)
        assert summary["records"] == 0
        assert "min_distance" not in summary

    def test_summary_recomputes_from_the_log(self):
        config = build_study("drcbf", case=2, horizon=1.0, verify=False)
        log = run_simulation(config)
        summary = summarize_log(log, PARAMS)
        gaps = [s[0] for s in log.states]
        assert summary["records"] == len(log.times) == 1000
        assert not summary["failed"]
        assert summary["min_distance"] == min(gaps)
        assert summary["min_margin"] == summary["min_distance"] - 10.0
        assert summary["violation"] is False
        assert summary["min_phi"] == min(min(row) for row in log.phi)
        tail = gaps[-200:]
        assert summary["steady_state_distance"] == pytest.approx(
            sum(tail) / len(tail), rel=1e-15
        )
        assert summary["final_distance"] == log.final_state[0]
        assert summary["guard_event_total"] == 0
        assert isinstance(summary["steady"], bool)
        assert math.isfinite(summary["mean_control"])
