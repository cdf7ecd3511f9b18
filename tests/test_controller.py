"""Per-step safety filter: CLF row algebra, QP assembly, hard-vs-slack roles."""

import math
import sys
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from drcbf import controller
from drcbf.adaptive import build_adrcbf_chain
from drcbf.controller import (
    ClfSpec,
    ControllerError,
    ControllerSpec,
    ControlStepResult,
    _generic_control_step,
    clf_constraint,
    control_step,
)
from drcbf.disturbances import evaluate as evaluate_signal
from drcbf.fields import ControlAffineSystem, as_state, clamped_guards, field_from_callable
from drcbf.poles import coefficients_from_poles
from drcbf.qp import QpProblem, solve_qp
from drcbf.robust import (
    BarrierConstructionError,
    DegenerateConstraintError,
    build_drcbf_chain,
    build_hocbf_chain,
)
from drcbf.simulate import integrate_step
from drcbf.acc import (
    AccParameters,
    acc_system,
    build_acc_controller,
    build_study,
    case_bound,
    drag_force,
    speed_tracking_clf,
)

from oracles import ceiling_barrier, fd_gradient, triple_integrator

PARAMS = AccParameters()
SYSTEM = acc_system(PARAMS)
BOUND = case_bound(1)


def drcbf_spec(**kwargs):
    return build_acc_controller(PARAMS, "drcbf", disturbance_bound=BOUND, **kwargs)


class TestClfSpec:
    def test_rejects_nonpositive_decay(self):
        V = field_from_callable(lambda x: x[1] * x[1], 2)
        with pytest.raises((ValueError, ControllerError)):
            ClfSpec(V=V, sigma=0.0, slack_weight=1.0)

    def test_rejects_nonpositive_slack_weight(self):
        V = field_from_callable(lambda x: x[1] * x[1], 2)
        with pytest.raises((ValueError, ControllerError)):
            ClfSpec(V=V, sigma=1.0, slack_weight=-1.0)


class TestClfConstraint:
    def test_row_and_offset_reduce_to_tracking_form(self):
        # For V = (v_f - v_d)^2 the slacked decay condition collapses to
        # (2/M)(v_f - v_d)(u - F_r) <= -sigma V + slack.
        clf = speed_tracking_clf(PARAMS)
        x = (80.0, 22.0)
        con = clf_constraint(clf, SYSTEM, x)
        err = x[1] - PARAMS.desired_speed
        assert con.sense == "<="
        assert len(con.row) == 2  # control plus slack column
        assert con.row[0] == pytest.approx(2.0 * err / PARAMS.mass, rel=1e-12)
        assert con.row[1] == -1.0
        v = err * err
        drift = 2.0 * err * (-drag_force(PARAMS, x[1]) / PARAMS.mass)
        assert con.offset == pytest.approx(-PARAMS.clf_decay * v - drift, rel=1e-12)
        # Equivalence with the tracking form at a probe control value.
        u, slack = 500.0, 3.0
        lhs_direct = con.row[0] * u + con.row[1] * slack - con.offset
        lhs_tracking = (
            2.0 / PARAMS.mass * err * (u - drag_force(PARAMS, x[1]))
            + PARAMS.clf_decay * v
            - slack
        )
        assert lhs_direct == pytest.approx(lhs_tracking, rel=1e-9)

    def test_target_state_needs_no_effort(self):
        clf = speed_tracking_clf(PARAMS)
        x = (80.0, PARAMS.desired_speed)
        con = clf_constraint(clf, SYSTEM, x)
        assert con.row[0] == 0.0
        assert con.offset == 0.0
        # (u, slack) = (anything, 0) satisfies the row with equality.
        assert con.row[0] * 123.0 + con.row[1] * 0.0 <= con.offset

    def test_drift_term_matches_finite_difference(self):
        clf = speed_tracking_clf(PARAMS)
        x = (55.0, 17.0)
        con = clf_constraint(clf, SYSTEM, x)
        grad = fd_gradient(clf.V.value, x)
        f = SYSTEM.f(x)
        drift = grad[0] * f[0] + grad[1] * f[1]
        v = clf.V.value(x)
        assert con.offset == pytest.approx(-PARAMS.clf_decay * v - drift, rel=1e-6)


class TestControllerSpecValidation:
    def test_rejects_asymmetric_objective(self):
        clf = speed_tracking_clf(PARAMS)
        chain = drcbf_spec().chain
        with pytest.raises((ValueError, ControllerError)):
            ControllerSpec(
                chain=chain,
                clf=clf,
                objective_h=((1.0, 0.2), (0.0, 1.0)),
                objective_f=(0.0, 0.0),
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises((ValueError, ControllerError)):
            build_acc_controller(PARAMS, "bang-bang")

    def test_constant_objective_row_is_accepted(self):
        clf = speed_tracking_clf(PARAMS)
        chain = drcbf_spec().chain
        spec = ControllerSpec(
            chain=chain,
            clf=clf,
            objective_h=((2.0,),),
            objective_f=(0.5,),
        )
        assert spec.objective_f((100.0, 13.89)) == (0.5,)


class TestControlStep:
    def test_nominal_step_is_optimal_and_sized(self):
        res = control_step(drcbf_spec(), (100.0, 13.89), 0.0)
        assert res.qp_status == "optimal"
        assert len(res.u) == 1
        assert len(res.phi) == 2
        assert res.guard_events == ()
        assert math.isfinite(res.slack)

    def test_inactive_safety_row_defers_to_tracking_program(self):
        # At the initial state the safety margin is huge, so the answer must
        # match the tracking-only program solved from first principles.
        spec = drcbf_spec()
        x = (100.0, 13.89)
        res = control_step(spec, x, 0.0)
        assert res.cbf_residual > 1.0  # safety row strictly slack
        clf = clf_constraint(spec.clf, SYSTEM, x)
        q = 2.0 / PARAMS.mass**2
        f_lin = -2.0 * drag_force(PARAMS, x[1]) / PARAMS.mass**2
        rho = PARAMS.slack_weight
        # KKT of min q u^2 + f u + rho s^2 s.t. a u - s = off (active row):
        kkt = np.array(
            [
                [2.0 * q, 0.0, clf.row[0]],
                [0.0, 2.0 * rho, clf.row[1]],
                [clf.row[0], clf.row[1], 0.0],
            ]
        )
        u_ref, s_ref, _ = np.linalg.solve(kkt, [-f_lin, 0.0, clf.offset])
        assert res.u[0] == pytest.approx(u_ref, rel=1e-9)
        assert res.slack == pytest.approx(s_ref, rel=1e-9)

    def test_binding_safety_row_has_zero_residual(self):
        # Close gap at high approach speed: the filter must clamp thrust so
        # the safety row holds with equality.
        spec = drcbf_spec()
        x = (10.7, 35.0)
        res = control_step(spec, x, 0.0)
        assert res.qp_status == "optimal"
        assert abs(res.cbf_residual) <= 1e-9 * max(1.0, abs(res.u[0]))

    def test_hard_safety_row_never_negative(self):
        spec = drcbf_spec()
        for x in ((100.0, 13.89), (30.0, 25.0), (12.0, 30.0), (10.7, 35.0)):
            res = control_step(spec, x, 0.0)
            assert res.cbf_residual >= -1e-9

    def test_dropping_inactive_safety_row_changes_nothing(self):
        # Slack is consumed by tracking alone whenever the safety row is
        # inactive: re-solve without it and compare.
        spec = drcbf_spec()
        for x in ((100.0, 13.89), (70.0, 20.0), (40.0, 10.0)):
            res = control_step(spec, x, 0.0)
            assert res.cbf_residual > 1e-6
            clf = clf_constraint(spec.clf, SYSTEM, x)
            q = 2.0 / PARAMS.mass**2
            f_lin = -2.0 * drag_force(PARAMS, x[1]) / PARAMS.mass**2
            reduced = solve_qp(
                QpProblem(
                    Q=((2.0 * q, 0.0), (0.0, 2.0 * PARAMS.slack_weight)),
                    c=(f_lin, 0.0),
                    A=(clf.row,),
                    b=(clf.offset,),
                )
            )
            assert reduced.status == "optimal"
            assert res.u[0] == pytest.approx(reduced.z[0], rel=1e-9, abs=1e-9)
            assert res.slack == pytest.approx(reduced.z[1], rel=1e-9, abs=1e-9)

    def test_clf_residual_accounts_for_slack(self):
        spec = drcbf_spec()
        res = control_step(spec, (100.0, 13.89), 0.0)
        # Satisfied slacked row: row.u - slack <= offset, residual >= -tol.
        assert res.clf_residual >= -1e-9

    def test_determinism(self):
        spec = drcbf_spec()
        first = control_step(spec, (42.0, 19.0), 0.0)
        second = control_step(spec, (42.0, 19.0), 0.0)
        assert first.u == second.u
        assert first.slack == second.slack
        assert first.phi == second.phi

    def test_adaptive_mode_flags_guard_events_near_boundary(self):
        spec = build_acc_controller(PARAMS, "adrcbf")
        res = control_step(spec, (10.0 + 1e-12, 20.0), 0.0)
        assert res.guard_events
        assert res.qp_status == "optimal"
        assert math.isfinite(res.u[0])

    def test_adaptive_mode_clean_in_interior(self):
        spec = build_acc_controller(PARAMS, "adrcbf")
        res = control_step(spec, (100.0, 13.89), 0.0)
        assert res.guard_events == ()

    def test_nominal_mode_reports_plain_levels(self):
        spec = build_acc_controller(PARAMS, "hocbf")
        res = control_step(spec, (100.0, 13.89), 0.0)
        assert res.phi[0] == 90.0
        assert res.qp_status == "optimal"

    def test_modes_agree_when_safety_is_irrelevant(self):
        # Far from the boundary all three safety variants leave the QP's
        # tracking part in charge, so the applied control coincides.
        controls = {}
        for mode in ("hocbf", "drcbf", "adrcbf"):
            spec = build_acc_controller(
                PARAMS, mode, disturbance_bound=BOUND if mode == "drcbf" else 0.0
            )
            controls[mode] = control_step(spec, (150.0, 13.89), 0.0).u[0]
        assert controls["hocbf"] == pytest.approx(controls["drcbf"], rel=1e-12)
        assert controls["hocbf"] == pytest.approx(controls["adrcbf"], rel=1e-12)


def assert_same_as_generic(spec, x, t=0.0):
    # == on the whole result, and repr to tell -0.0 from 0.0.
    got = control_step(spec, x, t)
    want = _generic_control_step(spec, x, t)
    assert got == want
    assert repr(got) == repr(want)
    return got


def compiled(spec, x):
    """The compiled step's own result at x, or None where it defers."""
    return spec._step(as_state(x, spec.system.n))


def plant_with_input_gain(gain):
    """x0' = 5 - x1, x1' = gain(x) u + d: the control row of b = x0 - 1
    is -gain(x), so gain decides where the safety row degenerates."""
    return ControlAffineSystem(
        n=2,
        p=1,
        q=1,
        f=lambda x: (5.0 - x[1], 0.0),
        g=lambda x: ((0.0,), (gain(x),)),
        h=lambda x: ((0.0,), (1.0,)),
        ird_m=2,
        drd_r=1,
    )


def hand_built_spec(system, *, V=None, objective_f=(0.0,), chain=None):
    n = system.n
    if chain is None:
        barrier = field_from_callable(lambda x: x[0] - 1.0, n)
        chain = build_hocbf_chain(system, barrier, coefficients_from_poles((1.0, 2.0)))
    if V is None:
        V = field_from_callable(lambda x: (x[1] - 3.0) * (x[1] - 3.0), n)
    return ControllerSpec(
        chain=chain,
        clf=ClfSpec(V=V, sigma=1.0, slack_weight=10.0),
        objective_h=((1.0,),),
        objective_f=objective_f,
    )


class TestCompiledStep:
    """The first step traces a spec's assembly into one function; every
    step's result must equal the generic step's, bit for bit."""

    @pytest.mark.parametrize("mode, case", [("drcbf", 3), ("adrcbf", 3), ("hocbf", 1)])
    def test_every_step_of_a_study_run(self, mode, case):
        config = build_study(mode, case=case, horizon=7.0, verify=False)
        spec, system = config.controller, config.system
        x = config.x0
        for k in range(config.steps):
            t = k * config.control_period
            result = assert_same_as_generic(spec, x, t)
            assert compiled(spec, x) == result
            assert result.qp_status == "optimal"
            d = evaluate_signal(config.disturbance, t)
            x = integrate_step(system, x, result.u, d, config.control_period)

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_states_with_signed_zero_intermediates(self, mode):
        # v_f = 20 and 35 zero the speed gap to the lead and to the desired
        # speed, v_f = ±0 the drag's products and D = 10 the distance
        # margin: traced intermediates that read them are ±0.0, where the
        # simplified step must keep the generic step's bits.
        spec = build_acc_controller(PARAMS, mode)
        for D in (10.0, 100.0, 150.0):
            for v in (0.0, -0.0, 20.0, 35.0):
                assert_same_as_generic(spec, (D, v))

    def test_guard_breach_runs_the_generic_step_with_its_events(self):
        spec = build_acc_controller(PARAMS, "adrcbf")
        assert_same_as_generic(spec, (100.0, 13.89))
        assert spec._step
        breached = (10.0 + 1e-12, 20.0)
        assert compiled(spec, breached) is None
        result = assert_same_as_generic(spec, breached)
        assert result.guard_events
        assert result.guard_events == _generic_control_step(spec, breached, 0.0).guard_events
        # The spec stays compiled for the states that need no clamping.
        assert compiled(spec, (100.0, 13.89)) is not None

    def test_first_step_in_a_clamping_context_is_traced_unclamped(self):
        # The trace runs in an empty context: a breach while tracing fails
        # the trace instead of baking the clamp into the compiled step.
        spec = build_acc_controller(PARAMS, "adrcbf")
        breached = (10.0 + 1e-12, 20.0)
        with clamped_guards():
            first = control_step(spec, breached, 0.0)
        assert spec._step is False
        assert first.guard_events
        assert_same_as_generic(spec, breached)

    def test_untraceable_objective_keeps_the_generic_step(self):
        spec = build_acc_controller(PARAMS, "drcbf", disturbance_bound=BOUND)
        spec = ControllerSpec(
            chain=spec.chain,
            clf=spec.clf,
            objective_h=spec.objective_h,
            objective_f=lambda x: (-1e-3 * math.exp(-x[1] / 10.0),),
        )
        for x in ((100.0, 13.89), (30.0, 25.0), (10.7, 35.0)):
            assert_same_as_generic(spec, x)
        assert spec._step is False

    def test_evaluator_branching_on_a_caught_error_is_not_traced(self):
        def evaluator(x):
            err = x[1] - 3.0
            try:
                weight = 1.0 / (x[0] - 4.0)
            except ZeroDivisionError:
                weight = 0.0
            return err * err * (1.0 + weight * weight)

        system = plant_with_input_gain(lambda x: 1.0)
        spec = hand_built_spec(system, V=field_from_callable(evaluator, 2))
        first = assert_same_as_generic(spec, (4.0, 2.0))
        assert spec._step is False
        assert math.isfinite(first.u[0])
        assert_same_as_generic(spec, (6.0, 2.0))

    @pytest.mark.parametrize(
        "gain, x, error",
        [
            (lambda x: x[1] - 2.0, (4.0, 2.0), DegenerateConstraintError),
            (lambda x: x[1] * 1e300, (4.0, 1e10), BarrierConstructionError),
        ],
    )
    def test_bad_safety_row_raises_as_the_generic_step(self, gain, x, error):
        spec = hand_built_spec(plant_with_input_gain(gain))
        assert_same_as_generic(spec, (4.0, 3.0))
        assert spec._step
        assert compiled(spec, x) is None
        with pytest.raises(error) as want:
            _generic_control_step(spec, x, 0.0)
        with pytest.raises(error) as got:
            control_step(spec, x, 0.0)
        assert str(got.value) == str(want.value)

    def test_concurrent_first_steps_agree_with_the_generic_step(self):
        spec = build_acc_controller(PARAMS, "adrcbf")
        rng = np.random.default_rng(5)
        states = [(float(g), float(v)) for g, v in rng.uniform((12.0, 5.0), (120.0, 30.0), (200, 2))]
        want = [repr(_generic_control_step(spec, x, 0.0)) for x in states]
        assert spec._step is None
        mismatches = []

        def worker():
            for x, expected in zip(states, want):
                if repr(control_step(spec, x, 0.0)) != expected:
                    mismatches.append(x)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        assert spec._step

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_triple_integrator_random_states(self, mode):
        spec = triple_integrator_spec(mode)
        rng = np.random.default_rng(3)
        served = 0
        for x in rng.uniform((-5.0, -3.0, -3.0), (9.5, 3.0, 3.0), (400, 3)):
            x = tuple(map(float, x))
            assert_same_as_generic(spec, x)
            served += compiled(spec, x) is not None
        # Only the adaptive cascade defers, where an energy's guard is
        # breached.
        assert served == 400 if mode != "adrcbf" else served >= 300

    def test_unsolved_qp_is_reported_as_the_generic_step_does(self):
        # Far out, the stability row's offset is ~1e8, whose rounding
        # exceeds the QP's absolute 1e-9 feasibility tolerance: the
        # compiled step reports the failed solve itself.
        spec = triple_integrator_spec("hocbf")
        x = (-9432.692697729579, 4384.395456534807, -9680.165409528561)
        result = assert_same_as_generic(spec, x)
        assert result.qp_status == "infeasible"
        assert result.active_set == ()
        assert compiled(spec, x) == result

    @pytest.mark.parametrize(
        "x, active_set",
        [((4.0, 3.0), ()), ((10.0, 2.0), (0,)), ((-5.0, 3.0), (1,)), ((-5.0, 2.0), (0, 1))],
    )
    def test_each_accepted_active_set(self, x, active_set, monkeypatch):
        # At x1 = 3 the stability row reads -slack <= 0, which the tracking
        # optimum u = 0 meets; the safety row u <= 3(5 - x1) + 2(x0 - 1)
        # cuts it off where x0 is low.
        spec = hand_built_spec(plant_with_input_gain(lambda x: 1.0))
        solutions = []

        def recorded(problem):
            solutions.append(solve_qp(problem))
            return solutions[-1]

        monkeypatch.setattr(controller, "solve_qp", recorded)
        result = assert_same_as_generic(spec, x)
        assert compiled(spec, x) == result
        assert result.active_set == solutions[-1].active_set == active_set
        assert hash(result) == hash(_generic_control_step(spec, x, 0.0))
        assert type(result) is ControlStepResult
        with pytest.raises(FrozenInstanceError):
            result.u = ()

    def test_a_compiled_step_builds_one_object_and_runs_no_init(self):
        # The result is the only object a step makes, not through its
        # dataclass __init__, and no QpSolution: the profile sees no Python
        # call but the step and the one build.
        spec = drcbf_spec()
        x = (10.7, 35.0)
        assert control_step(spec, x, 0.0).active_set == (1,)
        xs = as_state(x, 2)
        python_calls, c_calls = [], []

        def profile(frame, event, arg):
            if event == "call":
                python_calls.append(frame.f_code.co_name)
            elif event == "c_call":
                c_calls.append(arg.__qualname__)

        sys.setprofile(profile)
        try:
            result = spec._step(xs)
        finally:
            sys.setprofile(None)
        assert python_calls == ["traced", "_frozen"]
        assert c_calls.count("object.__new__") == 1
        assert type(result) is ControlStepResult
        assert result == _generic_control_step(spec, x, 0.0)


def triple_integrator_spec(mode):
    system = triple_integrator()
    barrier = ceiling_barrier(10.0)
    coeffs = coefficients_from_poles((1.0, 2.0, 3.0))
    gains = (1.0, 2.0, 3.0)
    chain = {
        "hocbf": lambda: build_hocbf_chain(system, barrier, coeffs),
        "drcbf": lambda: build_drcbf_chain(system, barrier, coeffs, gains, 0.5),
        "adrcbf": lambda: build_adrcbf_chain(system, barrier, coeffs, gains, (1.0, 1.0, 1.0)),
    }[mode]()
    return hand_built_spec(
        system,
        V=field_from_callable(lambda x: (x[1] + x[2] - 1.0) * (x[1] + x[2] - 1.0), 3),
        objective_f=lambda x: (0.5 * x[2],),
        chain=chain,
    )
