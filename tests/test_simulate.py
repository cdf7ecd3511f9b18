"""Closed-loop engine: integrator exactness, grid discipline, fault handling."""

import dataclasses
import math

import pytest

from drcbf import simulate
from drcbf.controller import ClfSpec, ControllerSpec
from drcbf.fields import ControlAffineSystem, GuardEvent, field_from_callable
from drcbf.poles import coefficients_from_poles
from drcbf.robust import build_hocbf_chain
from drcbf.simulate import (
    IntegrationFault,
    SimulationConfig,
    SimulationError,
    integrate_step,
    run_simulation,
)
from drcbf.acc import AccParameters, acc_system, build_study, drag_force, summarize_log

from oracles import rk4_reference

PARAMS = AccParameters()


def scalar_decay_system():
    return ControlAffineSystem(
        n=1, p=1, q=1,
        f=lambda x: (-x[0],),
        g=lambda x: ((0.0,),),
        h=lambda x: ((0.0,),),
        ird_m=1, drd_r=1,
    )


class TestIntegrateStep:
    def test_linear_decay_matches_power_series(self):
        # One step of x' = -x from 1 with h = 0.1:
        # 1 - h + h^2/2 - h^3/6 + h^4/24 = 0.9048375.
        (x_next,) = integrate_step(scalar_decay_system(), (1.0,), (0.0,), (0.0,), 0.1)
        assert x_next == pytest.approx(0.9048375, abs=1e-15)
        assert x_next == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_matches_independent_integrator_on_nonlinear_dynamics(self):
        system = ControlAffineSystem(
            n=2, p=1, q=1,
            f=lambda x: (x[1], -0.3 * x[0] - 0.1 * x[1] * x[1]),
            g=lambda x: ((0.0,), (1.0,)),
            h=lambda x: ((0.0,), (1.0,)),
            ird_m=2, drd_r=2,
        )
        u, d = (0.7,), (-0.2,)
        x = (1.5, -0.4)
        combined = lambda s: (
            s[1] + 0.0,
            -0.3 * s[0] - 0.1 * s[1] * s[1] + u[0] + d[0],
        )
        expected = rk4_reference(combined, x, 0.05)
        got = integrate_step(system, x, u, d, 0.05)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_identity_when_all_maps_vanish(self):
        system = ControlAffineSystem(
            n=2, p=1, q=1,
            f=lambda x: (0.0, 0.0),
            g=lambda x: ((0.0,), (0.0,)),
            h=lambda x: ((0.0,), (0.0,)),
            ird_m=1, drd_r=1,
        )
        assert integrate_step(system, (3.0, -4.0), (9.9,), (1.1,), 0.5) == (3.0, -4.0)

    def test_thrust_cancelling_drag_keeps_speed_exact(self):
        # With u = F_r(v_f) and no disturbance, speed is a fixed point of
        # every stage, so the gap advances exactly linearly.
        system = acc_system(PARAMS)
        x = (100.0, 13.89)
        u = (drag_force(PARAMS, x[1]),)
        h = 1e-3
        nxt = integrate_step(system, x, u, (0.0, 0.0), h)
        assert nxt[1] == x[1]
        assert nxt[0] == pytest.approx(x[0] + (PARAMS.lead_speed - x[1]) * h, rel=1e-15)

    def test_overflow_raises_integration_fault(self):
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (x[0] ** 3,),
            g=lambda x: ((0.0,),),
            h=lambda x: ((0.0,),),
            ird_m=1, drd_r=1,
        )
        x = (10.0,)
        with pytest.raises(IntegrationFault):
            for _ in range(10_000):
                x = integrate_step(system, x, (0.0,), (0.0,), 0.5)


def cubic_runaway_config(horizon=5.0, dt=0.1):
    """A nominal-mode loop whose drift explodes in finite time."""
    system = ControlAffineSystem(
        n=2, p=1, q=1,
        f=lambda x: (x[1] + x[0] ** 3, 0.0),
        g=lambda x: ((0.0,), (1.0,)),
        h=lambda x: ((0.0,), (0.0,)),
        ird_m=2, drd_r=1,
    )
    barrier = field_from_callable(lambda x: x[0] + 1e9, 2)
    chain = build_hocbf_chain(system, barrier, coefficients_from_poles((1.0, 1.0)))
    clf = ClfSpec(
        V=field_from_callable(lambda x: x[1] * x[1], 2),
        sigma=1.0,
        slack_weight=1.0,
    )
    controller = ControllerSpec(
        mode="hocbf",
        chain=chain,
        clf=clf,
        objective_h=((2.0,),),
        objective_f=(0.0,),
        control_period=dt,
    )
    return SimulationConfig(
        system=system,
        controller=controller,
        disturbance=None,
        x0=(10.0, 0.0),
        horizon=horizon,
        control_period=dt,
    )


class TestConfigValidation:
    def test_horizon_must_align_with_period(self):
        with pytest.raises(SimulationError):
            build_study("drcbf", case=2, horizon=0.0105, verify=False)

    def test_nonpositive_horizon_rejected(self):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(SimulationError):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=None,
                x0=good.x0,
                horizon=-1.0,
                control_period=1e-3,
            )

    def test_wrong_initial_state_length(self):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(Exception):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=good.disturbance,
                x0=(100.0,),
                horizon=1.0,
                control_period=1e-3,
            )

    def test_short_disturbance_rejected(self):
        good = build_study("drcbf", case=2, horizon=2.0, verify=False)
        with pytest.raises(SimulationError):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=build_study("drcbf", case=2, horizon=1.0, verify=False).disturbance,
                x0=good.x0,
                horizon=2.0,
                control_period=1e-3,
            )

    def test_step_count(self):
        config = build_study("drcbf", case=2, horizon=2.0, verify=False)
        assert config.steps == 2000


class TestRunSimulation:
    def test_log_structure_on_short_run(self):
        config = build_study("drcbf", case=1, horizon=0.05, verify=False)
        log = run_simulation(config)
        assert not log.failed
        assert len(log) == 50
        assert log.times[0] == 0.0
        assert log.times[-1] == pytest.approx(0.049, abs=1e-12)
        assert log.final_time == pytest.approx(0.05)
        assert len(log.final_state) == 2
        assert all(status == "optimal" for status in log.qp_statuses)
        assert log.metadata["mode"] == "drcbf"
        assert log.metadata["steps"] == 50
        assert len(log.disturbances[0]) == 2

    def test_zero_disturbance_run_logs_zero_disturbance(self):
        config = build_study("hocbf", horizon=0.02, verify=False)
        log = run_simulation(config)
        assert all(d == (0.0, 0.0) for d in log.disturbances)

    def test_initial_state_outside_safe_set_rejected(self):
        # Swapped in after construction: the parameter layer refuses to build
        # an unsafe start, and the runner must still defend itself.
        good = build_study("drcbf", case=1, verify=False)
        with pytest.raises(SimulationError):
            run_simulation(dataclasses.replace(good, x0=(9.0, 13.89)))

    def test_initial_state_on_adaptive_boundary_rejected(self):
        good = build_study("adrcbf", case=1, verify=False)
        with pytest.raises(SimulationError):
            run_simulation(dataclasses.replace(good, x0=(10.0, 13.89)))

    def test_determinism(self):
        first = run_simulation(build_study("drcbf", case=1, horizon=2.0, verify=False))
        second = run_simulation(build_study("drcbf", case=1, horizon=2.0, verify=False))
        assert first.states == second.states
        assert first.controls == second.controls
        assert first.slacks == second.slacks
        assert first.disturbances == second.disturbances

    def test_nominal_mode_stays_in_every_level_set_without_disturbance(self):
        log = run_simulation(build_study("hocbf", horizon=2.0, verify=False))
        assert not log.failed
        for phi in log.phi:
            assert all(v >= 0.0 for v in phi)

    def test_integration_fault_truncates_run(self):
        log = run_simulation(cubic_runaway_config())
        assert log.failed
        assert "fault" in log.failure_reason
        assert 0 < len(log) < 50
        assert log.final_time < 5.0
        summary = summarize_log(log, PARAMS)
        assert summary["failed"]

    def test_guard_events_of_an_aborted_step_are_counted_once(self, monkeypatch):
        # The step that stops the run still appears in the log, so its guard
        # events belong in the run's total as well as in the summary's.
        config = build_study("adrcbf", case=1, horizon=0.05, verify=False)
        real_step = simulate.control_step

        def clamped_and_infeasible(controller, x, t):
            result = real_step(controller, x, t)
            if t < 0.002:
                return result
            return dataclasses.replace(
                result, qp_status="infeasible", guard_events=(GuardEvent(1e-13, 1e-12),)
            )

        monkeypatch.setattr(simulate, "control_step", clamped_and_infeasible)
        log = run_simulation(config)
        assert log.failed
        assert "infeasible" in log.failure_reason
        assert len(log) == 3
        assert log.guard_event_counts[-1] == 1
        assert log.metadata["guard_event_total"] == sum(log.guard_event_counts) >= 1
        assert summarize_log(log, PARAMS)["guard_event_total"] == log.metadata["guard_event_total"]

    def test_substep_refinement_preserves_grid(self):
        config = build_study(
            "drcbf", case=2, horizon=0.05, integrator_substeps=4, verify=False
        )
        log = run_simulation(config)
        assert len(log) == 50
        assert not log.failed


class TestStepSizeRobustness:
    def test_halving_the_period_barely_moves_the_minimum_gap(self):
        # The closed loop is insensitive to the control grid at these rates:
        # halving the period changes the minimum barrier value by < 1e-3 m.
        horizon = 12.0
        coarse = run_simulation(
            build_study("drcbf", case=2, horizon=horizon, verify=False)
        )
        fine = run_simulation(
            build_study(
                "drcbf",
                case=2,
                horizon=horizon,
                control_period=5e-4,
                verify=False,
            )
        )
        assert not coarse.failed and not fine.failed
        min_coarse = min(s[0] for s in coarse.states)
        min_fine = min(s[0] for s in fine.states)
        assert abs(min_coarse - min_fine) <= 1e-3
