"""Closed-loop engine: integrator exactness, grid discipline, fault handling."""

import ast
import dataclasses
import gc
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drcbf import _trace, simulate
from drcbf.adaptive import AdrcbfChain
from drcbf.controller import ClfSpec, ControllerSpec, control_step
from drcbf.disturbances import evaluate as evaluate_signal
from drcbf.fields import (
    ControlAffineSystem,
    GuardEvent,
    _CheckedState,
    clamped_guards,
    coordinate_field,
    field_from_callable,
    reciprocal_field,
)
from drcbf.disturbances import (
    Constant,
    DisturbanceError,
    SignalRealization,
    SignalSpec,
    Sinusoid,
    UniformNoise,
    realize,
)
from drcbf.poles import coefficients_from_poles
from drcbf.robust import (
    BarrierConstructionError,
    DrcbfChain,
    HocbfChain,
    build_hocbf_chain,
    membership,
)
from drcbf.simulate import (
    IntegrationFault,
    SimulationConfig,
    SimulationError,
    _generic_integrate_step,
    integrate_step,
    run_simulation,
)
from drcbf.acc import (
    AccParameters,
    acc_system,
    build_study,
    case_bound,
    drag_force,
    summarize_log,
)

import oracles
from oracles import (
    assert_same_run,
    planar_config,
    reference_run,
    rk4_reference,
    triple_integrator,
    triple_integrator_config,
)

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


def cubic_runaway_config(horizon=5.0, dt=0.1, cube=lambda v: v ** 3):
    """A nominal-mode loop whose drift explodes in finite time."""
    system = ControlAffineSystem(
        n=2, p=1, q=1,
        f=lambda x: (x[1] + cube(x[0]), 0.0),
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
        chain=chain,
        clf=clf,
        objective_h=((2.0,),),
        objective_f=(0.0,),
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

    @pytest.mark.parametrize("period", [0.0, -1e-3, math.nan])
    def test_nonpositive_or_nan_control_period_rejected(self, period):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(SimulationError, match="control period must be strictly positive"):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=None,
                x0=good.x0,
                horizon=1.0,
                control_period=period,
            )

    @pytest.mark.parametrize("horizon, period", [(1e306, 1e-3), (1.0, 5e-324)])
    def test_a_step_count_that_overflows_is_rejected(self, horizon, period):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(SimulationError, match="more control periods than a float holds"):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=None,
                x0=good.x0,
                horizon=horizon,
                control_period=period,
            )

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(SimulationError, match="horizon must be finite and strictly positive"):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=None,
                x0=good.x0,
                horizon=horizon,
                control_period=1e-3,
            )

    @pytest.mark.parametrize("substeps", [2.0, 1.5, 0, "2"])
    def test_substeps_must_be_an_integer_of_at_least_one(self, substeps):
        good = build_study("drcbf", case=2, horizon=1.0, verify=False)
        with pytest.raises(SimulationError, match="integrator substeps must be an integer"):
            SimulationConfig(
                system=good.system,
                controller=good.controller,
                disturbance=None,
                x0=good.x0,
                horizon=1.0,
                control_period=1e-3,
                integrator_substeps=substeps,
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

    def test_a_step_count_above_the_cap_is_rejected(self):
        good = build_study("drcbf", horizon=1.0, verify=False)
        fields = dict(system=good.system, controller=good.controller, disturbance=None, x0=good.x0)
        assert SimulationConfig(**fields, horizon=1e4).steps == 10**7
        with pytest.raises(SimulationError, match="more than 10000000 control periods"):
            SimulationConfig(**fields, horizon=1e4 + 1e-3)


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

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_the_log_labels_a_run_by_its_cascade(self, mode):
        # A spec holds no label of its own: one built on a study's chain
        # alone logs that chain's cascade.
        config = build_study(mode, case=1, horizon=0.01, verify=False)
        spec = config.controller
        controller = ControllerSpec(chain=spec.chain, clf=spec.clf,
                                    objective_h=spec.objective_h, objective_f=spec.objective_f)
        log = run_simulation(dataclasses.replace(config, controller=controller))
        assert type(spec.chain) is {"hocbf": HocbfChain, "drcbf": DrcbfChain,
                                    "adrcbf": AdrcbfChain}[mode]
        assert spec.chain.mode == mode
        assert log.metadata["mode"] == mode

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
        # The integrator does not know the time; the run's reason states it once.
        assert "nan" not in log.failure_reason
        assert 0 < len(log) < 50
        assert log.final_time < 5.0
        summary = summarize_log(log, PARAMS)
        assert summary["failed"]

    def test_guard_events_of_an_aborted_step_are_counted_once(self, monkeypatch):
        # The step that stops the run still appears in the log, so its guard
        # events belong in the run's total as well as in the summary's.
        config = build_study("adrcbf", case=1, horizon=0.05, verify=False)
        assert_same_run(config)

        def clamped_and_infeasible(controller, x, t):
            result = control_step(controller, x, t)
            if t < 0.002:
                return result
            return dataclasses.replace(
                result, qp_status="infeasible", guard_events=(GuardEvent(1e-13, 1e-12),)
            )

        monkeypatch.setattr(oracles, "control_step", clamped_and_infeasible)
        log = reference_run(config)
        assert log.failed
        assert "infeasible" in log.failure_reason
        assert len(log) == 3
        assert log.guard_event_counts[-1] == 1
        assert log.metadata["guard_event_total"] == sum(log.guard_event_counts) >= 1
        assert summarize_log(log, PARAMS)["guard_event_total"] == log.metadata["guard_event_total"]
        # run_simulation's per-step body, which takes every step of a run
        # that is not traced, records the same.
        monkeypatch.setattr(simulate, "control_step", clamped_and_infeasible)
        monkeypatch.setattr(simulate, "_compile_loop", lambda config, log: None)
        body_log = run_simulation(config)
        assert body_log.metadata.pop("fallback_steps") == 3
        assert repr(body_log) == repr(log)

    @pytest.mark.parametrize("substeps", [1, 2])
    def test_one_integrate_step_call_per_substep(self, monkeypatch, substeps):
        # The reference loop calls integrate_step once per substep, with the
        # substep's length.
        config = build_study(
            "drcbf", case=1, horizon=1.0, integrator_substeps=substeps, verify=False
        )
        assert_same_run(config)
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return integrate_step(*args)

        monkeypatch.setattr(oracles, "integrate_step", counting)
        log = reference_run(config)
        assert not log.failed
        assert len(calls) == 1000 * substeps
        assert set(calls) == {1e-3 / substeps}

    def test_a_30_s_run_allocates_under_5_mb(self):
        # The log packs each step's floats into one array of doubles: 11
        # doubles plus three list slots, about 112 B a step, where a float
        # object per value, four tuples and eleven list slots took 16 MB.
        config = build_study("drcbf", case=1, horizon=30.0, verify=False)
        run_simulation(config)
        gc.collect()
        tracemalloc.start()
        try:
            log = run_simulation(config)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(log) == 30000 and not log.failed
        assert allocated <= 5_000_000

    def test_substep_refinement_preserves_grid(self):
        config = build_study(
            "drcbf", case=2, horizon=0.05, integrator_substeps=4, verify=False
        )
        log = run_simulation(config)
        assert len(log) == 50
        assert not log.failed


def same_as_generic(system, x, u, d, h):
    """integrate_step's state, or its exception, checked against the generic
    step's: equal, with the same repr and entry types."""
    try:
        want = _generic_integrate_step(system, x, u, d, h)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            integrate_step(system, x, u, d, h)
        assert str(got.value) == str(exc)
        return got.value
    got = integrate_step(system, x, u, d, h)
    assert got == want
    assert repr(got) == repr(want)
    assert list(map(type, got)) == list(map(type, want))
    if got.__class__ is _CheckedState:
        assert all(v.__class__ is float and math.isfinite(v) for v in got)
    return got


def served(system, x, u, d, h):
    """Whether the traced RK4 step computes this step itself."""
    if not system._rk4 or (len(x), len(u), len(d)) != (system.n, system.p, system.q):
        return False
    try:
        system._rk4(x, u, d, h)
    except Exception:
        return False
    return True


class TestCompiledRk4:
    """The first integrate_step traces one RK4 step of the system into one
    function; every step must equal the generic step's, bit for bit."""

    @pytest.mark.parametrize("mode, case", [("drcbf", 3), ("adrcbf", 3), ("hocbf", 1)])
    def test_every_step_of_a_study_run(self, mode, case):
        config = build_study(mode, case=case, horizon=7.0, verify=False)
        spec, system, dt = config.controller, config.system, config.control_period
        x = config.x0
        for k in range(config.steps):
            t = k * dt
            u = control_step(spec, x, t).u
            d = evaluate_signal(config.disturbance, t)
            x_next = same_as_generic(system, x, u, d, dt)
            assert served(system, x, u, d, dt)
            assert x_next.__class__ is _CheckedState
            x = x_next

    def test_signed_zero_states_and_inputs(self):
        # Speeds of 0, -0, 20 and 35 and zero controls and disturbances of
        # either sign make traced intermediates ±0.0.
        system = build_study("drcbf", case=1, horizon=0.01, verify=False).system
        for v in (0.0, -0.0, 20.0, 35.0):
            for u in ((0.0,), (-0.0,), (1.5,)):
                for d in ((0.0, -0.0), (-0.0, 0.0), (0.3, -0.2)):
                    same_as_generic(system, (10.0, v), u, d, 1e-3)
                    assert served(system, (10.0, v), u, d, 1e-3)

    def test_a_folded_overflow_faults_as_the_generic_step(self):
        # x0 * x0 is read only through (x0 * x0) * 0.0, which the trace folds
        # and checks x0 * x0 for instead: where it overflows, the state is
        # finite but the generic step faults on 1.0 + nan.
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (x[0] * x[0] * 0.0 + 1.0,),
            g=lambda x: ((1.0,),),
            h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        assert same_as_generic(system, (1.0,), (0.5,), (0.0,), 0.1).__class__ is _CheckedState
        assert served(system, (-3.0,), (0.5,), (0.25,), 0.1)
        assert isinstance(same_as_generic(system, (1e200,), (0.5,), (0.0,), 0.1), IntegrationFault)
        assert not served(system, (1e200,), (0.5,), (0.0,), 0.1)

    def test_triple_integrator_random_inputs(self):
        system = triple_integrator()
        rng = np.random.default_rng(11)
        for h in (1e-3, 5e-4, 0.1):
            for row in rng.uniform(-50.0, 50.0, (700, 6)):
                x, u, d = tuple(map(float, row[:3])), (float(row[3]),), tuple(map(float, row[4:]))
                assert same_as_generic(system, x, u, d, h).__class__ is _CheckedState
                assert served(system, x, u, d, h)

    def test_every_substep_of_a_run(self, monkeypatch):
        config = build_study("drcbf", case=2, horizon=1.0, integrator_substeps=2, verify=False)
        substeps = []

        def checked(system, x, u, d, h):
            substeps.append(served(system, x, u, d, h))
            return same_as_generic(system, x, u, d, h)

        monkeypatch.setattr(oracles, "integrate_step", checked)
        log = reference_run(config)
        assert not log.failed
        # The first substep traces the system, so only it is not yet served.
        assert substeps == [False] + [True] * 1999
        assert_same_run(
            build_study("drcbf", case=2, horizon=1.0, integrator_substeps=2, verify=False)
        )

    def test_flipped_branch_runs_the_generic_step(self):
        # x' = |x| from a comparison, whose outcome flips at x = 0.
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (x[0] if x[0] > 0.0 else -x[0],),
            g=lambda x: ((1.0,),),
            h=lambda x: ((0.5,),),
            ird_m=1, drd_r=1,
        )
        same_as_generic(system, (2.0,), (1.0,), (0.5,), 0.1)
        traced = system._rk4
        assert traced
        assert not served(system, (-2.0,), (1.0,), (0.5,), 0.1)
        assert same_as_generic(system, (-2.0,), (1.0,), (0.5,), 0.1)[0] != 0.0
        # The system stays compiled for states on the traced branch.
        assert system._rk4 is traced
        assert served(system, (3.0,), (-1.0,), (0.0,), 0.1)

    def test_inputs_of_the_wrong_length_run_the_generic_step(self):
        system = triple_integrator()
        x, h = (1.0, 2.0, 3.0), 1e-2
        for u, d in [((1.0, 2.0), (0.1, 0.2)), ((1.0,), (0.1, 0.2, 0.3)), ((), (0.1, 0.2))]:
            same_as_generic(system, x, u, d, h)
        # None of them is traced: the trace needs n, p and q entries.
        assert system._rk4 is None
        same_as_generic(system, x, (1.0,), (0.1, 0.2), h)
        assert system._rk4
        for u, d in [((1.0, 2.0), (0.1, 0.2)), ((1.0,), (0.1,)), ((), (0.1, 0.2))]:
            assert not served(system, x, u, d, h)
            same_as_generic(system, x, u, d, h)

    @pytest.mark.parametrize("first", ["float", "int", "numpy"])
    def test_int_and_numpy_inputs_keep_their_types(self, first):
        system = triple_integrator()
        inputs = {
            "float": ((1.0, -2.0, 3.0), (0.5,), (0.25, -1.0), 0.01),
            "int": ((1, -2, 3), (1,), (0, -1), 1),
            "numpy": (
                tuple(np.float64(v) for v in (1.0, -2.0, 3.0)),
                (np.float64(0.5),),
                (np.float64(0.25), np.float64(-1.0)),
                np.float64(0.01),
            ),
        }
        same_as_generic(system, *inputs[first])
        assert system._rk4
        for args in inputs.values():
            same_as_generic(system, *args)
            assert served(system, *args)
        assert {type(v) for v in integrate_step(system, *inputs["numpy"])} == {np.float64}

    def test_untraceable_dynamics_keep_the_generic_step(self):
        system = ControlAffineSystem(
            n=2, p=1, q=1,
            f=lambda x: (x[1], -math.sin(x[0]) - 0.1 * x[1] ** 2),
            g=lambda x: ((0.0,), (1.0,)),
            h=lambda x: ((0.0,), (1.0,)),
            ird_m=2, drd_r=2,
        )
        same_as_generic(system, (0.3, 0.1), (0.2,), (0.0,), 0.05)
        assert system._rk4 is False
        same_as_generic(system, (1.3, -0.4), (0.7,), (-0.2,), 0.05)

    def test_dynamics_branching_on_a_caught_error_are_not_traced(self):
        def f(x):
            try:
                weight = 1.0 / (x[0] - 4.0)
            except ZeroDivisionError:
                weight = 0.0
            return (-x[0] * (1.0 + weight * weight),)

        system = ControlAffineSystem(
            n=1, p=1, q=1, f=f, g=lambda x: ((1.0,),), h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        same_as_generic(system, (4.0,), (0.0,), (0.0,), 0.01)
        assert system._rk4 is False
        same_as_generic(system, (6.0,), (0.0,), (0.0,), 0.01)

    def test_first_step_in_a_clamping_context_is_traced_unclamped(self):
        # The trace runs in an empty context: a guard breach while tracing
        # fails the trace instead of baking the clamp into the function.
        energy = reciprocal_field(coordinate_field(0, 1), 0.5, positive_domain=True)._evaluator
        system = ControlAffineSystem(
            n=1, p=1, q=1, f=lambda x: (-energy(x),), g=lambda x: ((1.0,),),
            h=lambda x: ((1.0,),), ird_m=1, drd_r=1,
        )
        for x in ((0.1,), (0.2,)):
            with clamped_guards() as want:
                expected = _generic_integrate_step(system, x, (0.0,), (0.0,), 0.01)
            with clamped_guards() as got:
                assert integrate_step(system, x, (0.0,), (0.0,), 0.01) == expected
            assert got == want
            assert len(got) == 4
        assert system._rk4 is False

    def test_a_raising_step_raises_as_the_generic_step(self):
        system = ControlAffineSystem(
            n=1, p=1, q=1,
            f=lambda x: (1.0 / x[0],),
            g=lambda x: ((1.0,),),
            h=lambda x: ((1.0,),),
            ird_m=1, drd_r=1,
        )
        same_as_generic(system, (1.0,), (0.0,), (0.0,), 0.1)
        assert system._rk4
        # The traced division by zero raises; so does the generic step.
        assert isinstance(same_as_generic(system, (0.0,), (0.0,), (0.0,), 0.1), ZeroDivisionError)
        # An int too large for a float overflows in a stage, which the
        # generic step reports as an integration fault.
        triple = triple_integrator()
        same_as_generic(triple, (1.0, 2.0, 3.0), (1.0,), (0.0, 0.0), 0.1)
        fault = same_as_generic(triple, (10**400, 0, 0), (1.0,), (0.0, 0.0), 0.1)
        assert isinstance(fault, IntegrationFault)
        assert isinstance(fault.__cause__, OverflowError)

    def test_concurrent_first_steps_agree_with_the_generic_step(self):
        system = triple_integrator()
        rng = np.random.default_rng(7)
        inputs = [
            (tuple(map(float, row[:3])), (float(row[3]),), tuple(map(float, row[4:])), 1e-2)
            for row in rng.uniform(-10.0, 10.0, (300, 6))
        ]
        want = [repr(_generic_integrate_step(system, *args)) for args in inputs]
        assert system._rk4 is None
        mismatches = []

        def worker():
            for args, expected in zip(inputs, want):
                if repr(integrate_step(system, *args)) != expected:
                    mismatches.append(args)

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
        assert system._rk4

    def test_traceable_runaway_truncates_as_the_generic_step(self, monkeypatch):
        config = cubic_runaway_config(cube=lambda v: v * v * v)
        compiled_log = run_simulation(config)
        assert compiled_log.failed
        assert "nan" not in compiled_log.failure_reason
        # The traced step itself overflowed to a non-finite state.
        assert served(config.system, compiled_log.states[-1], compiled_log.controls[-1], (0.0,), 0.1)
        # The generated loop hands the faulting step to the per-step body.
        assert compiled_log.metadata.pop("fallback_steps") == 1
        monkeypatch.setattr(oracles, "integrate_step", _generic_integrate_step)
        generic_log = reference_run(cubic_runaway_config(cube=lambda v: v * v * v))
        assert repr(compiled_log) == repr(generic_log)
        assert compiled_log.failure_reason == generic_log.failure_reason
        assert compiled_log.final_state == generic_log.final_state
        assert 0 < len(compiled_log) < 50


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


def untraceable_objective_config(horizon):
    config = build_study("drcbf", case=1, horizon=horizon, verify=False)
    spec = config.controller
    controller = ControllerSpec(
        chain=spec.chain,
        clf=spec.clf,
        objective_h=spec.objective_h,
        objective_f=lambda x: (-1e-3 * math.exp(-x[1] / 10.0),),
    )
    return dataclasses.replace(config, controller=controller)


class TestGeneratedLoop:
    """run_simulation compiles its loop into one generated function, which
    hands the steps it cannot take to the per-step body; every log must be
    the reference loop's, bit for bit."""

    @pytest.mark.parametrize("case", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_study_runs(self, mode, case):
        # 8 s of each run take in the transient and the settled phase.
        log = assert_same_run(build_study(mode, case=case, horizon=8.0, verify=False))
        assert not log.failed
        assert log.metadata["fallback_steps"] == 0

    @pytest.mark.parametrize("case", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_the_qp_blocks_of_study_loops_compute_nothing_of_literals(self, mode, case):
        # The loop traces the QP's enumeration with the factor of Q and the
        # rows' constant entries as literals, and the trace folds what they
        # make exact: no product with a zero or with one, no quotient by
        # one, and no operation or comparison of literals alone is left in
        # the QP's four blocks. A 0.0 + t that starts a sum stays, as t may
        # be -0.0.
        source = oracles.generated_sources(build_study(mode, case=case, horizon=0.01,
                                                       verify=False))["loop"]
        regions = oracles.straight_line_regions(source.splitlines())
        assert len(regions) == 5
        for line in (line for region in regions[1:] for line in region):
            for node in ast.walk(ast.parse(line)):
                if isinstance(node, ast.BinOp):
                    operands = [node.left, node.right]
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                else:
                    continue
                values = [oracles.literal(operand) for operand in operands]
                assert None in values, line
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                    assert not any(v == 0.0 or v == 1.0 for v in values if v is not None), line
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    assert values[1] != 1.0, line

    @pytest.mark.parametrize("mode, loop, step", [("hocbf", 225, 166), ("drcbf", 228, 169),
                                                  ("adrcbf", 239, 180)])
    def test_the_case_1_functions_keep_their_folds(self, mode, loop, step):
        # The float operations of each function generated for the case-1
        # study, bounded by the counts of the tracer as it stands, so that
        # a change to it that loses folds fails here.
        sources = oracles.generated_sources(build_study(mode, case=1, verify=False))
        counts = {kind: len(oracles.operations(source.splitlines())) for kind, source in sources.items()}
        bounds = {"loop": loop, "step": step, "rk4": 70, "lookup": 10}
        assert counts.keys() == bounds.keys()
        assert all(counts[kind] <= bounds[kind] for kind in bounds), counts

    def test_no_fallback_step_on_the_default_study_runs(self):
        for mode in ("hocbf", "drcbf", "adrcbf"):
            for case in (1, 2, 3):
                log = run_simulation(build_study(mode, case=case, verify=False))
                assert len(log) == 30_000
                assert log.metadata["fallback_steps"] == 0, (mode, case)

    @pytest.mark.parametrize("mode, substeps", [("drcbf", 2), ("adrcbf", 3)])
    def test_substeps(self, mode, substeps):
        config = build_study(mode, case=3, horizon=2.0, integrator_substeps=substeps, verify=False)
        assert assert_same_run(config).metadata["fallback_steps"] == 0

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_no_disturbance(self, mode):
        log = assert_same_run(build_study(mode, horizon=3.0, verify=False))
        assert log.metadata["fallback_steps"] == 0
        assert set(log.disturbances) == {(0.0, 0.0)}

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_triple_integrator(self, mode):
        log = assert_same_run(triple_integrator_config(mode, 6.0))
        assert not log.failed
        assert log.metadata["fallback_steps"] == 0
        assert {(), (0,), (0, 1)} <= set(log.active_sets)

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_planar_double_integrator(self, mode):
        log = assert_same_run(planar_config(mode, 6.0))
        assert not log.failed
        assert log.metadata["fallback_steps"] == 0
        assert {(0,), (0, 1)} <= set(log.active_sets)
        assert all(len(u) == 2 for u in log.controls)

    @pytest.mark.parametrize("traced", [False, True])
    def test_integration_fault(self, traced):
        # A power is not traced, so that run goes through the per-step body
        # throughout; a product is, and the body takes only the faulting
        # step.
        config = cubic_runaway_config(cube=(lambda v: v * v * v) if traced else (lambda v: v ** 3))
        log = assert_same_run(config)
        assert log.failed
        assert "integration fault" in log.failure_reason
        assert log.metadata["fallback_steps"] == (1 if traced else len(log))

    @pytest.mark.parametrize("mode", ["hocbf", "drcbf", "adrcbf"])
    def test_runs_from_signed_zero_states(self, mode):
        for v in (0.0, -0.0, 20.0, 35.0):
            params = AccParameters(initial_state=(100.0, v))
            log = assert_same_run(build_study(mode, case=1, params=params, horizon=0.2, verify=False))
            assert log.metadata["fallback_steps"] == 0

    def test_logged_states_are_plain_tuples(self):
        # log.states reads plain tuples of floats out of the log, for steps
        # of the generated loop and of the per-step body, the initial state
        # too.
        for config in (build_study("drcbf", case=1, horizon=0.05, verify=False),
                       untraceable_objective_config(0.05)):
            log = run_simulation(config)
            assert len(log.states) == 50
            assert all(type(state) is tuple for state in log.states)

    def test_untraceable_objective(self):
        log = assert_same_run(untraceable_objective_config(0.5))
        assert not log.failed
        assert log.metadata["fallback_steps"] == len(log) == 500

    def test_forced_decline(self, monkeypatch):
        monkeypatch.setattr(simulate, "_compile_loop", lambda config, log: None)
        log = assert_same_run(build_study("adrcbf", case=1, horizon=0.5, verify=False))
        assert log.metadata["fallback_steps"] == len(log) == 500

    def test_adrcbf_guard_breach_under_the_worst_constant_disturbance(self):
        # d = (-D, 0) with D the case-1 bound drives phi_1 past the energy
        # guard at t = 4.494 s; the clamped energy gives an absurd command,
        # and three steps later the QP is reported infeasible. The loop
        # hands the breach and the abort to the per-step body.
        bound = case_bound(1)
        signal = SignalSpec(channels=((Constant(-bound),), (Constant(0.0),)))
        config = build_study("adrcbf", disturbance_spec=signal, horizon=5.0, verify=False)
        log = assert_same_run(config)
        assert log.failed
        assert log.failure_reason == "solver returned infeasible at t=4.501"
        breaches = [t for t, count in zip(log.times, log.guard_event_counts) if count]
        assert breaches == [pytest.approx(4.494, abs=1e-12)]
        assert log.metadata["guard_event_total"] == 1
        assert log.metadata["fallback_steps"] == 2

    def test_time_past_the_realized_horizon_raises_as_the_reference_loop(self):
        # SimulationConfig rejects a realization shorter than the run; one
        # swapped in afterwards fails at the first step past its horizon.
        config = build_study("drcbf", case=1, horizon=0.5, verify=False)
        short = realize(config.disturbance.spec, 0.2)
        object.__setattr__(config, "disturbance", short)
        with pytest.raises(DisturbanceError) as want:
            reference_run(config)
        with pytest.raises(DisturbanceError) as got:
            run_simulation(config)
        assert str(got.value) == str(want.value)
        assert "0.201" in str(got.value)

    def test_repeated_right_hand_sides_are_computed_once(self):
        # One trace spans the assembly and RK4, so the drift that both
        # evaluate at the state is computed once per step. A right-hand side
        # is shared within the code outside the QP's blocks and within each
        # block, not across blocks, whose names are unbound after a break.
        _trace._memo.clear()
        run_simulation(build_study("drcbf", case=1, horizon=0.01, verify=False))
        (source,) = [source for source, _, _ in _trace._memo.values() if source.startswith("def loop(")]
        regions = oracles.straight_line_regions(source.splitlines())
        assert len(regions) == 5
        for lines in regions:
            keys = [oracles.canonical(node) for node in oracles.operations(lines)]
            assert len(set(keys)) == len(keys)
        assert len(oracles.operations(regions[0])) > 100

    def test_dropped_runs_free_their_compiled_functions(self, monkeypatch):
        # No compiled function is in a reference cycle with its globals: a
        # dropped spec's step, a dropped system's RK4 step and a finished
        # run's loop go at once, with the cyclic collector off.
        loops = []
        compile_loop = simulate._compile_loop

        def kept(config, log):
            loop = compile_loop(config, log)
            loops.append(weakref.ref(loop))
            return loop

        monkeypatch.setattr(simulate, "_compile_loop", kept)
        gc.collect()
        gc.disable()
        try:
            config = build_study("drcbf", case=1, horizon=0.01, verify=False)
            spec, system = config.controller, config.system
            u = control_step(spec, config.x0, 0.0).u
            integrate_step(system, config.x0, u, (0.0, 0.0), 1e-3)
            log = run_simulation(config)
            assert len(log) == 10
            refs = [weakref.ref(spec._step), weakref.ref(system._rk4), *loops]
            assert all(ref() is not None for ref in refs[:2])
            del config, spec, system, log
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


@st.composite
def acc_configs(draw):
    """A random ACC run: mode, a period of 1-10 ms, 1-3 substeps, a horizon
    of about 1-3 s, an initial gap and a speed of 0.0, -0.0 or 10-30 m/s, a
    study case or 1-3 random terms on the first channel, and at times a gain
    multiplier and adaptive rates. Half the draws are adrcbf at 5-10 ms with
    rates of 100-1000, which hand steps back to the per-step body more
    often."""
    handback = draw(st.booleans())
    mode = "adrcbf" if handback else draw(st.sampled_from(["hocbf", "drcbf", "adrcbf"]))
    dt = draw(st.integers(5 if handback else 1, 10)) * 1e-3
    steps = round(draw(st.integers(1, 3)) / dt)
    speed = draw(st.sampled_from([0.0, -0.0]) | st.floats(10.0, 30.0))
    params = AccParameters(initial_state=(draw(st.floats(12.0, 120.0)), speed))
    scale = st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e)
    study = {}
    if draw(st.booleans()):
        study["case"] = draw(st.integers(1, 3))
        study["seed"] = draw(st.integers(0, 2**16))
    else:
        amplitude = st.floats(-3000.0, 3000.0)
        noise = st.tuples(amplitude, amplitude, st.sampled_from([dt, 2 * dt, 0.1])).map(
            lambda v: UniformNoise(min(v[:2]), max(v[:2]), v[2]))
        term = st.builds(Constant, amplitude) | st.builds(Sinusoid, amplitude, st.floats(0.1, 20.0),
                                                          st.floats(-3.0, 3.0)) | noise
        first = tuple(draw(st.lists(term, min_size=1, max_size=3)))
        study["disturbance_spec"] = SignalSpec(channels=(first, (Constant(0.0),)),
                                               seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        study["gain_multiplier"] = draw(scale)
    if handback:
        study["adaptive_rates"] = tuple(draw(st.lists(st.floats(100.0, 1000.0), min_size=2,
                                                      max_size=2)))
    elif mode == "adrcbf" and draw(st.booleans()):
        study["adaptive_rates"] = tuple(draw(st.lists(scale, min_size=2, max_size=2)))
    try:
        config = build_study(mode, params=params, horizon=steps * dt, control_period=dt,
                             integrator_substeps=draw(st.integers(1, 3)), verify=False, **study)
    except BarrierConstructionError:
        assume(False)
    assume(membership(config.controller.chain, config.x0)["in_set"])
    return config


class TestRandomConfigurations:
    """The generated loop against the reference loop on random ACC runs."""

    @settings(max_examples=150, deadline=None)
    @given(acc_configs())
    def test_the_loop_logs_the_reference_loop(self, config):
        try:
            run_simulation(config)
        except BarrierConstructionError as exc:
            # A guard breach's command can blow the state up until the CLF
            # row is non-finite, which raises; so must the reference loop.
            with pytest.raises(BarrierConstructionError, match=f"^{re.escape(str(exc))}$"):
                reference_run(config)
            return
        assert_same_run(config)


class TestCodeMemo:
    """Generated code is compiled once per distinct trace and kept in a
    bounded memo (see drcbf._trace._Trace.generate); a run whose trace has
    the key of a kept entry runs that entry's code."""

    @staticmethod
    def loop_keys():
        return [key for key, (source, _, _) in _trace._memo.items() if source.startswith("def loop(")]

    def test_equal_keys_give_equal_sources(self):
        # Each config's functions are compiled with the memo cleared, so
        # every source here is generated afresh: the key must tell apart
        # every pair of traces whose sources differ.
        from dataclasses import replace

        from drcbf.cli import prepare_run
        from golden_study import documents, log_configs

        configs = {name: prepare_run(doc)[0] for name, doc in documents().items()}
        configs.update(log_configs())
        for seed in (1, 2, 3):
            configs[f"seed {seed}"] = build_study("drcbf", case=1, seed=seed, horizon=4.0, verify=False)
        for multiplier in (0.5, 1.0, 2.0):
            configs[f"k_multiplier {multiplier}"] = build_study(
                "drcbf", case=3, gain_multiplier=multiplier, horizon=4.0, verify=False)
        configs["speed -0.0"] = build_study(
            "adrcbf", case=1, params=AccParameters(initial_state=(100.0, -0.0)), horizon=4.0,
            verify=False)
        # Two realizations that differ only in one draw, 0.25 against -0.0:
        # the held value 0.0 + draw folds to the draw only where no draw is
        # -0.0.
        base = build_study("drcbf", case=1, horizon=4.0, verify=False)
        realization = base.disturbance
        (first, *rest), *others = realization.draws
        for name, value in (("draw 0.25", 0.25), ("draw -0.0", -0.0)):
            draws = ((first[:3] + (value,) + first[4:], *rest), *others)
            configs[name] = replace(base, disturbance=SignalRealization(
                spec=realization.spec, horizon=realization.horizon, draws=draws))
        seen, compiled, loops = {}, 0, {}
        for name, config in configs.items():
            for key, (source, _, _) in oracles.generated_code(config).items():
                assert seen.setdefault(key, source) == source, name
                compiled += 1
                if source.startswith("def loop("):
                    loops[name] = key, source
        assert len(configs) == 26
        # The seeds share their loop's key, and so does the draw of 0.25;
        # the draw of -0.0 makes another loop.
        assert len({loops[name][0] for name in ("seed 1", "seed 2", "seed 3", "draw 0.25")}) == 1
        assert loops["draw 0.25"][1] != loops["draw -0.0"][1]
        assert len(seen) < compiled

    def test_a_run_of_kept_code_is_the_cold_run(self):
        _trace._memo.clear()
        run_simulation(build_study("adrcbf", case=1, seed=1, horizon=2.0, verify=False))
        kept = self.loop_keys()
        assert len(kept) == 1
        config = build_study("adrcbf", case=1, seed=2, horizon=2.0, verify=False)
        warm = assert_same_run(config)
        # Seed 2 ran seed 1's loop: no other loop was compiled.
        assert self.loop_keys() == kept
        assert warm.metadata["fallback_steps"] == 0
        _trace._memo.clear()
        cold = run_simulation(config)
        assert warm.values == cold.values
        assert (warm.qp_statuses, warm.guard_event_counts, warm.active_sets) == (
            cold.qp_statuses, cold.guard_event_counts, cold.active_sets)

    def test_the_memo_holds_at_most_its_bound(self):
        _trace._memo.clear()
        keys = []
        for i in range(_trace._MEMO_SIZE + 10):
            trace = _trace._Trace()
            tail = [f"return {trace.operand(trace.input(1.0) * (i + 2.0))}"]
            keys.append(trace._key(tail, (False,)))
            assert trace.function(tail)(3.0) == 3.0 * (i + 2.0)
        assert len(_trace._memo) == _trace._MEMO_SIZE
        # The oldest went first.
        assert list(_trace._memo) == keys[10:]

    def test_concurrent_compiles_keep_the_bound(self):
        # Threads compiling distinct traces at once, 4 * 24 of them, each
        # evicting where the memo is full: it never holds more than its
        # bound, and every function computes its own trace.
        _trace._memo.clear()
        wrong = []

        def worker(first):
            for i in range(first, first + 24):
                trace = _trace._Trace()
                tail = [f"return {trace.operand(trace.input(1.0) * (i + 2.0))}"]
                if trace.function(tail)(3.0) != 3.0 * (i + 2.0):
                    wrong.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(24 * j,)) for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(_trace._memo) == _trace._MEMO_SIZE

    def test_a_finished_run_leaves_nothing_of_its_own_in_the_memo(self):
        config = build_study("drcbf", case=1, horizon=0.05, verify=False)
        draws = config.disturbance.draws[0][0]
        log = run_simulation(config)
        assert len(log) == 50
        assert any(source.startswith("def loop(") for source, _, _ in _trace._memo.values())
        refs = [weakref.ref(log), weakref.ref(config.disturbance)]
        del config, log
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        # The draw tuple is no longer held by anything but this test (the
        # local and getrefcount's argument); a tuple takes no weak reference.
        assert sys.getrefcount(draws) == 2
