"""Closed-loop engine: integrator exactness, grid discipline, fault handling."""

import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from drcbf import simulate
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
    SignalSpec,
    realize,
)
from drcbf.poles import coefficients_from_poles
from drcbf.robust import build_hocbf_chain
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
        mode=spec.mode,
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

    def test_repeated_right_hand_sides_are_computed_once(self, monkeypatch):
        # One trace spans the assembly and RK4, so the drift that both
        # evaluate at the state is computed once per step.
        sources = []

        def spy(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(simulate, "exec", spy, raising=False)
        run_simulation(build_study("drcbf", case=1, horizon=0.01, verify=False))
        (source,) = sources
        traced = [line.strip() for line in source.splitlines() if line.strip().startswith("t")]
        rhs = [line.split(" = ", 1)[1] for line in traced if " = " in line]
        assert len(rhs) > 100
        assert len(set(rhs)) == len(rhs)

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
