"""Fixed-step closed-loop simulation of a control-affine system.

The plant is x' = f(x) + g(x)u + h(x)d. Each control period the disturbance is
sampled, the controller solves its per-step program, and the state advances by
classical fourth-order Runge-Kutta with the control and the sampled disturbance
held constant (zero-order hold). One log record is written per control step at
the pre-step time, so a horizon of N periods yields exactly N records at
t = 0, dt, ..., (N-1) dt; the post-step terminal state is kept separately.

A failed run (solver did not return an optimum, or the integrator produced a
non-finite state) is reported through the log's failed flag with the partial
trajectory intact, not as an exception, so callers can distinguish a runtime
fault from a clean run that merely violated safety.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .adaptive import AdrcbfChain, interior_membership
from .controller import ControllerSpec, control_step
from .disturbances import SignalRealization, evaluate as evaluate_signal, realize
from .fields import ControlAffineSystem, as_state
from .robust import DegenerateConstraintError, chain_membership

__all__ = [
    "SimulationError",
    "IntegrationFault",
    "SimulationConfig",
    "TrajectoryLog",
    "integrate_step",
    "run_simulation",
]

# Relative slack when checking that the horizon is a whole number of periods.
_GRID_TOL = 1e-9


class SimulationError(ValueError):
    """Invalid simulation configuration."""


class IntegrationFault(RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, t, x, u, d):
        self.t = float(t)
        self.x = tuple(x)
        self.u = tuple(u)
        self.d = tuple(d)
        super().__init__(
            f"non-finite state while integrating from t={self.t} at x={self.x} "
            f"with u={self.u}, d={self.d}"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Closed-loop run description.

    disturbance may be None (the plant then sees d = 0), a realization, or a
    spec-with-seed already realized by the caller. integrator_substeps splits
    each control period into that many equal RK4 steps; the control and the
    sampled disturbance stay held across all of them.
    """

    system: ControlAffineSystem
    controller: ControllerSpec
    disturbance: Optional[SignalRealization]
    x0: tuple
    horizon: float = 30.0
    control_period: float = 1e-3
    integrator_substeps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "x0", as_state(self.x0, self.system.n, "initial state"))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "control_period", float(self.control_period))
        if not self.horizon > 0.0:
            raise SimulationError("horizon must be strictly positive")
        if not self.control_period > 0.0:
            raise SimulationError("control period must be strictly positive")
        if self.integrator_substeps < 1:
            raise SimulationError("integrator substeps must be at least 1")
        if abs(self.control_period - self.controller.control_period) > _GRID_TOL * max(
            self.control_period, self.controller.control_period
        ):
            raise SimulationError(
                "simulation control period does not match the controller's"
            )
        ratio = self.horizon / self.control_period
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > _GRID_TOL * max(1.0, ratio):
            raise SimulationError(
                "horizon must be a whole positive number of control periods"
            )
        object.__setattr__(self, "_steps", int(steps))
        if self.disturbance is not None:
            if self.disturbance.spec.width != self.system.q:
                raise SimulationError(
                    f"disturbance has {self.disturbance.spec.width} channels, "
                    f"system expects {self.system.q}"
                )
            if self.disturbance.horizon < self.horizon * (1.0 - _GRID_TOL):
                raise SimulationError("disturbance realization is shorter than the run")

    @property
    def steps(self) -> int:
        return self._steps


@dataclass
class TrajectoryLog:
    """Columnar per-step record plus run outcome.

    All lists share one length: entry i belongs to the step that started at
    times[i] from states[i]. failed marks a runtime fault (solver or
    integrator); a safety violation is visible in the logged values instead.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    controls: list = field(default_factory=list)
    slacks: list = field(default_factory=list)
    disturbances: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    cbf_residuals: list = field(default_factory=list)
    clf_residuals: list = field(default_factory=list)
    qp_statuses: list = field(default_factory=list)
    guard_event_counts: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    failed: bool = False
    failure_reason: str = ""
    final_state: tuple = ()
    final_time: float = 0.0

    def __len__(self):
        return len(self.times)


def _dynamics(system, x, u, d):
    f = system.f(x)
    g = system.g(x)
    h = system.h(x)
    n, p, q = system.n, system.p, system.q
    out = []
    for i in range(n):
        v = f[i]
        gi = g[i]
        for j in range(p):
            v += gi[j] * u[j]
        hi = h[i]
        for j in range(q):
            v += hi[j] * d[j]
        out.append(v)
    return out


def integrate_step(system: ControlAffineSystem, x, u, d, h: float) -> tuple:
    """One classical RK4 step of length h with u and d held constant.

    Raises IntegrationFault if any stage overflows or the result goes
    non-finite (runaway dynamics under a fixed step).
    """
    try:
        k1 = _dynamics(system, x, u, d)
        half = 0.5 * h
        k2 = _dynamics(system, tuple([xi + half * ki for xi, ki in zip(x, k1)]), u, d)
        k3 = _dynamics(system, tuple([xi + half * ki for xi, ki in zip(x, k2)]), u, d)
        k4 = _dynamics(system, tuple([xi + h * ki for xi, ki in zip(x, k3)]), u, d)
    except OverflowError as exc:
        raise IntegrationFault(math.nan, x, u, d) from exc
    sixth = h / 6.0
    out = tuple(
        [
            xi + sixth * (a + 2.0 * (b + c) + e)
            for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
        ]
    )
    if not all(map(math.isfinite, out)):
        raise IntegrationFault(math.nan, x, u, d)
    return out


def _initial_membership(controller: ControllerSpec, x0):
    if controller.mode == "adrcbf":
        report = interior_membership(controller.chain, x0)
        if not report["in_open_set"]:
            raise SimulationError(
                f"initial state {tuple(x0)} is not strictly inside the safe set: "
                f"level values {report['values']}"
            )
    else:
        report = chain_membership(controller.chain, x0)
        if not report["in_set"]:
            raise SimulationError(
                f"initial state {tuple(x0)} is outside the safe set: "
                f"level values {report['values']}"
            )


def run_simulation(config: SimulationConfig) -> TrajectoryLog:
    """Run the closed loop for the whole horizon and return the trajectory log.

    The initial state must lie in the safe set the controller certifies
    (strictly inside it for the adaptive mode, whose boundary energy diverges).
    On a solver or integrator fault the log keeps every completed record,
    failed is set, and final_state is the last healthy state.
    """
    system = config.system
    controller = config.controller
    _initial_membership(controller, config.x0)

    dt = config.control_period
    substeps = config.integrator_substeps
    sub_h = dt / substeps
    zero_d = (0.0,) * system.q

    log = TrajectoryLog()
    log.metadata = {
        "mode": controller.mode,
        "horizon": config.horizon,
        "control_period": dt,
        "integrator_substeps": substeps,
        "steps": config.steps,
        "disturbance_seed": None
        if config.disturbance is None
        else config.disturbance.spec.seed,
    }

    x = config.x0
    t = 0.0
    guard_total = 0
    disturbance = config.disturbance

    for step in range(config.steps):
        t = step * dt
        d = zero_d if disturbance is None else evaluate_signal(disturbance, t)

        try:
            result = control_step(controller, x, t)
        except DegenerateConstraintError as exc:
            log.failed = True
            log.failure_reason = f"controller fault at t={t}: {exc}"
            break

        log.times.append(t)
        log.states.append(x)
        log.controls.append(result.u)
        log.slacks.append(result.slack)
        log.disturbances.append(d)
        log.phi.append(result.phi)
        log.cbf_residuals.append(result.cbf_residual)
        log.clf_residuals.append(result.clf_residual)
        log.qp_statuses.append(result.qp_status)
        log.guard_event_counts.append(len(result.guard_events))
        guard_total += len(result.guard_events)
        if result.qp_status != "optimal":
            log.failed = True
            log.failure_reason = f"solver returned {result.qp_status} at t={t}"
            break

        try:
            for _ in range(substeps):
                x = integrate_step(system, x, result.u, d, sub_h)
        except IntegrationFault as exc:
            log.failed = True
            log.failure_reason = f"integration fault at t={t}: {exc}"
            break

    if not log.failed:
        t = config.steps * dt

    log.final_state = x
    log.final_time = t if log.failed else config.horizon
    log.metadata["guard_event_total"] = guard_total
    return log
