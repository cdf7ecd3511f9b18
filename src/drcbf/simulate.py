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

Each run compiles its loop into one generated function (see _compile_loop):
per step the disturbance lookup, the traced assembly and QP of the control
step, the traced RK4 substeps and the step's record, with no call of
evaluate, control_step or integrate_step. The first step the generated loop
cannot take bit for bit (a guard breach, a fault, an untraceable run) goes
through the per-step body, which calls those three once per step and
records any fault, and the generated loop resumes after it. The log's
metadata counts those steps as fallback_steps.
"""

from __future__ import annotations

import contextvars
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from math import isfinite, nan, sqrt
from operator import neg
from typing import Optional

from .controller import (
    ControllerSpec,
    _residuals,
    _step_lines,
    _trace_assembly,
    control_step,
)
from .disturbances import (
    SignalRealization,
    _horizon_limit,
    _lookup_channels,
    evaluate as evaluate_signal,
    realize,
)
from .fields import ControlAffineSystem, _CheckedState, _Deopt, _Trace, _Traced, as_state
from .qp import QpProblem, solve_qp
from .robust import DegenerateConstraintError, membership

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

    def __init__(self, x, u, d):
        self.x = tuple(x)
        self.u = tuple(u)
        self.d = tuple(d)
        super().__init__(
            f"non-finite state while integrating from x={self.x} "
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


# The float fields of one step's row, in their order in TrajectoryLog.values.
_ROW_FIELDS = (
    "times", "states", "controls", "slacks", "disturbances", "phi",
    "cbf_residuals", "clf_residuals",
)


@dataclass
class TrajectoryLog:
    """Per-step record plus run outcome.

    Every float of a step is one row of values, a flat array of doubles:
    the time, the n state entries, the p control entries (NaN for an
    unsolved step), the slack, the q disturbance entries, the levels
    cascade membership values and the two residuals, in that order (see
    row). qp_statuses, guard_event_counts and active_sets are lists with
    one entry per step; active_sets holds each step's QP active set (row 0
    the stability row, row 1 the safety row; empty when unsolved).

    column(name, i) reads entry i of one field for every step; rows() reads
    whole rows. The read-only properties times, states, controls, slacks,
    disturbances, phi, cbf_residuals and clf_residuals build per-step lists
    of floats and plain tuples (an unsolved step's control is ()); readers
    of a whole run should use the columns.

    failed marks a runtime fault (solver or integrator); a safety violation
    is visible in the logged values instead.
    """

    n: int = 0
    p: int = 0
    q: int = 0
    levels: int = 0
    values: array = field(default_factory=lambda: array("d"))
    qp_statuses: list = field(default_factory=list)
    guard_event_counts: list = field(default_factory=list)
    active_sets: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    failed: bool = False
    failure_reason: str = ""
    final_state: tuple = ()
    final_time: float = 0.0

    def __post_init__(self):
        widths = (1, self.n, self.p, 1, self.q, self.levels, 1, 1)
        self.width = sum(widths)
        self._fields = dict(zip(_ROW_FIELDS, zip(accumulate(widths, initial=0), widths)))

    def __len__(self):
        return len(self.qp_statuses)

    @staticmethod
    def row(t, x, u, slack, d, phi, cbf_residual, clf_residual) -> tuple:
        """A step's floats in the order of values."""
        return (t, *x, *u, slack, *d, *phi, cbf_residual, clf_residual)

    def record(self, t, x, u, slack, d, phi, cbf_residual, clf_residual,
               qp_status, guard_events, active_set) -> None:
        """Append one step; u is () for an unsolved step, guard_events a count."""
        row = self.row(t, x, u or (nan,) * self.p, slack, d, phi, cbf_residual, clf_residual)
        if len(row) != self.width:
            raise ValueError(f"a step of {len(row)} floats in a log of rows of {self.width}")
        self.values.extend(row)
        self.qp_statuses.append(qp_status)
        self.guard_event_counts.append(guard_events)
        self.active_sets.append(active_set)

    def column(self, name: str, index: int = 0) -> array:
        """Entry index of one field of the row (times, states, controls,
        slacks, disturbances, phi, cbf_residuals or clf_residuals) at every
        step."""
        offset, width = self._fields[name]
        if not 0 <= index < width:
            raise IndexError(f"{name} has {width} entries per step")
        return self.values[offset + index :: self.width]

    def rows(self, *lists):
        """Each step's row of values as one tuple, followed by the step's
        entry of each of lists."""
        return zip(*[iter(self.values)] * self.width, *lists)

    def _tuples(self, name: str) -> list:
        _, width = self._fields[name]
        return list(zip(*(self.column(name, i) for i in range(width))))

    @property
    def times(self) -> list:
        return self.column("times").tolist()

    @property
    def states(self) -> list:
        return self._tuples("states")

    @property
    def controls(self) -> list:
        return [
            u if status == "optimal" else ()
            for u, status in zip(self._tuples("controls"), self.qp_statuses)
        ]

    @property
    def slacks(self) -> list:
        return self.column("slacks").tolist()

    @property
    def disturbances(self) -> list:
        return self._tuples("disturbances")

    @property
    def phi(self) -> list:
        return self._tuples("phi")

    @property
    def cbf_residuals(self) -> list:
        return self.column("cbf_residuals").tolist()

    @property
    def clf_residuals(self) -> list:
        return self.column("clf_residuals").tolist()


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


def _rk4_stages(system, x, u, d, h):
    k1 = _dynamics(system, x, u, d)
    half = 0.5 * h
    k2 = _dynamics(system, tuple([xi + half * ki for xi, ki in zip(x, k1)]), u, d)
    k3 = _dynamics(system, tuple([xi + half * ki for xi, ki in zip(x, k2)]), u, d)
    k4 = _dynamics(system, tuple([xi + h * ki for xi, ki in zip(x, k3)]), u, d)
    return k1, k2, k3, k4


def _rk4_sum(x, stages, h):
    sixth = h / 6.0
    return tuple(
        [
            xi + sixth * (a + 2.0 * (b + c) + e)
            for xi, a, b, c, e in zip(x, *stages)
        ]
    )


def _trace_rk4(system: ControlAffineSystem, x, u, d, h):
    """One RK4 step of system as a generated function of (x, u, d, h), or
    False.

    The stages and their sum run once on traced floats, so the function
    repeats their float operations in the same order and raises _Deopt where
    a recorded comparison comes out differently; x, u and d must have n, p
    and q entries. They run in an empty context, so that a guarded
    reciprocal raises instead of clamping. The function returns a state of
    n finite plain floats as a checked state, and any other as a tuple,
    except a non-finite one of a step with a recorded comparison, for which
    it raises _Deopt, as it does where a check the trace's simplification
    added fails. If anything fails, the system keeps the generic step.
    """
    trace = _Trace()
    xs, us, ds = trace.inputs(x), trace.inputs(u), trace.inputs(d)
    hs = trace.input(h)

    def rk4():
        return _rk4_sum(xs, _rk4_stages(system, xs, us, ds, hs), hs)

    # The generic step reproduces whatever went wrong, so any exception only
    # means that this system is not traced.
    try:
        outputs = contextvars.Context().run(rk4)
        if trace.raised:
            return False
        state = trace.operand(outputs)
        entries = list(map(trace.operand, outputs))
        floats = " and ".join(f"({v}).__class__ is float" for v in entries)
        tail = [f"if {trace.check(outputs)}: return _CheckedState({state}) if {floats} else {state}"]
        # A non-finite state faults in the generic step too, unless a
        # recorded comparison reads a value that the simplification made
        # finite, where the generic step may branch otherwise. A check that
        # fails on a name the simplification added, with a finite state, is
        # left to the generic step as well.
        if not any(name is None for _, name, *_ in trace.ops):
            tail.append(f"if not ({' and '.join(f'isfinite({v})' for v in entries)}): return {state}")
        tail.append("raise _Deopt")
        return trace.function(tail, {"_CheckedState": _CheckedState})
    except Exception:
        return False


def integrate_step(system: ControlAffineSystem, x, u, d, h: float) -> tuple:
    """One classical RK4 step of length h with u and d held constant.

    Raises IntegrationFault if any stage overflows or the result goes
    non-finite (runaway dynamics under a fixed step).

    The first call for a system with n, p and q entries traces the step into
    one generated function of (x, u, d, h) (see _trace_rk4), cached on the
    system; every call runs it, and the generic step wherever it declines:
    the inputs have other lengths, a recorded comparison comes out
    differently or the function raises. Both give the same state, bit for
    bit. A state of n finite plain floats comes back as a checked state,
    which the next control step does not convert again.
    """
    step = system._rk4
    if step is None and len(x) == system.n and len(u) == system.p and len(d) == system.q:
        step = _trace_rk4(system, x, u, d, h)
        object.__setattr__(system, "_rk4", step)
    if step:
        try:
            out = step(x, u, d, h)
        except Exception:
            # _Deopt, wrong lengths, or an error the generic step raises
            # again itself.
            pass
        else:
            if out.__class__ is not _CheckedState and not all(map(isfinite, out)):
                raise IntegrationFault(x, u, d)
            return out
    return _generic_integrate_step(system, x, u, d, h)


def _generic_integrate_step(system: ControlAffineSystem, x, u, d, h: float) -> tuple:
    """integrate_step through _dynamics, for any system and input lengths."""
    try:
        stages = _rk4_stages(system, x, u, d, h)
    except OverflowError as exc:
        raise IntegrationFault(x, u, d) from exc
    out = _rk4_sum(x, stages, h)
    if not all(map(isfinite, out)):
        raise IntegrationFault(x, u, d)
    return out


def _check_initial_state(chain, x0):
    """Raise SimulationError unless x0 lies in the chain's safe set (see
    drcbf.robust.membership)."""
    report = membership(chain, x0)
    if not report["in_set"]:
        raise SimulationError(
            f"initial state {tuple(x0)} is outside the safe set: "
            f"level values {report['values']}"
        )


def _compile_loop(config: SimulationConfig, log: TrajectoryLog):
    """run_simulation's loop over the control steps as one generated
    function loop(k, x), or None if the run cannot be traced.

    The first step's float work runs once at the initial state on traced
    floats of one _Trace, in an empty context: the realization's lookup at
    t = 0 (see drcbf.disturbances._lookup_channels), the controller's
    assembly (see drcbf.controller._trace_assembly) and QP prelude, then
    RK4 with the control the QP gives there, the first substep from the
    traced state and, with more substeps, one more from fresh locals, which
    the loop repeats. The trace's simplification (see _Trace) then folds
    operations with exact zeros and ones and computes a repeated right-hand
    side once, across all of them. Each iteration of the loop does a whole
    control step: the lookup, the traced assembly with the generic step's
    output checks, the QP's active-set enumeration (see
    drcbf.controller._step_lines), the traced RK4 substeps, each with the
    finiteness check, and the step's record: its row of floats extended
    onto log.values in one call, and one entry appended to each of log's
    lists.

    loop(k, x) takes steps k, k + 1, ... from state x. It returns (k, x)
    with the step untouched where the per-step body has something else to
    do: a comparison recorded by the trace comes out differently (a guard
    breach), an operation raises, an output is non-finite or the safety row
    degenerate, the QP is not solved, the state goes non-finite or the time
    leaves the realization's horizon. After the last step it returns
    (steps, final state).
    """
    system, spec, realization = config.system, config.controller, config.disturbance
    substeps = config.integrator_substeps
    h = config.control_period / substeps
    trace = _Trace()
    op = trace.operand
    xs = trace.inputs(config.x0)
    # Besides the trace's x<i>, t<i> and K<i> and the QP's locals (see
    # drcbf.qp._kernel_lines), the loop's locals are k, t, x, active,
    # sub<i>, values_extend and <list>_append.
    namespace = {"_Deopt": _Deopt, "sqrt": sqrt, "isfinite": isfinite, "LOG": log}
    lookup = []
    if realization is None:
        ds = (0.0,) * system.q
    else:
        # t = k * dt is never negative, nor -0.0.
        t = trace.local("t", 0.0, non_negative=True)
        ds = tuple(_lookup_channels(realization, trace, t, namespace))
        namespace["LIMIT"] = _horizon_limit(realization)
        lookup = ["if t > LIMIT: return k, x"]
    assembly = trace.mark()
    z = []

    def accept(solution, subset, lam):
        z[:] = solution
        return [f"active = {subset!r}"]

    def substep(state):
        return _rk4_sum(state, _rk4_stages(system, state, us, ds, h), h)

    def finite(state):
        return f"if not ({trace.check(state)}): return k, x"

    def assign(names, state):
        return [f"{name} = {op(v)}" for name, v in zip(names, state)]

    # The per-step body reproduces whatever went wrong, so any exception
    # only means that this run is not traced.
    try:
        outputs = _trace_assembly(spec, trace, xs)
        if not outputs:
            return None
        qp = _step_lines(spec, trace, outputs, "return k, x", accept,
                         ["if active is None: return k, x"], "active is None")
        first = trace.mark()
        # The first step's control, at which RK4 is traced.
        row, offset, clf_row, clf_offset, c, _ = _values(outputs)
        solution = solve_qp(QpProblem(Q=spec._qp_quadratic, c=c,
                                      A=(clf_row, (*map(neg, row), 0.0)), b=(clf_offset, -offset)))
        if solution.status != "optimal":
            return None
        us = tuple(trace.local(name, v) for name, v in zip(z, solution.z[:system.p]))
        state = contextvars.Context().run(substep, xs)
        later = trace.mark()
        after_first = [finite(state)]
        repeat = []
        if substeps > 1:
            # The later substeps run as one traced substep in a loop.
            subs = tuple(trace.local(f"sub{i}", v) for i, v in enumerate(_values(state)))
            after_first += assign([s.name for s in subs], state)
            state = contextvars.Context().run(substep, subs)
            repeat = [finite(state), *assign([s.name for s in subs], state)]
            state = subs
        if trace.raised:
            return None
        row = log.row("t", map(op, xs), map(op, us), z[system.p], map(op, ds),
                      map(op, outputs[5]), *_residuals(trace, outputs, z))
        tail = [
            f"values_extend(({', '.join(row)}))",
            "qp_statuses_append('optimal')",
            "guard_event_counts_append(0)",
            "active_sets_append(active)",
            *assign(map(op, xs), state),
            f"x = {op(xs)}",
        ]
        trace.simplify([*qp, *after_first, *repeat, *tail])
        rk4 = trace.render(first, later) + after_first
        if substeps > 1:
            rk4 += [f"for _ in range({substeps - 1}):",
                    *(f"    {line}" for line in trace.render(later) + repeat)]
        body = [
            f"t = k * {config.control_period!r}",
            *lookup,
            *trace.render(0, assembly),
            "try:",
            *(f"    {line}" for line in [*trace.render(assembly, first), "active = None", *qp, *rk4]),
            "except Exception:",
            "    return k, x",
            *tail,
        ]
        source = "\n    ".join([
            "def loop(k, x):",
            "values_extend = LOG.values.extend",
            *(f"{column}_append = LOG.{column}.append"
              for column in ("qp_statuses", "guard_event_counts", "active_sets")),
            f"{''.join(f'{op(v)}, ' for v in xs)}= x",
            f"for k in range(k, {config.steps}):",
            *(f"    {line}" for line in body),
            f"return {config.steps}, x",
        ])
        source = trace.resolve(source)
        namespace.update(trace.constants)
        exec(source, namespace)
        # Popped, so that the function and its globals form no reference
        # cycle.
        return namespace.pop("loop")
    except Exception:
        return None


def _values(traced):
    """The values at the trace of a traced float or a nested tuple of them
    and constants."""
    if traced.__class__ is tuple:
        return tuple(map(_values, traced))
    return traced.value if traced.__class__ is _Traced else traced


def run_simulation(config: SimulationConfig) -> TrajectoryLog:
    """Run the closed loop for the whole horizon and return the trajectory log.

    The initial state must lie in the safe set the controller certifies
    (strictly inside it for the adaptive cascade, whose boundary energy
    diverges).
    On a solver or integrator fault the log keeps every completed record,
    failed is set, and final_state is the last healthy state.

    The first step compiles the run's loop into one generated function (see
    _compile_loop), which takes every step it can. Each step it hands back
    runs through the per-step body below, and the loop resumes after it;
    both give the same records, bit for bit. metadata["fallback_steps"]
    counts the steps the body took: all of them if the run is not traced.
    """
    system = config.system
    controller = config.controller
    _check_initial_state(controller.chain, config.x0)

    dt = config.control_period
    substeps = config.integrator_substeps
    sub_h = dt / substeps
    zero_d = (0.0,) * system.q

    log = TrajectoryLog(system.n, system.p, system.q, controller.chain.m)
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
    fallbacks = 0
    disturbance = config.disturbance
    loop = _compile_loop(config, log) or _untraced_loop

    step = 0
    while True:
        step, x = loop(step, x)
        if step == config.steps:
            break
        fallbacks += 1
        t = step * dt
        d = zero_d if disturbance is None else evaluate_signal(disturbance, t)

        try:
            result = control_step(controller, x, t)
        except DegenerateConstraintError as exc:
            log.failed = True
            log.failure_reason = f"controller fault at t={t}: {exc}"
            break

        log.record(t, x, result.u, result.slack, d, result.phi, result.cbf_residual,
                   result.clf_residual, result.qp_status, len(result.guard_events),
                   result.active_set)
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
        step += 1

    if not log.failed:
        t = config.steps * dt

    log.final_state = x
    log.final_time = t if log.failed else config.horizon
    log.metadata["guard_event_total"] = guard_total
    log.metadata["fallback_steps"] = fallbacks
    return log


def _untraced_loop(k, x):
    """The loop of a run that is not traced: it hands every step back."""
    return k, x
