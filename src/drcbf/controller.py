"""Per-step safety filter: tracking objective, slacked stability, hard safety.

Each control step solves

    min_{u, slack}  u'Hu + F(x)u + rho * slack^2
    s.t.            L_f V + L_g V u <= -sigma V + slack      (stability, slacked)
                    cbf_row(x) . u  >= cbf_offset(x)         (safety, hard)

Only the stability constraint carries the slack, so tracking degrades before
safety ever does. The control is held constant (zero-order hold) for one
control period.

A spec's first step compiles the whole step into one generated function of
the state (see _compile_step): the traced assembly of both rows and the
cost, the output checks, the QP's active-set enumeration from the lines
drcbf.qp generates for its own kernels, with this spec's factor of Q baked
in as literals, and the result. The step through the public layers stays as
the exact fallback.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from math import isfinite
from operator import neg
from typing import Callable

from .adaptive import evaluate_with_clamping
from .fields import (
    ControlAffineSystem,
    SmoothScalarField,
    _CheckedState,
    _Trace,
    _Traced,
    as_state,
)
from .qp import QpProblem, _inverse_cholesky_factor, _kernel_lines, _prelude, solve_qp
from .robust import (
    BETA_DEGENERACY_TOL,
    AffineControlConstraint,
    _checked_constraint,
    _dot,
    _row_times_matrix,
)

__all__ = [
    "ControllerError",
    "ClfSpec",
    "ControllerSpec",
    "ControlStepResult",
    "clf_constraint",
    "control_step",
]

DEFAULT_CONTROL_PERIOD = 1e-3

MODES = ("hocbf", "drcbf", "adrcbf")


class ControllerError(ValueError):
    """Invalid controller specification."""


@dataclass(frozen=True)
class ClfSpec:
    """Tracking Lyapunov function with decay rate sigma and slack weight rho."""

    V: SmoothScalarField
    sigma: float
    slack_weight: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ControllerError("sigma must be strictly positive")
        if not self.slack_weight > 0.0:
            raise ControllerError("slack weight must be strictly positive")


@dataclass(frozen=True)
class ControllerSpec:
    """Mode, safety cascade, stability spec, and quadratic tracking cost.

    objective_h is the symmetric positive-definite H of u'Hu; objective_f
    maps the state to the linear cost row F(x) (a constant row is also
    accepted). control_period is the zero-order-hold duration in seconds.

    The first control_step traces the spec's assembly into a compiled step
    (see _compile_step). For that, the system's f, g and h, objective_f and
    every field evaluator of the chain and the CLF must be pure float
    arithmetic and comparisons on their inputs; a spec whose assembly
    cannot be traced runs the generic step throughout, with the same
    results.
    """

    mode: str
    chain: object
    clf: ClfSpec
    objective_h: tuple
    objective_f: Callable
    control_period: float = DEFAULT_CONTROL_PERIOD

    def __post_init__(self):
        if self.mode not in MODES:
            raise ControllerError(f"unknown controller mode {self.mode!r}")
        if not self.control_period > 0.0:
            raise ControllerError("control period must be strictly positive")
        h = tuple(tuple(float(v) for v in row) for row in self.objective_h)
        object.__setattr__(self, "objective_h", h)
        p = len(h)
        for row in h:
            if len(row) != p:
                raise ControllerError("objective H must be square")
        for i in range(p):
            for j in range(p):
                if abs(h[i][j] - h[j][i]) > 1e-12 * max(abs(h[i][j]), 1.0):
                    raise ControllerError("objective H must be symmetric")
        if not callable(self.objective_f):
            row = tuple(float(v) for v in self.objective_f)
            object.__setattr__(self, "objective_f", lambda xs: row)
        quad = [tuple(2.0 * h[i][j] for j in range(p)) + (0.0,) for i in range(p)]
        quad.append((0.0,) * p + (2.0 * self.clf.slack_weight,))
        object.__setattr__(self, "_qp_quadratic", tuple(quad))
        # The compiled step, traced on the first control_step (it needs a
        # state); False once the spec turned out not to be traceable.
        object.__setattr__(self, "_step", None)

    @property
    def system(self) -> ControlAffineSystem:
        return self.chain.system


@dataclass(frozen=True)
class ControlStepResult:
    """QP outcome for one step plus everything the trajectory log audits."""

    u: tuple
    slack: float
    qp_status: str
    cbf_residual: float
    clf_residual: float
    phi: tuple
    guard_events: tuple
    cbf_constraint: AffineControlConstraint
    clf_row: tuple
    clf_offset: float
    active_set: tuple


def _clf_terms(clf: ClfSpec, system: ControlAffineSystem, xs):
    """Row over (u, slack) and offset of the stability row at a checked state."""
    value, grad = clf.V._jet(xs)
    lfv = _dot(grad, system.f(xs))
    lgv = _row_times_matrix(grad, system.g(xs), system.n, system.p)
    return (*lgv, -1.0), -clf.sigma * value - lfv


def clf_constraint(clf: ClfSpec, system: ControlAffineSystem, x) -> AffineControlConstraint:
    """Stability row over (u, slack):  L_g V . u - slack <= -sigma V - L_f V."""
    row, offset = _clf_terms(clf, system, as_state(x, system.n))
    return AffineControlConstraint(row=row, offset=offset, sense="<=")


def _safety_terms(spec: ControllerSpec, xs):
    """The cascade evaluation and the offset of the mode's safety row at a
    checked state, unchecked and with guarded reciprocals unclamped."""
    chain = spec.chain
    ev = chain.evaluate(xs)
    if spec.mode == "drcbf":
        offset = chain.k[-1] * chain.disturbance_bound ** 2 - ev.top_drift
    elif spec.mode == "adrcbf":
        offset = chain.k[-1] * chain.top_energy(ev.phi[-1]) - ev.top_drift
    else:
        offset = -ev.top_drift
    for c, value in zip(chain.coeffs.row(chain.m), ev.levels):
        offset -= c * value
    return ev, offset


def _cbf_constraint_for_mode(spec: ControllerSpec, x):
    """Constraint plus the cascade evaluation and any guard events."""
    if spec.mode == "adrcbf":
        ev, constraint, events = evaluate_with_clamping(spec.chain, x)
        return constraint, ev, events
    ev, offset = _safety_terms(spec, x)
    return _checked_constraint(ev.control_row, offset, x), ev, ()


def _frozen(cls, fields):
    """An instance of the frozen dataclass cls holding fields, a dict of
    every field in declaration order, without its __init__ or __post_init__.

    Only for values that have passed cls's own checks already, as the
    compiled step's outputs have."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _compile_step(spec: ControllerSpec, xs):
    """control_step for spec as one generated function of a checked state,
    or False.

    The step's float work before the QP is traced once at xs (see
    _trace_assembly). The function repeats it, checks its outputs as the
    generic step's layers do, runs the QP's active-set enumeration with the
    spec's factor of Q baked in (see _step_lines) and builds the result. It
    returns the generic step's ControlStepResult, or None wherever the
    generic step has something else to do: a comparison recorded by the
    trace comes out differently (a guard breach), the traced assembly
    raises, an output is non-finite or the safety row is degenerate. The
    caller then runs the generic step. A QP that is not solved needs no
    fallback: without guard events the generic step reports it the same
    way. If the trace fails, the spec keeps the generic step, which then
    raises or clamps as the evaluation itself does.
    """
    trace = _Trace()
    # The generic step reproduces whatever went wrong, so any exception only
    # means that this spec is not traced.
    try:
        outputs = _trace_assembly(spec, trace, trace.inputs(xs))
        if not outputs:
            return False
        row, offset, clf_row, clf_offset, c, phi = outputs
        op = trace.operand
        p = len(row)

        def result(u, slack, status, cbf_residual, clf_residual, active_set):
            return (
                f"return _frozen(ControlStepResult, {{'u': {u}, 'slack': {slack},"
                f" 'qp_status': {status}, 'cbf_residual': {cbf_residual},"
                f" 'clf_residual': {clf_residual}, 'phi': {op(phi)}, 'guard_events': (),"
                f" 'cbf_constraint': _frozen(AffineControlConstraint,"
                f" {{'row': {op(row)}, 'offset': {op(offset)}, 'sense': '>='}}),"
                f" 'clf_row': {op(clf_row)}, 'clf_offset': {op(clf_offset)},"
                f" 'active_set': {active_set}}})"
            )

        def accept(z, subset, lam):
            return [result(f"({''.join(f'{x}, ' for x in z[:p])})", z[p], "'optimal'",
                           *_residuals(trace, outputs, z), repr(subset))]

        reject = [result("()", "nan", "'infeasible'", "nan", "nan", "()")]
        lines = _step_lines(spec, trace, outputs, "return None", accept, reject)
        return trace.function(lines, _STEP_NAMESPACE, declines=True)
    except Exception:
        return False


def _trace_assembly(spec: ControllerSpec, trace, xs):
    """Runs the step's float work before the QP (the safety row, the
    stability row and objective_f) once on xs, traced floats of trace, in an
    empty context so that guarded reciprocals raise instead of clamping.

    Returns the step's (safety row, its offset, stability row, its offset,
    c, phi), or None if the trace cannot stand for the generic step: an
    operation raised, or the rows and c have the wrong lengths. Raises
    whatever the evaluation raises.
    """
    system = spec.system
    inputs = _CheckedState(xs)

    def as_float(value):
        # The generic step converts the rows, offsets and c with float().
        # Traced values are floats when the function runs, since its inputs
        # are, so only the constants need converting, here.
        return value if value.__class__ is _Traced else float(value)

    def assemble():
        ev, offset = _safety_terms(spec, inputs)
        clf_row, clf_offset = _clf_terms(spec.clf, system, inputs)
        c = (*spec.objective_f(inputs), 0.0)
        return (
            tuple(map(as_float, ev.control_row)),
            as_float(offset),
            tuple(map(as_float, clf_row)),
            as_float(clf_offset),
            tuple(map(as_float, c)),
            ev.phi,
        )

    outputs = contextvars.Context().run(assemble)
    row, _, clf_row, _, c, _ = outputs
    if trace.raised or not len(row) + 1 == len(clf_row) == len(c) == system.p + 1:
        return None
    return outputs


_STEP_NAMESPACE = {
    "sqrt": math.sqrt,
    "isfinite": isfinite,
    "nan": math.nan,
    "_frozen": _frozen,
    "ControlStepResult": ControlStepResult,
    "AffineControlConstraint": AffineControlConstraint,
}


def _step_lines(spec, trace, outputs, decline, accept, reject, condition="True"):
    """The lines of a traced step after its assembly (see _trace_assembly):
    the generic step's output checks, which run the line decline where they
    fail, then the QP with the spec's factor of its quadratic baked in, from
    qp._kernel_lines with accept, reject and condition. They need sqrt and
    isfinite as globals. The squared norm of the safety row, its negation
    and the QP's prelude (see qp._prelude) are recorded on trace, so that
    the trace's simplification covers them; the trace's operations up to
    this call must be rendered before these lines.
    """
    row, offset, clf_row, clf_offset, c, _ = outputs
    R = _inverse_cholesky_factor(spec._qp_quadratic)
    op = trace.operand

    def dot(u, w):
        return _traced_sum(trace, [a * b for a, b in zip(u, w)])

    norm = dot(row, row)
    # Both rows normalized to <= sense: the safety row flips sign.
    A = (clf_row, (*map(neg, row), 0.0))
    b = (clf_offset, -offset)
    y, v, g, e = _prelude(
        R, c, A, b, lambda name, u, w: dot(u, w), lambda name, u, w, bi: -dot(u, w) - bi
    )
    checked = [v for v in (offset, clf_offset, *row, *clf_row, *c)
               if v.__class__ is _Traced or not isfinite(v)]
    lines = [
        f"if not (sqrt({op(norm)}) >= {BETA_DEGENERACY_TOL!r} and {trace.check(checked)}):"
        f" {decline}"
    ]
    lines += _kernel_lines(
        [list(map(op, r)) for r in R],
        (list(map(op, y)), [list(map(op, vi)) for vi in v],
         {ij: op(gij) for ij, gij in g.items()}, list(map(op, e))),
        [list(map(op, a)) for a in A],
        list(map(op, b)),
        accept,
        reject,
        condition,
    )
    return lines


def _traced_sum(trace, terms):
    """sum(terms) as qp._sum spells it, on traced floats and constants."""
    if len(terms) > 2:
        return trace.call(f"sum(({'{}, ' * len(terms)}))", lambda *t: sum(t), terms)
    total = 0.0 if terms else 0
    for term in terms:
        total = total + term
    return total


def _residuals(trace, outputs, z):
    """Sources of the safety and stability residuals at the locals z of an
    accepted QP solution, in _step_result's order (robust._dot's: left to
    right from the first product)."""
    row, offset, clf_row, clf_offset, _, _ = outputs
    op = trace.operand
    p = len(row)
    cbf_dot = " + ".join(f"{op(r)} * {x}" for r, x in zip(row, z))
    clf_dot = " + ".join(f"{op(r)} * {x}" for r, x in zip(clf_row, z[:p]))
    return f"{cbf_dot} - {op(offset)}", f"{op(clf_offset)} - ({clf_dot} - {z[p]})"


def control_step(spec: ControllerSpec, x, t: float) -> ControlStepResult:
    """Solve the per-step safety-filtered tracking problem at state x, time t.

    The safety row is hard; the stability row is slacked. A non-optimal QP
    status is reported, not raised, so the simulation loop can abort with the
    partial log. The result is a pure function of (spec, x, t).

    The first step of a spec compiles the step into one generated function
    (see _compile_step); every step runs that, and the generic step wherever
    the compiled one declines. Both give the same result, bit for bit.
    """
    xs = as_state(x, spec.chain.system.n)
    step = spec._step
    if step is None:
        step = _compile_step(spec, xs)
        object.__setattr__(spec, "_step", step)
    if step:
        result = step(xs)
        if result is not None:
            return result
    return _generic_control_step(spec, xs, t)


def _generic_control_step(spec: ControllerSpec, x, t: float) -> ControlStepResult:
    """control_step through the public layers: the cascade constraint (with
    guard clamping in the adaptive mode), the stability row and the QP."""
    system = spec.system
    xs = as_state(x, system.n)
    p = system.p

    cbf, ev, guard_events = _cbf_constraint_for_mode(spec, xs)
    clf_row_con = clf_constraint(spec.clf, system, xs)

    # Decision vector z = (u, slack).
    c_vec = (*spec.objective_f(xs), 0.0)
    if len(c_vec) != p + 1:
        raise ControllerError(
            f"objective F(x) returned {len(c_vec) - 1} entries, expected {p}"
        )

    # Both rows normalized to <= sense: the safety row flips sign.
    a_rows = (clf_row_con.row, (*map(neg, cbf.row), 0.0))
    b_vec = (clf_row_con.offset, -cbf.offset)
    solution = solve_qp(QpProblem(Q=spec._qp_quadratic, c=c_vec, A=a_rows, b=b_vec))

    return _step_result(solution, cbf, clf_row_con.row, clf_row_con.offset, ev.phi, guard_events)


def _step_result(solution, cbf, clf_row, clf_offset, phi, guard_events):
    """The step's result from its QP solution; a non-optimal status comes
    with no control and NaN slack and residuals."""
    if solution.status != "optimal":
        u, slack, cbf_residual, clf_residual = (), math.nan, math.nan, math.nan
    else:
        p = len(clf_row) - 1
        u = solution.z[:p]
        slack = solution.z[p]
        cbf_residual = _dot(cbf.row, u) - cbf.offset
        clf_value = _dot(clf_row[:p], u) - slack
        clf_residual = clf_offset - clf_value
    return ControlStepResult(
        u=u,
        slack=slack,
        qp_status=solution.status,
        cbf_residual=cbf_residual,
        clf_residual=clf_residual,
        phi=phi,
        guard_events=guard_events,
        cbf_constraint=cbf,
        clf_row=clf_row,
        clf_offset=clf_offset,
        active_set=solution.active_set,
    )
