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
cost, the output checks, the QP's active-set enumeration that solve_qp
runs (see drcbf.qp), traced with this spec's factor of Q as literals, and
the result. The step through the public layers stays as the exact
fallback.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from math import isfinite
from operator import neg
from typing import Callable

from ._trace import _Trace, _Traced
from .fields import (
    ControlAffineSystem,
    SmoothScalarField,
    _CheckedState,
    _grad_dot,
    _grad_times_matrix,
    as_state,
)
from .qp import (
    QpProblem,
    _enumerate,
    _inverse_cholesky_factor,
    _prelude,
    _traced_sum,
    solve_qp,
)
from .robust import BETA_DEGENERACY_TOL, AffineControlConstraint, evaluate_with_clamping

__all__ = [
    "ControllerError",
    "ClfSpec",
    "ControllerSpec",
    "ControlStepResult",
    "clf_constraint",
    "control_step",
]

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
    """Safety cascade, stability spec, and quadratic tracking cost.

    The run's records label the spec by its cascade (see
    BarrierCascade.mode). objective_h is the symmetric positive-definite H
    of u'Hu; objective_f maps the state to the linear cost row F(x) (a
    constant row is also accepted).

    The first control_step traces the spec's assembly into a compiled step
    (see _compile_step). For that, the system's f, g and h, objective_f and
    every field evaluator of the chain and the CLF must be pure float
    arithmetic and comparisons on their inputs; a spec whose assembly
    cannot be traced runs the generic step throughout, with the same
    results.
    """

    chain: object
    clf: ClfSpec
    objective_h: tuple
    objective_f: Callable

    def __post_init__(self):
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
    active_set: tuple


def _clf_terms(clf: ClfSpec, system: ControlAffineSystem, xs):
    """Row over (u, slack) and offset of the stability row at a checked state."""
    value, grad = clf.V._jet(xs)
    lfv = _grad_dot(grad, system.f(xs), system.n)
    lgv = _grad_times_matrix(grad, system.g(xs), system.n, system.p)
    return (*lgv, -1.0), -clf.sigma * value - lfv


def clf_constraint(clf: ClfSpec, system: ControlAffineSystem, x) -> AffineControlConstraint:
    """Stability row over (u, slack):  L_g V . u - slack <= -sigma V - L_f V."""
    row, offset = _clf_terms(clf, system, as_state(x, system.n))
    return AffineControlConstraint(row=row, offset=offset, sense="<=")


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
    _trace_assembly), then its output checks and the QP's active-set
    enumeration with the spec's factor of Q as literals (see _trace_qp),
    each accepted active set returning its result with the residuals. The
    function repeats all of it. It returns the generic step's
    ControlStepResult, or None wherever the generic step has something else
    to do: a comparison recorded by the trace outside the QP comes out
    differently (a guard breach), the traced assembly raises, an output is
    non-finite or the safety row is degenerate, or a check the trace's
    simplification added fails. The caller then runs the generic step. A QP that is not solved needs no
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
        op = trace.operand
        p = len(outputs[0])

        def result(u, slack, status, cbf_residual, clf_residual, active_set):
            return (
                f"return _frozen(ControlStepResult, {{'u': {u}, 'slack': {slack},"
                f" 'qp_status': {status}, 'cbf_residual': {cbf_residual},"
                f" 'clf_residual': {clf_residual}, 'phi': {op(outputs[5])}, 'guard_events': (),"
                f" 'active_set': {active_set}}})"
            )

        def accept(z, subset, lam):
            return [result(op(tuple(z[:p])), op(z[p]), "'optimal'",
                           *map(op, _residuals(outputs, z)), repr(subset))]

        _trace_qp(spec, trace, outputs, "return None", accept)
        reject = [result("()", "nan", "'infeasible'", "nan", "nan", "()")]
        return trace.function(reject, _STEP_NAMESPACE, declines=True)
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
        ev = spec.chain.evaluate(inputs)
        clf_row, clf_offset = _clf_terms(spec.clf, system, inputs)
        c = (*spec.objective_f(inputs), 0.0)
        return (
            tuple(map(as_float, ev.control_row)),
            as_float(ev.offset),
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
}


def _trace_qp(spec, trace, outputs, decline, accept, header="while True:"):
    """Record on trace, after a step's assembly (see _trace_assembly), the
    generic step's output checks, which run the line decline where they
    fail, then the QP's active-set enumeration (see qp._enumerate) with the
    spec's factor of its quadratic as literals, each active set a block
    under header whose accepted set runs the lines accept returns. The
    generated code needs sqrt and isfinite as globals.
    """
    row, offset, clf_row, clf_offset, c, _ = outputs
    R = _inverse_cholesky_factor(spec._qp_quadratic)
    op = trace.operand
    norm = _traced_sum(trace, [a * a for a in row])
    A, b = _qp_rows(outputs)
    prelude = _prelude(trace, R, c, A, b)
    checked = [v for v in (offset, clf_offset, *row, *clf_row, *c)
               if v.__class__ is _Traced or not isfinite(v)]
    trace.line(f"if not (sqrt({op(norm)}) >= {BETA_DEGENERACY_TOL!r} and {trace.check(checked)}):"
               f" {decline}")
    _enumerate(trace, R, A, b, prelude, accept, header, decline)


def _qp_rows(outputs):
    """The QP's constraint rows A over (u, slack) and offsets b from a step's
    (safety row, its offset, stability row, its offset, c, phi): both rows
    normalized to <= sense, so the safety row flips sign."""
    row, offset, clf_row, clf_offset, _, _ = outputs
    return (clf_row, (*map(neg, row), 0.0)), (clf_offset, -offset)


def _residuals(outputs, z):
    """The safety and stability residuals at an accepted QP solution z of a
    step's (safety row, its offset, stability row, its offset, c, phi)."""
    row, offset, clf_row, clf_offset, _, _ = outputs
    p = len(row)
    return _grad_dot(row, z, p) - offset, clf_offset - (_grad_dot(clf_row, z, p) - z[p])


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
    guarded reciprocals clamped), the stability row and the QP."""
    system = spec.system
    xs = as_state(x, system.n)
    p = system.p

    ev, cbf, guard_events = evaluate_with_clamping(spec.chain, xs)
    clf = clf_constraint(spec.clf, system, xs)

    # Decision vector z = (u, slack).
    c_vec = (*spec.objective_f(xs), 0.0)
    if len(c_vec) != p + 1:
        raise ControllerError(
            f"objective F(x) returned {len(c_vec) - 1} entries, expected {p}"
        )

    outputs = (cbf.row, cbf.offset, clf.row, clf.offset, c_vec, ev.phi)
    A, b = _qp_rows(outputs)
    solution = solve_qp(QpProblem(Q=spec._qp_quadratic, c=c_vec, A=A, b=b))

    # A non-optimal status comes with no control and NaN slack and residuals.
    if solution.status != "optimal":
        u, slack, cbf_residual, clf_residual = (), math.nan, math.nan, math.nan
    else:
        u, slack = solution.z[:p], solution.z[p]
        cbf_residual, clf_residual = _residuals(outputs, solution.z)
    return ControlStepResult(
        u=u,
        slack=slack,
        qp_status=solution.status,
        cbf_residual=cbf_residual,
        clf_residual=clf_residual,
        phi=ev.phi,
        guard_events=guard_events,
        active_set=solution.active_set,
    )
