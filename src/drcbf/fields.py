"""Scalar fields over state space with exact forward-mode derivatives.

Fields are jet-evaluable: their evaluators accept plain floats or nested dual
numbers, so any field derived from another (Lie derivatives, squared norms of
Lie-derivative rows, guarded reciprocals, algebraic combinations) remains
exactly differentiable at the next level. Gradients are therefore true
forward-mode derivatives at every recursion depth, never finite differences.

Fields and systems are immutable after construction and evaluation is
pure, so concurrent evaluation from multiple workers is safe.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "FieldError",
    "DimensionMismatchError",
    "ReciprocalGuardError",
    "GuardEvent",
    "clamped_guards",
    "Dual",
    "real_value",
    "as_state",
    "SmoothScalarField",
    "ControlAffineSystem",
    "RelativeDegreeReport",
    "field_from_callable",
    "constant_field",
    "coordinate_field",
    "lie_derivative_field",
    "reciprocal_field",
    "lie_f",
    "lie_h",
    "verify_relative_degree",
]

RELATIVE_DEGREE_TOL = 1e-9
DEFAULT_RECIPROCAL_GUARD = 1e-9


class FieldError(Exception):
    """Base class for field construction and evaluation errors."""


class DimensionMismatchError(FieldError):
    """An operand was evaluated with data of the wrong dimension."""

    def __init__(self, operand: str, expected: int, got: int):
        self.operand = operand
        self.expected = expected
        self.got = got
        super().__init__(
            f"{operand}: expected dimension {expected}, got {got}"
        )


class ReciprocalGuardError(FieldError):
    """A guarded reciprocal was evaluated too close to zero."""

    def __init__(self, value: float, guard: float):
        self.value = value
        self.guard = guard
        super().__init__(
            f"reciprocal operand {value!r} inside guard band {guard!r}"
        )


class Dual:
    """First-order jet: a value plus derivatives along seed directions.

    Components may themselves be Dual, which is what makes nested (second,
    third, ...) derivatives of composite fields exact. Arithmetic treats any
    non-Dual operand as a constant.
    """

    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __add__(self, other):
        if other.__class__ is Dual:
            return Dual(
                self.re + other.re,
                tuple(a + b for a, b in zip(self.eps, other.eps)),
            )
        return Dual(self.re + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Dual:
            return Dual(
                self.re - other.re,
                tuple(a - b for a, b in zip(self.eps, other.eps)),
            )
        return Dual(self.re - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.re, tuple(-a for a in self.eps))

    def __neg__(self):
        return Dual(-self.re, tuple(-a for a in self.eps))

    def __mul__(self, other):
        if other.__class__ is Dual:
            a, b = self.re, other.re
            return Dual(
                a * b,
                tuple(a * eb + ea * b for ea, eb in zip(self.eps, other.eps)),
            )
        return Dual(self.re * other, tuple(ea * other for ea in self.eps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Dual:
            return self * other._reciprocal()
        return Dual(self.re / other, tuple(ea / other for ea in self.eps))

    def __rtruediv__(self, other):
        inv = self._reciprocal()
        return inv * other if other != 1.0 else inv

    def _reciprocal(self):
        # 1/self; works when re is itself a Dual because the division
        # re-enters __rtruediv__ at the inner level.
        inv = 1.0 / self.re
        neg_inv_sq = -(inv * inv)
        return Dual(inv, tuple(ea * neg_inv_sq for ea in self.eps))

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("Dual supports nonnegative integer powers only")
        out = 1.0
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"Dual({self.re!r}, {self.eps!r})"


def real_value(scalar):
    """Strip jet layers down to the underlying float."""
    while scalar.__class__ is Dual:
        scalar = scalar.re
    return scalar


@dataclass(frozen=True)
class GuardEvent:
    """One guarded-reciprocal breach observed while clamping was active."""

    value: float
    guard: float


_CLAMP_EVENTS: contextvars.ContextVar = contextvars.ContextVar(
    "drcbf_clamp_events", default=None
)


class clamped_guards:
    """Make guarded reciprocals clamp at the guard instead of raising.

    Within the context, a breached reciprocal evaluates to the constant
    1/guard (zero gradient, since the clamp is locally constant) and the
    breach is appended to the list this context manager returns.
    """

    def __enter__(self):
        self._token = _CLAMP_EVENTS.set([])
        return _CLAMP_EVENTS.get()

    def __exit__(self, exc_type, exc, tb):
        _CLAMP_EVENTS.reset(self._token)
        return False


def _guarded_reciprocal(scalar, guard, positive_domain):
    value = real_value(scalar)
    if (value < guard) if positive_domain else (abs(value) < guard):
        events = _CLAMP_EVENTS.get()
        if events is None:
            raise ReciprocalGuardError(value, guard)
        events.append(GuardEvent(value, guard))
        edge = guard if (positive_domain or value >= 0.0) else -guard
        return 1.0 / edge
    return 1.0 / scalar


class _CheckedState(tuple):
    """A state as_state has already validated: a tuple of finite floats.

    as_state hands such a state of the right length back unchanged, so a state
    checked once per control step is not converted again by every layer it
    passes through. A step trace wraps its traced inputs in one for the same
    reason.
    """

    __slots__ = ()


def as_state(x, n: int, operand: str = "state") -> tuple:
    """Validate and normalize a state to a tuple of finite floats."""
    if x.__class__ is _CheckedState and len(x) == n:
        return x
    entries = _CheckedState(map(float, x))
    if len(entries) != n:
        raise DimensionMismatchError(operand, n, len(entries))
    for v in entries:
        if not math.isfinite(v):
            raise FieldError(f"{operand}: non-finite entry {v!r}")
    return entries


_SEED_CACHE: dict = {}


def _unit_seeds(n: int):
    seeds = _SEED_CACHE.get(n)
    if seeds is None:
        seeds = tuple(
            tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)
        )
        _SEED_CACHE[n] = seeds
    return seeds


class SmoothScalarField:
    """A scalar function of the state with exact gradient evaluation.

    The wrapped evaluator must be closed under Dual arithmetic: it is called
    with plain floats for values and with Dual entries for derivatives, to
    whatever nesting depth later constructions require.

    """

    __slots__ = ("_evaluator", "n")

    def __init__(self, evaluator: Callable, n: int):
        if n < 1:
            raise FieldError("state dimension must be positive")
        self._evaluator = evaluator
        self.n = n

    # Raw jet evaluation; xs entries may be floats or Duals.
    def _jet(self, xs):
        seeds = _unit_seeds(self.n)
        duals = tuple(Dual(xs[i], seeds[i]) for i in range(self.n))
        out = self._evaluator(duals)
        if out.__class__ is Dual:
            return out.re, out.eps
        return out, (0.0,) * self.n

    def value(self, x) -> float:
        return self._evaluator(as_state(x, self.n))

    def gradient(self, x) -> tuple:
        return self._jet(as_state(x, self.n))[1]

    def value_and_gradient(self, x):
        return self._jet(as_state(x, self.n))

    # The algebra below returns composites that stay jet-evaluable.
    def __add__(self, other):
        if isinstance(other, SmoothScalarField):
            self._require_same_n(other)
            a, b = self._evaluator, other._evaluator
            return SmoothScalarField(lambda xs: a(xs) + b(xs), self.n)
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) + c, self.n)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SmoothScalarField):
            self._require_same_n(other)
            a, b = self._evaluator, other._evaluator
            return SmoothScalarField(lambda xs: a(xs) - b(xs), self.n)
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) - c, self.n)

    def __rsub__(self, other):
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: c - a(xs), self.n)

    def __neg__(self):
        a = self._evaluator
        return SmoothScalarField(lambda xs: -a(xs), self.n)

    def __mul__(self, other):
        if isinstance(other, SmoothScalarField):
            self._require_same_n(other)
            a, b = self._evaluator, other._evaluator
            return SmoothScalarField(lambda xs: a(xs) * b(xs), self.n)
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) * c, self.n)

    __rmul__ = __mul__

    def _require_same_n(self, other: "SmoothScalarField"):
        if other.n != self.n:
            raise DimensionMismatchError("field operand", self.n, other.n)


def field_from_callable(fn: Callable, n: int) -> SmoothScalarField:
    """Wrap a Dual-closed callable of the state-entry tuple as a field."""
    return SmoothScalarField(fn, n)


def constant_field(value: float, n: int) -> SmoothScalarField:
    c = float(value)
    return SmoothScalarField(lambda xs: c, n)


def coordinate_field(index: int, n: int) -> SmoothScalarField:
    if not 0 <= index < n:
        raise DimensionMismatchError("coordinate index", n, index)
    return SmoothScalarField(lambda xs: xs[index], n)


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine dynamics dx/dt = f(x) + g(x) u + h(x) d.

    f maps the state tuple to a length-n sequence; g and h map it to n-row
    matrices with p and q columns. All three must be Dual-closed so barrier
    cascades can differentiate through them. ird_m is the number of
    differentiations of a barrier before u appears; drd_r the number before
    d appears.

    The first integrate_step traces one RK4 step of the system into a
    generated function (see drcbf.simulate._trace_rk4). For that, f, g and
    h must be pure float arithmetic and comparisons on their inputs, as the
    compiled control step also needs, whether or not a controller runs the
    system; a system whose step cannot be traced is integrated by the
    generic step throughout, with the same results.
    """

    n: int
    p: int
    q: int
    f: Callable
    g: Callable
    h: Callable
    ird_m: int
    drd_r: int

    def __post_init__(self):
        for name in ("n", "p", "q", "ird_m", "drd_r"):
            if getattr(self, name) < 1:
                raise FieldError(f"system dimension {name} must be positive")
        if self.drd_r > self.ird_m:
            raise FieldError(
                "disturbance relative degree must not exceed input relative degree"
            )
        # The traced RK4 step, made by the first integrate_step; False once
        # the system turned out not to be traceable.
        object.__setattr__(self, "_rk4", None)


def _grad_dot(grad, vec, n):
    s = grad[0] * vec[0]
    for i in range(1, n):
        s = s + grad[i] * vec[i]
    return s


def _grad_times_matrix(grad, mat, n, width):
    row = []
    for j in range(width):
        s = grad[0] * mat[0][j]
        for i in range(1, n):
            s = s + grad[i] * mat[i][j]
        row.append(s)
    return tuple(row)


def _grad_row_squared_norm(grad, mat, n, width):
    total = 0.0
    for j in range(width):
        s = grad[0] * mat[0][j]
        for i in range(1, n):
            s = s + grad[i] * mat[i][j]
        total = total + s * s
    return total


def lie_derivative_field(field: SmoothScalarField, vector_map: Callable) -> SmoothScalarField:
    """The field x -> grad(field)(x) . vector_map(x), itself jet-evaluable."""
    n = field.n
    jet = field._jet

    def evaluator(xs):
        _, grad = jet(xs)
        vec = vector_map(xs)
        return _grad_dot(grad, vec, n)

    return SmoothScalarField(evaluator, n)


def reciprocal_field(
    field: SmoothScalarField,
    guard: float = DEFAULT_RECIPROCAL_GUARD,
    positive_domain: bool = False,
) -> SmoothScalarField:
    """The field 1/field with a guard band around zero.

    Outside a clamped_guards context a breach raises ReciprocalGuardError;
    inside, the reciprocal clamps to 1/guard and the breach is recorded.
    positive_domain treats any value below the guard (including negatives)
    as a breach, which is the right semantics for barrier energies defined
    only on the open safe set.
    """
    if guard <= 0.0:
        raise FieldError("reciprocal guard must be positive")
    inner = field._evaluator

    def evaluator(xs):
        return _guarded_reciprocal(inner(xs), guard, positive_domain)

    return SmoothScalarField(evaluator, field.n)


def _require_field_matches_system(field: SmoothScalarField, system: ControlAffineSystem):
    if field.n != system.n:
        raise DimensionMismatchError("field on system state", system.n, field.n)


def lie_f(field: SmoothScalarField, system: ControlAffineSystem, x) -> float:
    """Lie derivative of the field along the drift f at x."""
    _require_field_matches_system(field, system)
    xs = as_state(x, system.n)
    _, grad = field._jet(xs)
    vec = system.f(xs)
    if len(vec) != system.n:
        raise DimensionMismatchError("drift f(x)", system.n, len(vec))
    return _grad_dot(grad, vec, system.n)


def lie_h(field: SmoothScalarField, system: ControlAffineSystem, x) -> tuple:
    """Row of Lie derivatives of the field along the disturbance columns of h at x."""
    _require_field_matches_system(field, system)
    xs = as_state(x, system.n)
    _, grad = field._jet(xs)
    mat = system.h(xs)
    if len(mat) != system.n:
        raise DimensionMismatchError("disturbance map h(x)", system.n, len(mat))
    return _grad_times_matrix(grad, mat, system.n, system.q)


@dataclass(frozen=True)
class RelativeDegreeReport:
    """Sampled check of the declared input/disturbance relative degrees."""

    ird_ok: bool
    drd_ok: bool
    witnesses: tuple


def _row_norm(row) -> float:
    return math.sqrt(sum(v * v for v in row))


def verify_relative_degree(
    system: ControlAffineSystem,
    b: SmoothScalarField,
    samples: Sequence,
    tol: float = RELATIVE_DEGREE_TOL,
) -> RelativeDegreeReport:
    """Check declared relative degrees by sampling.

    For each sample: the input rows L_g L_f^k b must vanish (norm <= tol) for
    k < ird_m - 1 and be nonzero at k = ird_m - 1; analogously for the
    disturbance rows with drd_r. The report carries the first violation of
    each check as a witness.
    """
    _require_field_matches_system(b, system)
    states = [as_state(x, system.n) for x in samples]
    depth = max(system.ird_m, system.drd_r)
    levels = [b]
    for _ in range(depth - 1):
        levels.append(lie_derivative_field(levels[-1], system.f))

    witnesses = []

    def scan(matrix_map, width, degree, label):
        for k in range(degree):
            expect_zero = k < degree - 1
            for xs in states:
                _, grad = levels[k]._jet(xs)
                norm = _row_norm(
                    _grad_times_matrix(grad, matrix_map(xs), system.n, width)
                )
                if expect_zero and norm > tol:
                    witnesses.append(
                        {
                            "check": label,
                            "level": k,
                            "state": xs,
                            "row_norm": norm,
                            "expected": "zero",
                        }
                    )
                    return False
                if not expect_zero and norm <= tol:
                    witnesses.append(
                        {
                            "check": label,
                            "level": k,
                            "state": xs,
                            "row_norm": norm,
                            "expected": "nonzero",
                        }
                    )
                    return False
        return True

    ird_ok = scan(system.g, system.p, system.ird_m, "ird")
    drd_ok = scan(system.h, system.q, system.drd_r, "drd")
    return RelativeDegreeReport(ird_ok, drd_ok, tuple(witnesses))
