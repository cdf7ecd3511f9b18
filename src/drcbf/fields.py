"""Scalar fields over state space with exact forward-mode derivatives.

Fields are jet-evaluable: their evaluators accept plain floats or nested dual
numbers, so any field derived from another (Lie derivatives, squared norms of
Lie-derivative rows, guarded reciprocals, algebraic combinations) remains
exactly differentiable at the next level. Gradients are therefore true
forward-mode derivatives at every recursion depth, never finite differences.

Fields and systems are immutable after construction and evaluation is
pure, so concurrent evaluation from multiple workers is safe.

_Trace and _Traced record the float operations of one evaluation as a
generated function; the controller traces its whole control step with them
(see drcbf.controller), and the simulator one RK4 step of a system and each
run's whole loop (see drcbf.simulate).
"""

from __future__ import annotations

import contextvars
import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import copysign
from operator import add, eq, ge, gt, le, lt, mul, ne, neg, sub, truediv
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


class _Deopt(Exception):
    """A comparison recorded by a trace comes out differently here."""


_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}
_UNARY = {"neg": neg, "abs": abs}
_COMPARISONS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq, "!=": ne}
# The operations whose result is non-finite wherever an operand is; a
# division's is wherever its numerator is, or it raises.
_PROPAGATING = frozenset(("+", "-", "*", "neg", "abs"))
# Values this large or larger round to infinity.
_OVERFLOW = Fraction(2**1024 - 2**970)
# The names of the recorded operations' results in source.
_RESULT_NAME = re.compile(r"\bt\d+\b|\b_finite\d+\b")
_NO_NAMES = frozenset()


def _negative_zero(c):
    return c.__class__ is float and c == 0.0 and copysign(1.0, c) < 0.0


def _positive_zero(c):
    # An int 0 subtracts as 0.0 does.
    return c.__class__ is not str and c == 0.0 and copysign(1.0, c) > 0.0


class _Trace:
    """The float operations of one evaluation, as Python source.

    inputs(), input() and local() hand out traced floats; the evaluation runs
    on them, and each operation it does is recorded (see _Traced). A caller
    then writes its own lines, which read the results by operand() and make
    their finiteness checks by check(), and simplify() rewrites the recorded
    operations before render() and resolve() give the source; function()
    does all three.

    simplify() keeps every result bit for bit (any NaN standing for any
    other). The rules:

    - exact always: an operation on constants only is folded; x - 0.0,
      x + -0.0, -0.0 + x, x * 1.0, 1.0 * x and x / 1.0 are x, for a float x;
      a repeated right-hand side, with the operands of + and * in a canonical
      order, is the name first assigned it;
    - exact where x is never -0.0: x + 0.0 and 0.0 + x are x. A result is
      never -0.0 if it is a sum with a term that is never -0.0 (0.0 + y,
      x + c with c not -0.0), a difference a - b with a never -0.0 or b a
      constant other than 0.0, a square, or non-negative: abs, a constant
      above or at 0.0, a local declared so, and sums, products and
      quotients of non-negative values;
    - exact where x is finite: x * ±0.0 is a zero (of either sign), and so
      are products of zeros with finite constants or names, sums,
      differences and negations of zeros and zeros over a finite non-zero
      constant; a + z and a - z are a where a is never -0.0 or has the sign
      bit of z (of -z, for a - z), and z * z and abs(z) are 0.0. Sign bits
      are known as the parity of those of a set of names, through
      products, quotients, negations and x + x.

    The last rules hold only where every name they take as finite is: such
    a rule is applied only where a non-finite value of that name would still
    reach a check through the operations left, by +, -, *, unary minus, abs
    or as a numerator, each of which keeps a value non-finite or raises. So
    where the name is not finite, the simplified function declines as the
    evaluation's own would have. Where the name reaches no check, it is
    added to the first check after it, or, in its place, an operand it
    cannot be non-finite without (see _implied); with no check after it,
    the rule is not applied and the operation is kept. The simplified
    function may thus decline where the evaluation's own would not, never
    the other way round. Then every operation whose result is no longer
    read, and which cannot raise, is dropped. A recorded comparison is never
    dropped or moved.
    """

    def __init__(self):
        # (index, result name or None for a comparison, kind, source template
        # with one {} per operand, operands): kind is an operator symbol,
        # "neg", "abs", "call" or "guard"; an operand is a name or a constant.
        self.ops = []
        # Non-finite constants, which have no literal, by the global names
        # they are bound to.
        self.constants = {}
        self.n_inputs = 0
        # One entry per argument of function(): its name, and the names of
        # the inputs it is unpacked into (None for a single input).
        self.arguments = []
        # Set when an operation raised: the evaluation may have caught it and
        # branched on it, which the recorded operations would not show.
        self.raised = False
        # The names that hold floats, are never -0.0 or are non-negative.
        self.floats = set()
        self.never_negative_zero = set()
        self.non_negative = set()
        # Set by simplify(): each rewritten result's replacement, and the
        # operations kept.
        self.replaced = {}
        self.kept = None
        # The number of operations recorded before each input and local and
        # before each check() (with the values it checks), and the names
        # simplify() adds to each check.
        self.positions = {}
        self.checks = []
        self.extra = []

    def _traced(self, name, value):
        if value.__class__ is float:
            self.floats.add(name)
        return _Traced(self, name, value)

    def _leaf(self, name, value, non_negative=False):
        self.positions[name] = len(self.ops)
        if non_negative:
            self.non_negative.add(name)
        return self._traced(name, value)

    def input(self, value):
        """A traced float holding value: the next argument of function()."""
        name = f"x{self.n_inputs}"
        self.n_inputs += 1
        self.arguments.append((name, None))
        return self._leaf(name, value)

    def inputs(self, values):
        """Traced floats holding values: the next argument of function(), a
        sequence of exactly that many entries."""
        start = self.n_inputs
        self.n_inputs += len(values)
        names = [f"x{i}" for i in range(start, self.n_inputs)]
        self.arguments.append((f"a{len(self.arguments)}", names))
        return tuple(self._leaf(name, v) for name, v in zip(names, values))

    def local(self, name, value, non_negative=False):
        """A traced float holding value, read from the local name of the
        generated code, which the caller assigns (never -0.0 nor negative, if
        non_negative)."""
        return self._leaf(name, value, non_negative)

    def operand(self, x):
        """Source for a traced float, a constant or a nested tuple of them.

        A finite constant is written as its repr, which reads back as the
        same float or int, -0.0 included; inf and nan are bound to names.
        """
        if x.__class__ is _Traced:
            return x.name
        if x.__class__ is int or (x.__class__ is float and math.isfinite(x)):
            return repr(x)
        if x.__class__ is float:
            name = f"K{len(self.constants)}"
            self.constants[name] = x
            return name
        if x.__class__ is tuple:
            return "(" + "".join(f"{self.operand(v)}, " for v in x) + ")"
        raise TypeError(f"cannot trace an operand of type {type(x).__name__}")

    def mark(self):
        """The position of the next operation, for render()."""
        return len(self.ops)

    def record(self, kind, template, operands, value):
        """A traced float holding value, the result of an operation."""
        name = f"t{len(self.ops)}"
        self.ops.append((len(self.ops), name, kind, template, operands))
        return self._traced(name, value)

    def call(self, template, function, operands, never_negative_zero=False):
        """function(*operands), a pure function of traced floats and
        constants, written as template with {} for each operand."""
        values = [v.value if v.__class__ is _Traced else v for v in operands]
        if not any(v.__class__ is _Traced for v in operands):
            return function(*values)
        keys = tuple(v.name if v.__class__ is _Traced else v for v in operands)
        result = self.record("call", template, keys, function(*values))
        if never_negative_zero:
            self.never_negative_zero.add(result.name)
        return result

    def guard(self, template, operands):
        """Record the comparison template, which raises _Deopt."""
        self.ops.append((len(self.ops), None, "guard", template, operands))

    def check(self, values):
        """Source that is true where the traced floats and constants values
        are all finite: a check the caller's code makes at this point of the
        evaluation, on every path that does not decline. simplify() may add
        names to it."""
        self.checks.append((len(self.ops), list(values)))
        return f"_finite{len(self.checks) - 1}"

    def simplify(self, lines):
        """Rewrite the recorded operations by the rules above, for a function
        whose caller's lines read the results that occur in them."""
        reads = set(_RESULT_NAME.findall("\n".join(lines)))
        blocked = set()
        while True:
            replaced, kept, assumed = self._rewrite(blocked)

            def names(found):
                return {n for n in (replaced.get(v, v) for v in found) if n.__class__ is str}

            checked = names(v.name for _, values in self.checks for v in values
                            if v.__class__ is _Traced)
            live = names(reads) | checked
            reach = set(checked)
            for _, name, kind, _, args in reversed(_prune(kept, set(live))):
                if name in reach:
                    if kind in _PROPAGATING:
                        reach.update(a for a in args if a.__class__ is str)
                    elif kind == "/" and args[0].__class__ is str:
                        reach.add(args[0])
            # A name that reaches no check is checked itself where it is
            # formed, or through the operand it cannot be finite without.
            defined = {op[1]: op for op in kept if op[1] is not None}
            extra = [[] for _ in self.checks]
            missing = set()
            for name in sorted(assumed):
                if name in reach:
                    continue
                nodes, steps = [name], []
                step = _implied(defined.get(name))
                while step:
                    nodes.append(step[0])
                    steps.append(step[1:])
                    step = _implied(defined.get(step[0]))
                # The operands that name cannot be non-finite without: one
                # that reaches a check, or else the farthest.
                roots = [y for j, y in enumerate(nodes) if _stays_finite(steps[:j][::-1])]
                if any(y in reach for y in roots):
                    continue
                root = roots[-1]
                formed = defined[root][0] + 1 if root in defined else self.positions[root] + 1
                site = next((i for i, (at, _) in enumerate(self.checks) if at >= formed), None)
                if site is None:
                    missing.add(name)
                elif root not in extra[site]:
                    extra[site].append(root)
            if not missing:
                self.replaced, self.extra = replaced, extra
                self.kept = _prune(kept, live | {n for added in extra for n in added})
                return
            blocked |= missing

    def _rewrite(self, blocked):
        """One pass of the rules over the recorded operations, taking no name
        in blocked as finite: (replaced, kept, assumed), the replacement of
        each rewritten result, the operations left and the names taken as
        finite."""
        replaced, seen, zeros, signs, kept, assumed = {}, {}, {}, {}, [], set()
        floats = self.floats
        non_negative = set(self.non_negative)
        never_negative_zero = self.never_negative_zero | non_negative

        def is_float(a):
            return a in floats if a.__class__ is str else a.__class__ is float

        def zero(a):
            # The names a is a zero under, or None.
            if a.__class__ is str:
                return zeros.get(a)
            return _NO_NAMES if a.__class__ is float and a == 0.0 else None

        def nonnegative(a):
            if a.__class__ is str:
                return a in non_negative
            return a > 0.0 or (a == 0.0 and copysign(1.0, a) > 0.0)

        def never_minus_zero(a):
            if a.__class__ is str:
                return a in never_negative_zero
            return not _negative_zero(a)

        def sign(a):
            # The sign bit of a (unless a NaN), as the parity of the sign
            # bits of a set of names and a flip.
            if a.__class__ is str:
                return signs.get(a) or (frozenset((a,)), False)
            return _NO_NAMES, copysign(1.0, a) < 0.0

        def rewrite(kind, args):
            # The replacement of the result and the names it takes as finite,
            # or None.
            if kind == "call":
                return None
            if kind in _UNARY:
                (a,) = args
                if a.__class__ is not str:
                    return _UNARY[kind](a), _NO_NAMES
                if kind == "abs" and a in zeros:
                    return 0.0, zeros[a]
                return None
            a, b = args
            if a.__class__ is not str and b.__class__ is not str:
                try:
                    return _ARITHMETIC[kind](a, b), _NO_NAMES
                except ArithmeticError:
                    return None
            if kind == "+":
                for p, q in ((a, b), (b, a)):
                    if is_float(p):
                        if _negative_zero(q):
                            return p, _NO_NAMES
                        if zero(q) is not None and (never_minus_zero(p) or sign(p) == sign(q)):
                            return p, zero(q)
            elif kind == "-":
                if is_float(a):
                    if _positive_zero(b):
                        return a, _NO_NAMES
                    if zero(b) is not None:
                        names, flip = sign(b)
                        if never_minus_zero(a) or sign(a) == (names, not flip):
                            return a, zero(b)
            elif kind == "*":
                for p, q in ((a, b), (b, a)):
                    if is_float(p) and q.__class__ is float and q == 1.0:
                        return p, _NO_NAMES
                if a == b and zero(a) is not None:
                    return 0.0, zero(a)
            elif is_float(a) and b.__class__ is float and b == 1.0:
                return a, _NO_NAMES
            return None

        def zero_under(kind, args):
            # The names the result is a zero under, or None.
            if kind == "neg":
                return zero(args[0])
            if kind in ("+", "-"):
                za, zb = map(zero, args)
                return None if za is None or zb is None else za | zb
            if kind == "/":
                a, b = args
                finite = b.__class__ is float and b != 0.0 and math.isfinite(b)
                return zero(a) if finite else None
            if kind != "*":
                return None
            for p, q in (args, args[::-1]):
                zq = zero(q)
                if zq is None:
                    continue
                zp = zero(p)
                if zp is not None:
                    return zq | zp
                if p.__class__ is str:
                    if p in floats and p not in blocked:
                        return zq | {p}
                elif p.__class__ is float and math.isfinite(p):
                    return zq
            return None

        get = replaced.get
        for index, name, kind, template, args in self.ops:
            # Constants are no keys of replaced: they come back as they are.
            args = tuple([get(a, a) for a in args])
            if name is None:
                kept.append((index, name, kind, template, args))
                continue
            rule = rewrite(kind, args)
            if rule is not None:
                replaced[name], needs = rule
                assumed |= needs
                continue
            codes = [a if a.__class__ is str else f"~{a!r}" for a in args]
            if kind in ("+", "*"):
                codes.sort()
            key = (template, *codes)
            if key in seen:
                replaced[name] = seen[key]
                continue
            seen[key] = name
            kept.append((index, name, kind, template, args))
            under = zero_under(kind, args)
            if under is not None:
                zeros[name] = under
            if kind == "neg":
                names, flip = sign(args[0])
                signs[name] = names, not flip
            elif kind in ("*", "/"):
                (na, fa), (nb, fb) = map(sign, args)
                signs[name] = na ^ nb, fa != fb
            elif kind == "abs":
                signs[name] = _NO_NAMES, False
            elif kind == "+" and args[0] == args[1]:
                signs[name] = sign(args[0])
            if kind == "abs" or (kind == "*" and args[0] == args[1]) or (
                kind in ("+", "*", "/") and all(map(nonnegative, args))
            ):
                non_negative.add(name)
                never_negative_zero.add(name)
            elif kind == "+" and any(map(never_minus_zero, args)):
                never_negative_zero.add(name)
            elif kind == "-" and (never_minus_zero(args[0]) or (
                args[1].__class__ is not str and not _positive_zero(args[1])
            )):
                never_negative_zero.add(name)
        return replaced, kept, assumed

    def _source(self, a):
        return a if a.__class__ is str else self.operand(a)

    def render(self, start=0, stop=None):
        """The source lines of the kept operations recorded from position
        start (see mark()) to stop, in order."""
        stop = len(self.ops) if stop is None else stop
        lines = []
        for index, name, _, template, args in self.kept:
            if start <= index < stop:
                text = template.format(*map(self._source, args))
                lines.append(text if name is None else f"{name} = {text}")
        return lines

    def resolve(self, text):
        """text, a caller's source, with each rewritten result replaced and
        each check() written out."""

        @functools.lru_cache(maxsize=None)
        def source(found):
            if found.startswith("_finite"):
                i = int(found[7:])
                values = [self.replaced.get(v.name, v.name) if v.__class__ is _Traced else v
                          for v in self.checks[i][1]] + self.extra[i]
                tested = [f"isfinite({self._source(v)})" for v in values
                          if v.__class__ is str or not math.isfinite(v)]
                return " and ".join(dict.fromkeys(tested)) or "True"
            written = self._source(self.replaced.get(found, found))
            return f"({written})" if written.startswith("-") else written

        return _RESULT_NAME.sub(lambda match: source(match.group()), text)

    def function(self, tail, namespace=(), declines=False):
        """Compile the recorded operations, then the lines tail, into one
        function.

        Its arguments are those of inputs() and input(), in order; a sequence
        argument of the wrong length raises. tail reads the evaluation's
        values by operand() and ends the function, e.g. with a return, and
        makes its checks by check(); namespace holds the globals it needs
        besides _Deopt and isfinite. Where the evaluation raises (a _Deopt
        included), the function raises too, or returns None if it declines.
        """
        self.simplify(tail)
        body = [f"{''.join(f'{x}, ' for x in xs)}= {arg}" for arg, xs in self.arguments if xs]
        body += self.render()
        body += tail
        if declines:
            body = ["try:", *(f"    {line}" for line in body), "except Exception:", "    return None"]
        source = "\n    ".join(
            [f"def traced({', '.join(arg for arg, _ in self.arguments)}):", *body]
        )
        source = self.resolve(source)
        globals_ = {"_Deopt": _Deopt, "isfinite": math.isfinite, **self.constants, **dict(namespace)}
        exec(source, globals_)
        # Popped, so that the function and its globals form no reference
        # cycle: it goes with its spec or system, not at the next collection.
        return globals_.pop("traced")


def _prune(kept, live):
    """kept without the operations whose results nothing in live or after
    them reads, except comparisons and operations that can raise."""
    out = []
    for op in reversed(kept):
        _, name, kind, _, args = op
        safe = kind in _PROPAGATING or (
            kind == "/" and args[1].__class__ is not str and args[1] != 0.0
        )
        if name is None or name in live or not safe:
            live.update(a for a in args if a.__class__ is str)
            out.append(op)
    out.reverse()
    return out


def _implied(op):
    """(y, scale, shift) for the one name y that op reads, if op negates,
    takes abs, adds a constant, doubles y, multiplies by a constant or
    divides by a non-zero one: its result is then at most scale * |y| +
    shift in magnitude before rounding, so finite wherever y and that bound
    are. None otherwise."""
    if op is None:
        return None
    _, _, kind, _, args = op
    named = {a for a in args if a.__class__ is str}
    if len(named) != 1 or not (kind in _PROPAGATING or kind == "/"):
        return None
    (y,) = named
    if len(args) == 1:
        return y, 1, 0
    a, b = args
    if a == b:
        return (y, 2, 0) if kind in ("+", "-") else None
    c = b if a == y else a
    if not math.isfinite(c):
        return None
    if kind in ("+", "-"):
        return y, 1, Fraction(abs(c))
    if kind == "*":
        return y, Fraction(abs(c)), 0
    return (y, 1 / Fraction(abs(c)), 0) if a == y and c != 0 else None


def _stays_finite(steps):
    """Whether a finite float stays finite through steps, (scale, shift)
    pairs of _implied in order, each result rounded to the nearest float."""
    bound = sys.float_info.max
    for scale, shift in steps:
        exact = scale * Fraction(bound) + shift
        if exact >= _OVERFLOW:
            return False
        # Rounding is monotone, so the rounded result is at most this.
        bound = float(exact)
    return True


class _Traced:
    """A float of an evaluation being traced: its value at the traced inputs
    and the local of the generated function that holds it.

    Arithmetic with floats, ints and other traced floats is recorded in the
    order the evaluation performs it, so the generated function repeats the
    evaluation's float operations exactly, up to the trace's simplification.
    A comparison is recorded as a guard: the generated function raises
    _Deopt where it comes out differently. Any other use fails the trace.
    """

    __slots__ = ("trace", "name", "value")
    __hash__ = None

    def __init__(self, trace, name, value):
        self.trace = trace
        self.name = name
        self.value = value

    def _arithmetic(self, other, symbol, swapped):
        if other.__class__ is _Traced:
            value, key = other.value, other.name
        elif other.__class__ is float or other.__class__ is int:
            value = key = other
        else:
            return NotImplemented
        left, right = (value, self.value) if swapped else (self.value, value)
        try:
            result = _ARITHMETIC[symbol](left, right)
        except ArithmeticError:
            self.trace.raised = True
            raise
        args = (key, self.name) if swapped else (self.name, key)
        return self.trace.record(symbol, f"{{}} {symbol} {{}}", args, result)

    def _compare(self, other, symbol):
        if other.__class__ is _Traced:
            right, key = other.value, other.name
        elif other.__class__ in (float, int):
            right = key = other
        else:
            return NotImplemented
        outcome = _COMPARISONS[symbol](self.value, right)
        self.trace.guard(f"if {'not ' if outcome else ''}({{}} {symbol} {{}}): raise _Deopt",
                         (self.name, key))
        return outcome

    def __add__(self, other):
        return self._arithmetic(other, "+", False)

    def __radd__(self, other):
        return self._arithmetic(other, "+", True)

    def __sub__(self, other):
        return self._arithmetic(other, "-", False)

    def __rsub__(self, other):
        return self._arithmetic(other, "-", True)

    def __mul__(self, other):
        return self._arithmetic(other, "*", False)

    def __rmul__(self, other):
        return self._arithmetic(other, "*", True)

    def __truediv__(self, other):
        return self._arithmetic(other, "/", False)

    def __rtruediv__(self, other):
        return self._arithmetic(other, "/", True)

    def __neg__(self):
        return self.trace.record("neg", "-{}", (self.name,), -self.value)

    def __abs__(self):
        return self.trace.record("abs", "abs({})", (self.name,), abs(self.value))

    def __lt__(self, other):
        return self._compare(other, "<")

    def __le__(self, other):
        return self._compare(other, "<=")

    def __gt__(self, other):
        return self._compare(other, ">")

    def __ge__(self, other):
        return self._compare(other, ">=")

    def __eq__(self, other):
        return self._compare(other, "==")

    def __ne__(self, other):
        return self._compare(other, "!=")

    def __bool__(self):
        outcome = bool(self.value)
        self.trace.guard(f"if {'not ' if outcome else ''}{{}}: raise _Deopt", (self.name,))
        return outcome


class SmoothScalarField:
    """A scalar function of the state with exact gradient evaluation.

    The wrapped evaluator must be closed under Dual arithmetic: it is called
    with plain floats for values and with Dual entries for derivatives, to
    whatever nesting depth later constructions require.

    """

    __slots__ = ("_evaluator", "n", "provenance")

    def __init__(self, evaluator: Callable, n: int, provenance: str = "user-supplied"):
        if n < 1:
            raise FieldError("state dimension must be positive")
        self._evaluator = evaluator
        self.n = n
        self.provenance = provenance

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
            return SmoothScalarField(
                lambda xs: a(xs) + b(xs), self.n, "algebraic-composite"
            )
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) + c, self.n, "algebraic-composite")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SmoothScalarField):
            self._require_same_n(other)
            a, b = self._evaluator, other._evaluator
            return SmoothScalarField(
                lambda xs: a(xs) - b(xs), self.n, "algebraic-composite"
            )
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) - c, self.n, "algebraic-composite")

    def __rsub__(self, other):
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: c - a(xs), self.n, "algebraic-composite")

    def __neg__(self):
        a = self._evaluator
        return SmoothScalarField(lambda xs: -a(xs), self.n, "algebraic-composite")

    def __mul__(self, other):
        if isinstance(other, SmoothScalarField):
            self._require_same_n(other)
            a, b = self._evaluator, other._evaluator
            return SmoothScalarField(
                lambda xs: a(xs) * b(xs), self.n, "algebraic-composite"
            )
        c = float(other)
        a = self._evaluator
        return SmoothScalarField(lambda xs: a(xs) * c, self.n, "algebraic-composite")

    __rmul__ = __mul__

    def _require_same_n(self, other: "SmoothScalarField"):
        if other.n != self.n:
            raise DimensionMismatchError("field operand", self.n, other.n)


def field_from_callable(fn: Callable, n: int, provenance: str = "user-supplied") -> SmoothScalarField:
    """Wrap a Dual-closed callable of the state-entry tuple as a field."""
    return SmoothScalarField(fn, n, provenance)


def constant_field(value: float, n: int) -> SmoothScalarField:
    c = float(value)
    return SmoothScalarField(lambda xs: c, n, "user-supplied")


def coordinate_field(index: int, n: int) -> SmoothScalarField:
    if not 0 <= index < n:
        raise DimensionMismatchError("coordinate index", n, index)
    return SmoothScalarField(lambda xs: xs[index], n, "user-supplied")


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

    return SmoothScalarField(evaluator, n, "derived-by-differentiation")


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

    return SmoothScalarField(evaluator, field.n, "algebraic-composite")


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
