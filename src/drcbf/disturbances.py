"""Disturbance signal specs, seeded realizations, and worst-case bounds.

A signal spec describes each disturbance channel as a sum of terms: constants,
sinusoids, and uniformly distributed piecewise-constant noise that is redrawn
every hold interval (so the realized signal is bounded but in general not
differentiable). Realization is deterministic: every noise term gets its own
counter-based stream derived from (seed, channel index, term index), so the
same spec and seed reproduce the same trajectory byte for byte, and inserting
or removing one term never shifts the draws of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import copysign
from typing import Optional

import numpy as np

from ._trace import _Trace

__all__ = [
    "DisturbanceError",
    "Constant",
    "Sinusoid",
    "UniformNoise",
    "SignalSpec",
    "SignalRealization",
    "realize",
    "evaluate",
    "nominal_bound",
    "term_bound",
]

# Nudge factor for quantizing t onto hold intervals: a time that lands within
# one part in 1e9 of an interval boundary counts as the later interval, which
# keeps step times of the form k * dt on draw index k despite rounding.
_BOUNDARY_NUDGE = 1e-9
# The most held values a noise term draws, and the most control periods a
# run takes (see simulate.SimulationConfig): about 2.8 h at 1 ms.
_MAX_SAMPLES = 10**7


class DisturbanceError(ValueError):
    """Invalid disturbance spec or evaluation outside the realized horizon."""


@dataclass(frozen=True)
class Constant:
    """A constant offset term."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise DisturbanceError("constant term must be finite")


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(angular_frequency * t + phase), or cos for kind='cos'."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0
    kind: str = "sin"

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "angular_frequency", float(self.angular_frequency))
        object.__setattr__(self, "phase", float(self.phase))
        for v in (self.amplitude, self.angular_frequency, self.phase):
            if not math.isfinite(v):
                raise DisturbanceError("sinusoid parameters must be finite")
        if self.kind not in ("sin", "cos"):
            raise DisturbanceError(f"unknown sinusoid kind {self.kind!r}")


@dataclass(frozen=True)
class UniformNoise:
    """Uniform draws on [low, high], each held constant for hold_interval seconds."""

    low: float
    high: float
    hold_interval: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        object.__setattr__(self, "hold_interval", float(self.hold_interval))
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise DisturbanceError("noise bounds must be finite")
        if self.high < self.low:
            raise DisturbanceError("noise upper bound is below the lower bound")
        if not self.hold_interval > 0.0:
            raise DisturbanceError("hold interval must be strictly positive")


_TERM_TYPES = (Constant, Sinusoid, UniformNoise)


@dataclass(frozen=True)
class SignalSpec:
    """Per-channel term sums plus the seed that fixes every noise draw."""

    channels: tuple
    seed: int = 0

    def __post_init__(self):
        chans = tuple(tuple(terms) for terms in self.channels)
        if not chans:
            raise DisturbanceError("a signal spec needs at least one channel")
        for terms in chans:
            for term in terms:
                if not isinstance(term, _TERM_TYPES):
                    raise DisturbanceError(f"unknown term type {type(term).__name__}")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def width(self) -> int:
        return len(self.channels)


def term_bound(term) -> float:
    """Smallest constant that bounds |term(t)| for all t."""
    if isinstance(term, Constant):
        return abs(term.value)
    if isinstance(term, Sinusoid):
        return abs(term.amplitude)
    if isinstance(term, UniformNoise):
        return max(abs(term.low), abs(term.high))
    raise DisturbanceError(f"unknown term type {type(term).__name__}")


def nominal_bound(spec: SignalSpec) -> float:
    """Euclidean bound on the signal vector: per-channel term bounds summed
    (triangle inequality), then combined across channels."""
    total = 0.0
    for terms in spec.channels:
        channel = sum(term_bound(term) for term in terms)
        total += channel * channel
    return math.sqrt(total)


@dataclass(frozen=True)
class SignalRealization:
    """A spec bound to a horizon with all noise draws materialized.

    draws mirrors the spec's channel/term layout: draws[ci][ti] is a tuple of
    held values for a noise term and None for deterministic terms. It is an
    ordinary constructor argument so tests can force specific held values.

    The first evaluate compiles the realization into one generated function
    of t (see _compile_lookup), cached on the object.
    """

    spec: SignalSpec
    horizon: float
    draws: tuple

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        if not 0.0 < self.horizon < math.inf:
            raise DisturbanceError("horizon must be finite and strictly positive")
        if len(self.draws) != len(self.spec.channels):
            raise DisturbanceError("draws do not mirror the spec's channels")
        for terms, drawn in zip(self.spec.channels, self.draws):
            if len(drawn) != len(terms):
                raise DisturbanceError("draws do not mirror the spec's terms")
            for term, values in zip(terms, drawn):
                if isinstance(term, UniformNoise) and not values:
                    raise DisturbanceError("noise term realized with no draws")
        object.__setattr__(self, "_lookup", None)

    def __getstate__(self):
        # A generated function does not pickle; the copy compiles its own.
        return {**self.__dict__, "_lookup": None}


def _draw_count(horizon: float, hold: float) -> int:
    ratio = horizon / hold - _BOUNDARY_NUDGE
    if not ratio <= _MAX_SAMPLES:
        raise DisturbanceError(f"a noise term would draw more than {_MAX_SAMPLES} values")
    return max(1, math.ceil(ratio))


def realize(spec: SignalSpec, horizon: float) -> SignalRealization:
    """Draw every noise term's held values for the whole horizon up front.

    Each noise term draws from a counter-based generator keyed by
    (seed, channel index, term index), so streams are independent and stable
    under edits to unrelated terms.
    """
    h = float(horizon)
    if not 0.0 < h < math.inf:
        raise DisturbanceError("horizon must be finite and strictly positive")
    draws = []
    for ci, terms in enumerate(spec.channels):
        drawn = []
        for ti, term in enumerate(terms):
            if isinstance(term, UniformNoise):
                n = _draw_count(h, term.hold_interval)
                seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(ci, ti))
                gen = np.random.Generator(np.random.Philox(seq))
                values = gen.uniform(term.low, term.high, size=n)
                drawn.append(tuple(values.tolist()))
            else:
                drawn.append(None)
        draws.append(tuple(drawn))
    return SignalRealization(spec=spec, horizon=h, draws=tuple(draws))


def _lookup_channels(realization: SignalRealization, trace: _Trace, t, namespace: dict) -> list:
    """evaluate for realization at t, a traced float of trace, without its
    horizon check: one traced float or constant per channel. The globals
    the recorded operations read go into namespace.

    Each channel repeats the generic sum in its float order: 0.0 plus each
    term in turn, a constant as its value, a sinusoid as
    amplitude * sin(angular_frequency * t + phase) (or cos), a noise term as
    its draws tuple (bound as a global, not copied) at the held index.
    """
    namespace.update(sin=math.sin, cos=math.cos, floor=math.floor)
    channels = []
    for ci, (terms, drawn) in enumerate(zip(realization.spec.channels, realization.draws)):
        value = 0.0
        for ti, (term, values) in enumerate(zip(terms, drawn)):
            if isinstance(term, Constant):
                value = value + term.value
            elif isinstance(term, Sinusoid):
                angle = term.angular_frequency * t + term.phase
                wave = trace.call(f"{term.kind}({{}})", namespace[term.kind], [angle])
                value = value + term.amplitude * wave
            else:
                name = f"W{ci}_{ti}"
                namespace[name] = values
                last, hold = len(values) - 1, term.hold_interval
                index = trace.call(
                    f"min({last}, floor({{}} / {hold!r} + {_BOUNDARY_NUDGE!r}))",
                    lambda u, last=last, hold=hold: min(last, math.floor(u / hold + _BOUNDARY_NUDGE)),
                    [t],
                )
                # A draw of -0.0 would be a held value that 0.0 + draw changes.
                signed = 0.0 in values and any(copysign(1.0, v) < 0.0 for v in values if v == 0.0)
                value = value + trace.call(
                    f"{name}[{{}}]", values.__getitem__, [index], never_negative_zero=not signed
                )
        channels.append(value)
    return channels


def _horizon_limit(realization: SignalRealization) -> float:
    """The largest time evaluate accepts."""
    return realization.horizon * (1.0 + _BOUNDARY_NUDGE)


def _compile_lookup(realization: SignalRealization):
    """evaluate for realization as one generated straight-line function of t
    (see drcbf._trace._Trace.function): the horizon check with its message,
    then the channels of _lookup_channels.
    """
    namespace = {
        "DisturbanceError": DisturbanceError,
        "LIMIT": _horizon_limit(realization),
        "OUTSIDE": f" is outside the realized horizon [0, {realization.horizon}]",
    }
    trace = _Trace()
    trace.line(f"tt = float({trace.operand(trace.input(0.0))})")
    trace.line("if not (0.0 <= tt <= LIMIT): raise DisturbanceError(f'time {tt}' + OUTSIDE)")
    channels = _lookup_channels(realization, trace, trace.local("tt", 0.0), namespace)
    return trace.function([f"return {trace.operand(tuple(channels))}"], namespace)


def evaluate(realization: SignalRealization, t: float) -> tuple:
    """Signal vector at time t in [0, horizon]; t == horizon reuses the last hold.

    Raises DisturbanceError outside the horizon. The first call compiles the
    realization (see _compile_lookup); every call runs that function.
    """
    lookup = realization._lookup
    if lookup is None:
        lookup = _compile_lookup(realization)
        object.__setattr__(realization, "_lookup", lookup)
    return lookup(t)
