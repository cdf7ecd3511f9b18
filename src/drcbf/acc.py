"""Adaptive cruise control study: follow a lead vehicle at a safe distance.

State x = (D, v_f): gap to the lead vehicle and follower speed. The follower
tracks a desired speed with a quadratic cost on control effort while the gap
must never fall below a minimum. Disturbances act on both states: d_u perturbs
the gap rate (unmatched: the control cannot cancel it directly) and d_m the
acceleration (matched). Three study cases exercise the controllers: held
uniform noise plus sinusoids (non-differentiable), pure sinusoids
(differentiable), and large noise-plus-sinusoid signals used to compare gain
choices against the least-conservative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from .controller import ClfSpec, ControllerSpec
from .disturbances import (
    SignalSpec,
    Sinusoid,
    UniformNoise,
    nominal_bound,
    realize,
)
from .fields import (
    ControlAffineSystem,
    SmoothScalarField,
    field_from_callable,
    verify_relative_degree,
)
from .poles import CoefficientTable, coefficients_from_poles
from .robust import build_drcbf_chain, build_hocbf_chain, optimal_k
from .adaptive import build_adrcbf_chain
from .simulate import SimulationConfig, TrajectoryLog

__all__ = [
    "DEFAULT_SEED",
    "AccParameters",
    "drag_force",
    "acc_system",
    "distance_barrier",
    "speed_tracking_clf",
    "tracking_objective",
    "pole_table",
    "verification_samples",
    "case_disturbance_spec",
    "case_bound",
    "build_acc_controller",
    "build_study",
    "case_config",
    "summarize_log",
]

DEFAULT_SEED = 1234567

# Fraction of the horizon (from the end) averaged for the settled distance,
# and the speed-excursion threshold that qualifies that window as settled.
STEADY_WINDOW_FRACTION = 0.2
STEADY_MEAN_DRIFT = 0.5

CASE_IDS = (1, 2, 3)


@dataclass(frozen=True)
class AccParameters:
    """Vehicle, tracking, and safety-cascade parameters for the study."""

    mass: float = 1650.0
    lead_speed: float = 20.0
    drag_constant: float = 0.1
    drag_linear: float = 5.0
    drag_quadratic: float = 0.25
    min_distance: float = 10.0
    desired_speed: float = 35.0
    clf_decay: float = 10.0
    slack_weight: float = 2.0
    poles: tuple = (5.0, 10.0)
    robust_gains: tuple = (0.1, 0.1)
    adaptive_rates: tuple = (1.0, 1.0)
    initial_state: tuple = (100.0, 13.89)

    def __post_init__(self):
        for name in (
            "mass",
            "lead_speed",
            "drag_constant",
            "drag_linear",
            "drag_quadratic",
            "min_distance",
            "desired_speed",
            "clf_decay",
            "slack_weight",
        ):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "poles", tuple(float(v) for v in self.poles))
        object.__setattr__(
            self, "robust_gains", tuple(float(v) for v in self.robust_gains)
        )
        object.__setattr__(
            self, "adaptive_rates", tuple(float(v) for v in self.adaptive_rates)
        )
        object.__setattr__(
            self, "initial_state", tuple(float(v) for v in self.initial_state)
        )
        if not self.mass > 0.0:
            raise ValueError("mass must be strictly positive")
        if len(self.poles) != 2 or len(self.initial_state) != 2:
            raise ValueError("the study uses a two-state model with two poles")
        if not self.initial_state[0] > self.min_distance:
            raise ValueError("the run must start strictly beyond the minimum gap")


def drag_force(params: AccParameters, speed):
    """Aerodynamic/rolling resistance at the given speed (jet-evaluable)."""
    return (
        params.drag_constant
        + params.drag_linear * speed
        + params.drag_quadratic * speed * speed
    )


def acc_system(params: AccParameters, disturbed: bool = True) -> ControlAffineSystem:
    """Gap/speed dynamics: D' = v_l - v_f + d_u, v_f' = (u - drag)/M + d_m.

    With disturbed=False the disturbance ports are removed (h maps to the zero
    matrix), which makes the robust cascades collapse to the nominal one.
    """
    m = params.mass
    v_l = params.lead_speed

    def f(x):
        return (v_l - x[1], -drag_force(params, x[1]) / m)

    inv_m = 1.0 / m

    def g(x):
        return ((0.0,), (inv_m,))

    if disturbed:

        def h(x):
            return ((1.0, 0.0), (0.0, 1.0))

    else:

        def h(x):
            return ((0.0, 0.0), (0.0, 0.0))

    return ControlAffineSystem(n=2, p=1, q=2, f=f, g=g, h=h, ird_m=2, drd_r=1)


def distance_barrier(params: AccParameters) -> SmoothScalarField:
    """Safety margin: gap minus the minimum allowed gap."""
    floor = params.min_distance
    return field_from_callable(lambda x: x[0] - floor, 2)


def speed_tracking_clf(params: AccParameters) -> ClfSpec:
    """Quadratic speed-tracking energy (v_f - v_d)^2 with its decay rate."""
    target = params.desired_speed
    v_err_sq = field_from_callable(lambda x: (x[1] - target) * (x[1] - target), 2)
    return ClfSpec(V=v_err_sq, sigma=params.clf_decay, slack_weight=params.slack_weight)


def tracking_objective(params: AccParameters):
    """Quadratic control cost (H, F): u'Hu + F(x)u penalizes effort beyond
    the drag-compensating input."""
    m_sq = params.mass * params.mass
    h = ((2.0 / m_sq,),)

    def f_row(x):
        return (-2.0 * drag_force(params, x[1]) / m_sq,)

    return h, f_row


def pole_table(params: AccParameters) -> CoefficientTable:
    return coefficients_from_poles(params.poles)


def verification_samples(params: AccParameters) -> tuple:
    """A few strictly-safe states for relative-degree and structure checks."""
    return (
        params.initial_state,
        (60.0, 25.0),
        (params.min_distance + 20.0, 5.0),
    )


def case_disturbance_spec(
    case: int, seed: int = DEFAULT_SEED, hold_interval: float = 1e-3
) -> SignalSpec:
    """Disturbance channels (gap-rate, acceleration) for the three study cases.

    Case 1: centered held noise on [-4, 4] plus sin(5t) / 0.5 cos(10t).
    Case 2: pure sinusoids, 2 sin(5t) + 1.5 cos(10t) / sin(10t) + 2 cos(6t).
    Case 3: held noise on [-4, 4] plus 5 sin(2t) / noise on [-5, 5] plus 4 sin(2t).
    """
    if case == 1:
        channels = (
            (UniformNoise(-4.0, 4.0, hold_interval), Sinusoid(1.0, 5.0)),
            (UniformNoise(-4.0, 4.0, hold_interval), Sinusoid(0.5, 10.0, kind="cos")),
        )
    elif case == 2:
        channels = (
            (Sinusoid(2.0, 5.0), Sinusoid(1.5, 10.0, kind="cos")),
            (Sinusoid(1.0, 10.0), Sinusoid(2.0, 6.0, kind="cos")),
        )
    elif case == 3:
        channels = (
            (UniformNoise(-4.0, 4.0, hold_interval), Sinusoid(5.0, 2.0)),
            (UniformNoise(-5.0, 5.0, hold_interval), Sinusoid(4.0, 2.0)),
        )
    else:
        raise ValueError(f"unknown study case {case!r}; expected one of {CASE_IDS}")
    return SignalSpec(channels=channels, seed=seed)


def case_bound(case: int) -> float:
    """Worst-case Euclidean norm of the case's disturbance vector."""
    return nominal_bound(case_disturbance_spec(case))


def build_acc_controller(
    params: AccParameters,
    mode: str,
    *,
    disturbance_bound: float = 0.0,
    gains: Optional[Sequence] = None,
    adaptive_rates: Optional[Sequence] = None,
    verify: bool = True,
    disturbed: bool = True,
) -> ControllerSpec:
    """Assemble the safety cascade and tracking program for one controller mode.

    gains defaults to the study's fixed (0.1, 0.1); pass explicit values for
    the gain-comparison case. The nominal mode ignores the disturbance bound by
    construction; the adaptive mode never sees it. With disturbed=False the
    cascade is built on the portless model (zero disturbance rows), so the
    robust variant coincides with the nominal one.
    """
    system = acc_system(params, disturbed=disturbed)
    barrier = distance_barrier(params)
    coeffs = pole_table(params)
    samples = verification_samples(params) if verify else None
    if verify and not disturbed:
        # The portless model has identically-zero disturbance rows, so check
        # the declared degrees on its ported twin (same drift and input maps)
        # and skip sample-based verification inside the chain builders.
        report = verify_relative_degree(acc_system(params), barrier, samples)
        if not (report.ird_ok and report.drd_ok):
            raise ValueError(
                f"relative-degree verification failed: {report.witnesses}"
            )
        samples = None
    k = tuple(params.robust_gains if gains is None else gains)
    if mode == "hocbf":
        chain = build_hocbf_chain(system, barrier, coeffs, samples=samples)
    elif mode == "drcbf":
        chain = build_drcbf_chain(
            system, barrier, coeffs, k, disturbance_bound, samples=samples
        )
    elif mode == "adrcbf":
        rates = tuple(
            params.adaptive_rates if adaptive_rates is None else adaptive_rates
        )
        chain = build_adrcbf_chain(system, barrier, coeffs, k, rates, samples=samples)
    else:
        raise ValueError(f"unknown controller mode {mode!r}")

    h, f_row = tracking_objective(params)
    return ControllerSpec(
        chain=chain,
        clf=speed_tracking_clf(params),
        objective_h=h,
        objective_f=f_row,
    )


def build_study(
    mode: str,
    *,
    case: Optional[int] = None,
    disturbance_spec: Optional[SignalSpec] = None,
    params: AccParameters = AccParameters(),
    seed: int = DEFAULT_SEED,
    horizon: float = 30.0,
    control_period: float = 1e-3,
    integrator_substeps: int = 1,
    gains: Optional[Sequence] = None,
    gain_multiplier: Optional[float] = None,
    use_optimal_gains: bool = False,
    adaptive_rates: Optional[Sequence] = None,
    disturbance_bound: Optional[float] = None,
    verify: bool = True,
) -> SimulationConfig:
    """Build a ready-to-run closed-loop study configuration.

    The disturbance comes from a study case, an explicit signal spec, or —
    with neither — is absent entirely: the plant sees zero disturbance and the
    robust cascade is built with a zero bound, which collapses it to the
    nominal one. Gain resolution: explicit gains win; otherwise
    use_optimal_gains (optionally scaled by gain_multiplier) derives them from
    the disturbance bound; otherwise the study's fixed defaults apply.
    """
    if case is not None and disturbance_spec is not None:
        raise ValueError("give either a study case or a signal spec, not both")
    spec = disturbance_spec
    if case is not None:
        spec = case_disturbance_spec(case, seed=seed, hold_interval=control_period)
    if spec is None:
        realized = None
        bound = 0.0
    else:
        realized = realize(spec, horizon)
        bound = nominal_bound(spec)
    if disturbance_bound is not None:
        bound = float(disturbance_bound)

    resolved_gains = gains
    if resolved_gains is None and (use_optimal_gains or gain_multiplier is not None):
        base = optimal_k((1.0, 1.0), bound)
        scale = 1.0 if gain_multiplier is None else float(gain_multiplier)
        resolved_gains = tuple(scale * v for v in base)

    controller = build_acc_controller(
        params,
        mode,
        disturbance_bound=bound,
        gains=resolved_gains,
        adaptive_rates=adaptive_rates,
        verify=verify,
        disturbed=realized is not None or bound != 0.0,
    )
    return SimulationConfig(
        system=controller.system,
        controller=controller,
        disturbance=realized,
        x0=params.initial_state,
        horizon=horizon,
        control_period=control_period,
        integrator_substeps=integrator_substeps,
    )


def case_config(
    case: int,
    variant: str,
    *,
    seed: int = DEFAULT_SEED,
    horizon: float = 30.0,
    control_period: float = 1e-3,
    gain_multiplier: Optional[float] = None,
    adaptive_rates: Optional[Sequence] = None,
    params: Optional[AccParameters] = None,
    verify: bool = True,
) -> SimulationConfig:
    """Ready-made study configuration for one case and controller variant.

    Cases 1 and 2 run with the study's fixed gains. Case 3 is the
    gain-comparison case: the robust cascade derives its gains from the
    disturbance bound, scaled by gain_multiplier, and the adaptive cascade
    uses the unscaled least-conservative gains with its rates as the knob.
    """
    if case not in CASE_IDS:
        raise ValueError(f"unknown study case {case!r}; expected one of {CASE_IDS}")
    if gain_multiplier is not None and case != 3:
        raise ValueError("gain_multiplier applies to the gain-comparison case only")
    p = AccParameters() if params is None else params
    use_optimal = case == 3 and variant in ("drcbf", "adrcbf")
    return build_study(
        variant,
        case=case,
        params=p,
        seed=seed,
        horizon=horizon,
        control_period=control_period,
        gain_multiplier=gain_multiplier if variant == "drcbf" else None,
        use_optimal_gains=use_optimal,
        adaptive_rates=adaptive_rates,
        verify=verify,
    )


def summarize_log(log: TrajectoryLog, params: AccParameters) -> dict:
    """Study-level summary of one run: safety margins and settling behavior.

    steady_state_distance averages the gap over the final window of the run.
    steady reports whether that window is trend-free: the gap and speed means
    over its two halves must agree within a fixed drift. A persistent
    oscillation driven by the disturbance still counts as settled; a window
    that straddles the transient does not. safety_binding_fraction is the
    share of steps whose QP active set holds the safety row (row 1).
    slack_max and slack_mean describe the stability row's slack over the
    steps whose QP was solved (None if none was).
    """
    records = len(log)
    if not records:
        return {
            "records": 0,
            "failed": log.failed,
            "failure_reason": log.failure_reason,
        }
    gaps = log.column("states", 0)
    speeds = log.column("states", 1)
    min_distance = min(gaps)
    min_margin = min_distance - params.min_distance
    tail = max(1, int(len(gaps) * STEADY_WINDOW_FRACTION))
    tail_gaps = gaps[-tail:]
    tail_speeds = speeds[-tail:]
    mean_speed = sum(tail_speeds) / len(tail_speeds)
    excursion = max(abs(v - mean_speed) for v in tail_speeds)
    half = tail // 2
    if half:
        gap_drift = abs(
            sum(tail_gaps[half:]) / (tail - half) - sum(tail_gaps[:half]) / half
        )
        speed_drift = abs(
            sum(tail_speeds[half:]) / (tail - half) - sum(tail_speeds[:half]) / half
        )
    else:
        gap_drift = speed_drift = 0.0
    min_phi = min(map(min, zip(*(log.column("phi", i) for i in range(log.levels)))))
    solved = [status == "optimal" for status in log.qp_statuses]
    applied = list(compress(log.column("controls"), solved))
    slacks = list(compress(log.column("slacks"), solved))
    return {
        "records": records,
        "failed": log.failed,
        "failure_reason": log.failure_reason,
        "min_distance": min_distance,
        "min_margin": min_margin,
        "violation": min_margin < 0.0,
        "min_phi": min_phi,
        "steady_state_distance": sum(tail_gaps) / len(tail_gaps),
        "steady_speed_excursion": excursion,
        "steady_gap_drift": gap_drift,
        "steady_speed_drift": speed_drift,
        "steady": gap_drift <= STEADY_MEAN_DRIFT and speed_drift <= STEADY_MEAN_DRIFT,
        "final_distance": log.final_state[0] if log.final_state else None,
        "guard_event_total": sum(log.guard_event_counts),
        "safety_binding_fraction": sum(1 in s for s in log.active_sets) / records,
        "mean_control": sum(applied) / len(applied) if applied else None,
        "slack_max": max(slacks) if slacks else None,
        "slack_mean": sum(slacks) / len(slacks) if slacks else None,
    }
