"""Safe control under bounded disturbances: robust and adaptive barrier
cascades, a per-step stability/safety quadratic program, and a deterministic
closed-loop simulator with an adaptive-cruise-control study."""

from .fields import (
    ControlAffineSystem,
    DimensionMismatchError,
    FieldError,
    ReciprocalGuardError,
    SmoothScalarField,
    clamped_guards,
    constant_field,
    coordinate_field,
    field_from_callable,
    lie_derivative_field,
    lie_f,
    lie_h,
    reciprocal_field,
    verify_relative_degree,
)
from .poles import CoefficientTable, PolePlacementError, PoleSet, coefficients_from_poles
from .robust import (
    AffineControlConstraint,
    BarrierCascade,
    BarrierConstructionError,
    ChainEvaluation,
    DegenerateConstraintError,
    DrcbfChain,
    HocbfChain,
    build_drcbf_chain,
    build_hocbf_chain,
    evaluate_with_clamping,
    membership,
    optimal_k,
)
from .adaptive import (
    AdrcbfChain,
    BarrierEnergy,
    build_adrcbf_chain,
    reciprocal_barrier_energy,
)
from .qp import QpProblem, QpSolution, QpValidationError, solve_qp
from .controller import (
    ClfSpec,
    ControllerError,
    ControllerSpec,
    ControlStepResult,
    clf_constraint,
    control_step,
)
from .disturbances import (
    Constant,
    DisturbanceError,
    SignalRealization,
    SignalSpec,
    Sinusoid,
    UniformNoise,
    evaluate,
    nominal_bound,
    realize,
    term_bound,
)
from .simulate import (
    IntegrationFault,
    SimulationConfig,
    SimulationError,
    TrajectoryLog,
    integrate_step,
    run_simulation,
)
from .acc import (
    AccParameters,
    acc_system,
    build_acc_controller,
    build_study,
    case_bound,
    case_config,
    case_disturbance_spec,
    closed_form_adaptive_terms,
    closed_form_robust_terms,
    distance_barrier,
    drag_force,
    pole_table,
    speed_tracking_clf,
    summarize_log,
    tracking_objective,
)

__version__ = "0.1.0"
