"""Dynamic string-averaging projection methods with relaxation, bounded
perturbations, and superiorization, plus built-in verification of the
operator inequalities they rely on."""

from .core import (
    DEFAULT_TOLERANCES,
    DimensionMismatchError,
    SampleSpec,
    Tolerances,
    norm,
)
from .engine import (
    IterationTrace,
    NonFiniteIterateError,
    PerturbationSchedule,
    RelaxationRangeError,
    RelaxationSchedule,
    StopRule,
    distance_decay_diagnostic,
    fejer_monitor,
    gdsa_step,
    run,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    OracleIterationCapError,
    ProblemInstance,
    constrained_min_oracle,
    fixed_point_oracle,
    load_config,
    operator_from_json,
    parse_config,
    proximity_argmin_oracle,
    proximity_value,
)
from .operators import (
    AlphaUnknownError,
    BallProjection,
    BoxProjection,
    Composition,
    ConvexCombination,
    FixedPointWitness,
    HalfspaceProjection,
    HyperplaneProjection,
    Identity,
    Operator,
    Relaxation,
    apply,
    check_cutter,
    check_nonexpansive,
    check_rho_fne,
    propagate_alpha,
    residual,
)
from .strings import (
    AdmissibilityReport,
    ControlSchedule,
    IndexString,
    StringPlan,
    averaged_operator,
    check_admissibility,
    is_fit,
    rho_constant,
    simultaneous_plan,
    string_operator,
)
from .superiorize import (
    L1Norm,
    MaxOfAffine,
    NonFiniteObjectiveError,
    ObjectiveFunction,
    SuperiorizationSchedule,
    WeightedSquaredNorm,
    find_strict_fejer_k0,
    perturbation_directions,
    strict_fejer_monitor,
    superiorized_run,
)

__version__ = "0.1.0"
