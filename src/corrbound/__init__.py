"""Recursive posterior Cramer-Rao bounds for filtering with temporally
correlated process and measurement noise, with a brute-force full-horizon
reference for verification."""

from .blocks import (
    BlockProvider,
    ExpectationEstimator,
    measurement_blocks,
    transition_blocks,
)
from .baselines import pcrb_augmented, pcrb_ignore_correlation, pcrb_prewhiten
from .errors import (
    ConfigError,
    CorrboundError,
    InvariantViolationError,
    ModelBuildError,
    NumericalError,
    SingularMatrixError,
)
from .examples import (
    build_example1,
    build_example1_stacked,
    build_example2,
    simple_scalar_model,
)
from .models import (
    ArApproximation,
    GaussianPrior,
    LinearConditionalSpec,
    LinearModelInfo,
    SystemModel,
    TrajectoryBatch,
    build_linear_model,
    default_prior,
    model_from_config,
)
from .oracle import (
    JointInformation,
    build_joint,
    information_sequence,
    schur_submatrix,
    verify_recursion,
)
from .profiles import CorrelationProfile, required_prior_window
from .recursion import PCRBTrace, RecursionState, TraceEntry, init_state, run, step
from .selection import SensorSweepResult, SweepPoint, min_sensors, sweep

__version__ = "0.1.0"

__all__ = [
    "ArApproximation",
    "BlockProvider",
    "ConfigError",
    "CorrboundError",
    "CorrelationProfile",
    "ExpectationEstimator",
    "GaussianPrior",
    "InvariantViolationError",
    "JointInformation",
    "LinearConditionalSpec",
    "LinearModelInfo",
    "ModelBuildError",
    "NumericalError",
    "PCRBTrace",
    "RecursionState",
    "SensorSweepResult",
    "SingularMatrixError",
    "SweepPoint",
    "SystemModel",
    "TraceEntry",
    "TrajectoryBatch",
    "build_example1",
    "build_example1_stacked",
    "build_example2",
    "build_joint",
    "build_linear_model",
    "default_prior",
    "init_state",
    "information_sequence",
    "measurement_blocks",
    "min_sensors",
    "model_from_config",
    "pcrb_augmented",
    "pcrb_ignore_correlation",
    "pcrb_prewhiten",
    "required_prior_window",
    "run",
    "schur_submatrix",
    "simple_scalar_model",
    "step",
    "sweep",
    "transition_blocks",
    "verify_recursion",
]
