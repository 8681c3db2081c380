"""Recursive posterior Cramer-Rao bounds for filtering with temporally
correlated process and measurement noise, with a brute-force full-horizon
reference for verification."""

from .blocks import BlockProvider, ExpectationEstimator
from .baselines import pcrb_augmented, pcrb_ignore_correlation, pcrb_prewhiten
from .errors import (
    ConfigError,
    CorrboundError,
    InvariantViolationError,
    ModelBuildError,
    NumericalError,
    SingularMatrixError,
)
from .examples import build_example1, build_example2
from .models import (
    GaussianPrior,
    LinearConditionalSpec,
    SystemModel,
    TrajectoryBatch,
    build_linear_model,
    default_prior,
    model_from_config,
)
from .oracle import build_joint, information_sequence, verify_recursion
from .profiles import CorrelationProfile, required_prior_window
from .recursion import PCRBTrace, init_state, run, step
from .selection import min_sensors, sweep

__version__ = "0.1.0"

__all__ = [
    "BlockProvider",
    "ConfigError",
    "CorrboundError",
    "CorrelationProfile",
    "ExpectationEstimator",
    "GaussianPrior",
    "InvariantViolationError",
    "LinearConditionalSpec",
    "ModelBuildError",
    "NumericalError",
    "PCRBTrace",
    "SingularMatrixError",
    "SystemModel",
    "TrajectoryBatch",
    "build_example1",
    "build_example2",
    "build_joint",
    "build_linear_model",
    "default_prior",
    "init_state",
    "information_sequence",
    "min_sensors",
    "model_from_config",
    "pcrb_augmented",
    "pcrb_ignore_correlation",
    "pcrb_prewhiten",
    "required_prior_window",
    "run",
    "step",
    "sweep",
    "verify_recursion",
]
