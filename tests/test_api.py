import corrbound as cb

# The package's public names.  A name joins or leaves the public API only by
# an edit to this list.
PUBLIC_NAMES = [
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
    "information_sequence",
    "init_state",
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


def test_public_api_is_pinned():
    assert sorted(cb.__all__) == PUBLIC_NAMES
    for name in cb.__all__:
        assert getattr(cb, name) is not None, name
