"""Storm-surge return levels from threshold exceedances, with Bayesian model
averaging over stationary and covariate-driven nonstationary PP/GPD models."""

from .covariates import CovariateKind, CovariateSeries
from .models import ModelStructure, NonstatLevel, all_structures
from .preprocess import ExceedanceSet, preprocess_station
from .sampler import ChainConfig, PosteriorEnsemble

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "CovariateKind",
    "CovariateSeries",
    "ExceedanceSet",
    "ModelStructure",
    "NonstatLevel",
    "PosteriorEnsemble",
    "all_structures",
    "preprocess_station",
    "__version__",
]
