"""Surrogate-posterior Langevin sampling for non-log-concave Bayesian models.

Builds a globally strongly log-concave surrogate of the posterior that agrees
with the true posterior near an initialization point, runs unadjusted Langevin
chains with explicit step-size/burn-in/bias calculators, and ships oracle
diagnostics (grid posteriors, contraction and recovery metrics) plus a CLI
experiment harness.
"""

from .basis import BASIS_KINDS, BasisFamily
from .diagnostics import (GridPosterior, RecoveryReport, contraction_metric,
                          condition_numbers, grid_posterior, grid_tv_distance)
from .estimator import LangevinGLMRegressor
from .expfam import ExpFamily, LinkFunction, natural_param
from .forward import Darcy1D, LinearPhi
from .initializers import (oracle_perturbed_init, oracle_projection_init,
                           pilot_ascent_init)
from .likelihood import CurvatureReport, Dataset, ModelInstance, generate_data
from .prior import SievePrior
from .sampler import (ChainTrace, SamplerConfig, burn_in_steps,
                      discretization_bias, precision_floor, run_chain,
                      step_size_bound)
from .surrogate import MollifiedPenalty, SurrogateSpec, choose_K

__version__ = "0.1.0"

__all__ = [
    "BASIS_KINDS", "BasisFamily", "ChainTrace", "CurvatureReport",
    "Darcy1D", "Dataset", "ExpFamily", "GridPosterior", "LangevinGLMRegressor",
    "LinearPhi", "LinkFunction", "ModelInstance", "MollifiedPenalty",
    "RecoveryReport", "SamplerConfig", "SievePrior", "SurrogateSpec",
    "burn_in_steps", "choose_K", "condition_numbers", "contraction_metric",
    "discretization_bias", "generate_data", "grid_posterior", "grid_tv_distance",
    "natural_param", "oracle_perturbed_init", "oracle_projection_init",
    "pilot_ascent_init", "precision_floor", "run_chain", "step_size_bound",
]
