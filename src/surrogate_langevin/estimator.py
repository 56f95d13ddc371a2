"""Scikit-learn-style front end for the sampling pipeline.

fit() builds the surrogate posterior around an initialization point, runs the
Langevin chain, and stores the ergodic posterior mean; predict() evaluates the
fitted regression function at new design points.
"""

from __future__ import annotations

import inspect

import numpy as np

from .basis import BasisFamily
from .config import ExperimentConfig
from .experiment import resolve_cell, sample_cell
from .expfam import ExpFamily, LinkFunction, natural_param
from .forward import LinearPhi
from .likelihood import Dataset, ModelInstance


class LangevinGLMRegressor:
    """Bayesian GLM regression via surrogate-posterior Langevin sampling.

    Parameters follow the scikit-learn convention: all constructor arguments
    are stored unmodified and inferred quantities get a trailing underscore.
    """

    def __init__(self, p=8, alpha=1.0, family="gaussian", link="canonical",
                 basis="cosine-with-constant", eta=None, kappa_const=None, epsilon=0.5,
                 gamma_fraction=1.0, j=20_000, n_probes=200, seed=0):
        self.p = p
        self.alpha = alpha
        self.family = family
        self.link = link
        self.basis = basis
        self.eta = eta
        self.kappa_const = kappa_const
        self.epsilon = epsilon
        self.gamma_fraction = gamma_fraction
        self.j = j
        self.n_probes = n_probes
        self.seed = seed

    def get_params(self, deep=True):
        names = list(inspect.signature(type(self).__init__).parameters)[1:]  # after self
        return {k: getattr(self, k) for k in names}

    def set_params(self, **params):
        for k, v in params.items():
            if k not in self.get_params():
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    def fit(self, X, y):
        if self.link == "cube":
            raise ValueError("link='cube' cannot be fitted: fit starts pilot ascent at "
                             "theta = 0, where u = 0 is outside the cube link's range u > 0")
        x = np.ravel(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        n = x.size
        cfg = ExperimentConfig(
            alpha=self.alpha, eta_rule="preset" if self.eta is None else "fixed",
            eta_value=0.0 if self.eta is None else self.eta,
            k_override=self.kappa_const, init_mode="pilot-ascent",
            n_probes=self.n_probes, gamma_fraction=self.gamma_fraction,
            epsilon=self.epsilon, j=self.j, seeds=[self.seed], n_grid=[n],
            p_value=self.p).validate()
        basis = BasisFamily(self.basis, self.p)
        family = ExpFamily(self.family)
        link = LinkFunction(self.link)
        dataset = Dataset(kind="regression", x=x, y=y, n=n)
        model = ModelInstance(dataset, basis, family, link, LinearPhi(basis))
        surrogate, _, resolved, info = resolve_cell(cfg, model, None, self.seed)
        trace = sample_cell(cfg, surrogate, resolved, surrogate.theta_init, self.seed)

        self.model_ = model
        self.surrogate_ = surrogate
        self.trace_ = trace
        self.posterior_mean_ = trace.ergodic_average("identity")
        self.theta_init_ = surrogate.theta_init
        self.gamma_ = resolved["gamma"]
        self.j_in_ = resolved["j_in"]
        self.init_info_ = info
        return self

    def predict(self, X):
        if not hasattr(self, "posterior_mean_"):
            raise RuntimeError("call fit before predict")
        x = np.ravel(np.asarray(X, dtype=float))
        model = self.model_
        u = model.basis.design_matrix(x) @ self.posterior_mean_
        b = natural_param(model.family, model.link, u)
        return model.family.A1(b)
