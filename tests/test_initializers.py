import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.expfam import ExpFamily, LinkFunction
from surrogate_langevin.forward import LinearPhi
from surrogate_langevin.initializers import (oracle_perturbed_init,
                                             oracle_projection_init,
                                             pilot_ascent_init)
from surrogate_langevin.likelihood import Dataset, ModelInstance, generate_data
from surrogate_langevin.prior import SievePrior


def glm_model(n, p, family="gaussian", seed=0, theta0=None):
    basis = BasisFamily("cosine-with-constant", p)
    if theta0 is None:
        theta0 = 0.5 * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily(family), LinkFunction("canonical")
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk)
    return ModelInstance(ds, basis, fam, lk, LinearPhi(basis)), theta0


def test_oracle_projection_truncates_and_pads():
    theta0 = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(oracle_projection_init(theta0, 2), [1.0, 2.0])
    np.testing.assert_array_equal(oracle_projection_init(theta0, 5),
                                  [1.0, 2.0, 3.0, 0.0, 0.0])


def test_oracle_perturbed_within_ball():
    theta0 = np.array([0.5, -0.25, 0.1])
    eta = 0.8
    for seed in range(50):
        init = oracle_perturbed_init(theta0, 3, eta / 8.0, eta, seed)
        assert np.linalg.norm(init - theta0) <= eta / 8.0 + 1e-15
    i1 = oracle_perturbed_init(theta0, 3, eta / 8.0, eta, 7)
    i2 = oracle_perturbed_init(theta0, 3, eta / 8.0, eta, 7)
    np.testing.assert_array_equal(i1, i2)


def test_oracle_perturbed_rejects_large_radius():
    with pytest.raises(ValueError):
        oracle_perturbed_init(np.zeros(2), 2, 0.2, 0.8, 0)


@given(rho=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
def test_oracle_perturbed_radius_lies_in_zero_to_eta_over_8(rho):
    # a NaN rho passed `rho > eta/8` and gave a NaN theta; 0 is the projection
    theta0 = np.array([0.5, -0.2])
    if rho == 0.0:
        np.testing.assert_array_equal(oracle_perturbed_init(theta0, 2, rho, 0.8, 0), theta0)
        return
    with pytest.raises(ValueError, match="perturbation radius"):
        oracle_perturbed_init(theta0, 2, rho, 0.8, 0)


def test_pilot_ascent_conjugate_mode():
    # gaussian GLM: the posterior mode solves a linear system; compare directly
    model, _ = glm_model(300, 2, seed=1)
    prior = SievePrior(1.0, 300, 2)
    theta, info = pilot_ascent_init(model, prior, steps=2000)
    design = model.basis.design_matrix(model.dataset.x)
    a = design.T @ design + np.diag(-prior.grad_diag)  # the prior precision
    mode = np.linalg.solve(a, design.T @ model.dataset.y)
    np.testing.assert_allclose(theta, mode, atol=1e-6)
    assert info["grad_norm"] <= 1e-5


def test_pilot_ascent_zero_data_returns_prior_mode():
    basis = BasisFamily("cosine-with-constant", 3)
    ds = Dataset("regression", np.zeros(0), np.zeros(0), 0)
    model = ModelInstance(ds, basis, ExpFamily("gaussian"),
                          LinkFunction("canonical"), LinearPhi(basis))
    prior = SievePrior(1.0, 100, 3)
    theta, _ = pilot_ascent_init(model, prior, steps=100)
    np.testing.assert_array_equal(theta, np.zeros(3))


def test_pilot_ascent_distance_report():
    # signal strong enough that the MAP's statistical error sits inside eta/8
    theta0 = 1.2 * np.arange(1, 9, dtype=float) ** -2
    prior = SievePrior(1.0, 2000, 8)
    eta = 8 ** -0.5
    hits = 0
    for seed in range(20):
        m, _ = glm_model(2000, 8, family="poisson", seed=seed, theta0=theta0)
        theta, _ = pilot_ascent_init(m, prior, steps=2000)
        if np.linalg.norm(theta - theta0) / eta <= 0.125:
            hits += 1
    assert hits >= 18  # >= 90% of 20 seeds
