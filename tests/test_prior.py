import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surrogate_langevin.prior import SievePrior


def test_covariance_diagonal():
    # the gradient's diagonal is minus the precision, the inverse covariance
    prior = SievePrior(1.5, 100, 4)
    k = np.arange(1, 5, dtype=float)
    np.testing.assert_allclose(-1.0 / prior.grad_diag, 100 ** (-1 / 4) * k ** -3.0, rtol=1e-12)


def test_grad_examples():
    prior = SievePrior(1.0, 64, 3)
    np.testing.assert_allclose(prior.grad_log_density(np.array([1.0, 0, 0])), [-4.0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(prior.grad_log_density(np.array([0, 0, 1.0])), [0, 0, -36.0], atol=1e-12)
    np.testing.assert_allclose(prior.grad_log_density(np.zeros(3)), 0.0, atol=0)


def test_grad_linearity():
    prior = SievePrior(1.0, 200, 5)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    lhs = prior.grad_log_density(2.5 * a - 0.5 * b)
    rhs = 2.5 * prior.grad_log_density(a) - 0.5 * prior.grad_log_density(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_constants():
    prior = SievePrior(1.0, 64, 3)
    assert prior.m_pi == pytest.approx(4.0)
    assert prior.lambda_pi == pytest.approx(4.0 * 9.0)


def test_directional_second_difference_matches_quadratic():
    prior = SievePrior(1.25, 500, 6)
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(6)
    for _ in range(10):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        eps = 1e-4
        d2 = (prior.log_density(theta + eps * v) - 2 * prior.log_density(theta)
              + prior.log_density(theta - eps * v)) / eps ** 2
        exact = -prior.scale * float(v @ (prior.sigma_alpha_diag * v))
        assert d2 == pytest.approx(exact, rel=1e-6)
        assert -prior.lambda_pi - 1e-8 <= d2 <= -prior.m_pi + 1e-8


def test_norm_fourth_moment_bounded():
    # E||theta||^4 = (sum c_k)^2 + 2 sum c_k^2 for independent N(0, c_k) coordinates
    for n, p in [(50, 2), (500, 8), (5000, 16)]:
        c = -1.0 / SievePrior(1.0, n, p).grad_diag
        assert c.sum() ** 2 + 2.0 * (c ** 2).sum() < 10.0  # bounded uniformly over the grid


def test_alpha_validation():
    with pytest.raises(ValueError):
        SievePrior(0.4, 100, 3)


@given(alpha=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
def test_alpha_must_be_finite(alpha):
    # a NaN alpha passed `alpha <= 0.5` and gave a NaN m_pi
    with pytest.raises(ValueError, match="smoothness alpha must exceed 1/2"):
        SievePrior(alpha, 100, 3)
