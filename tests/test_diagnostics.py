import math
import warnings

import numpy as np
import pytest

from _oracles import empirical_w2, grid_posterior_branchy, sample_inverse_cdf
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.diagnostics import (BoundaryMassError, RecoveryReport,
                                            condition_numbers, contraction_metric,
                                            grid_posterior, grid_tv_distance,
                                            loglog_slope)
from surrogate_langevin.expfam import ExpFamily, LinkFunction
from surrogate_langevin.forward import LinearPhi
from surrogate_langevin.likelihood import CurvatureReport, Dataset, ModelInstance
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.surrogate import SurrogateSpec


# -- grid posterior ------------------------------------------------------------

def test_grid_matches_gaussian_closed_form():
    mu, sigma = 0.3, 0.2

    def logd(t):
        return -0.5 * ((t[0] - mu) / sigma) ** 2

    grid = grid_posterior(logd, [(-1.2, 1.8)], 4001)
    assert grid.mean[0] == pytest.approx(mu, abs=1e-6)
    assert math.sqrt(grid.cov[0, 0]) == pytest.approx(sigma, abs=1e-6)


def test_grid_flat_likelihood_recovers_prior():
    # zero data: the posterior is the prior N(0, 1/m_pi)
    prior = SievePrior(1.0, 64, 1)
    grid = grid_posterior(prior.log_density, [(-4.0, 4.0)], 4001)
    assert grid.mean[0] == pytest.approx(0.0, abs=1e-10)
    assert math.sqrt(grid.cov[0, 0]) == pytest.approx(
        math.sqrt(-1.0 / prior.grad_diag[0]), abs=1e-6)


def test_grid_resolution_doubling_stable():
    def logd(t):
        return -0.5 * (t[0] / 0.5) ** 2

    g1 = grid_posterior(logd, [(-4.0, 4.0)], 2001)
    g2 = grid_posterior(logd, [(-4.0, 4.0)], 4001)
    assert abs(g1.mean[0] - g2.mean[0]) <= 1e-8
    assert abs(math.sqrt(g1.cov[0, 0]) - math.sqrt(g2.cov[0, 0])) <= 1e-8


def test_grid_2d_mean_and_cov():
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    prec = np.linalg.inv(cov)
    mu = np.array([0.1, -0.2])

    def logd(t):
        d = t - mu
        return -0.5 * d @ prec @ d

    grid = grid_posterior(logd, [(-2.0, 2.2), (-2.5, 2.1)], 401)
    np.testing.assert_allclose(grid.mean, mu, atol=1e-6)
    np.testing.assert_allclose(grid.cov, cov, atol=1e-5)


GRID_CASES = [  # (log density, bounds, resolution); the last two fail the boundary check
    (lambda t: -0.5 * ((t[0] - 0.3) / 0.2) ** 2 + 0.1 * np.sin(3 * t[0]), [(-1.2, 1.8)], 4001),
    (lambda t: -2.0 * np.cosh(t[0] - 1.0), [(-12.0, 14.0)], 777),
    (lambda t: -0.5 * (t[0] / 0.4) ** 2 - 0.3 * t[0] ** 4, [(-5.0, 5.0)], 1024),
    (lambda t: -0.5 * (25 * t[0] ** 2 - 10 * t[0] * t[1] + 12 * t[1] ** 2) + np.sin(t[1]),
     [(-2.0, 2.2), (-2.5, 2.1)], (101, 73)),
    (lambda t: -8.0 * np.hypot(t[0] - 0.1, t[1] + 0.2), [(-6.0, 6.0), (-5.0, 7.0)], 64),
    (lambda t: -0.5 * t[0] ** 2, [(-1.0, 1.0)], 101),
    (lambda t: -0.5 * (t[0] ** 2 + t[1] ** 2), [(-1.5, 1.0), (-1.0, 1.0)], (33, 41)),
]


@pytest.mark.parametrize("logd, bounds, resolution", GRID_CASES)
def test_grid_matches_per_dimension_reference(logd, bounds, resolution):
    # one tensor-grid path for p in {1, 2} against the branchy first version:
    # the same weights and boundary error bit for bit, and the same
    # mean and cov at p = 2; at p = 1 mean and cov were sums over x and are
    # now matrix products, which may move them by a few ulps
    try:
        w, mean, cov = grid_posterior_branchy(logd, bounds, resolution)
    except BoundaryMassError as ref:
        with pytest.raises(BoundaryMassError) as exc:
            grid_posterior(logd, bounds, resolution)
        assert exc.value.ratio == ref.ratio
        assert exc.value.suggested_bounds == ref.suggested_bounds
        assert str(exc.value) == str(ref)
        return
    grid = grid_posterior(logd, bounds, resolution)
    assert np.array_equal(grid.weights, w)  # so the boundary ratio is the reference's too
    if len(bounds) == 2:
        assert np.array_equal(grid.mean, mean) and np.array_equal(grid.cov, cov)
    else:
        extent = max(abs(v) for v in bounds[0])
        assert abs(grid.mean[0] - mean[0]) <= 4 * np.spacing(extent)
        assert abs(grid.cov[0, 0] - cov[0, 0]) <= 8 * np.spacing(cov[0, 0])
    assert grid.mean.shape == mean.shape and grid.cov.shape == cov.shape


def test_grid_boundary_mass_error_suggests_wider_bounds():
    def logd(t):
        return -0.5 * t[0] ** 2

    with pytest.raises(BoundaryMassError) as exc:
        grid_posterior(logd, [(-1.0, 1.0)], 101)
    (lo, hi), = exc.value.suggested_bounds
    assert lo == pytest.approx(-3.0) and hi == pytest.approx(3.0)
    assert exc.value.ratio > 1e-8
    # widened bounds succeed
    grid_posterior(logd, [(-8.0, 8.0)], 801)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_rejects_a_nan_or_plus_inf_value(bad):
    def logd(t):
        return bad if t[0] == 0.0 else -0.5 * t[0] ** 2

    with pytest.raises(ValueError, match="NaN or \\+inf"):
        grid_posterior(logd, [(-8.0, 8.0)], 801)


def test_grid_rejects_a_density_that_is_zero_everywhere():
    with pytest.raises(ValueError, match="-inf on the whole grid"):
        grid_posterior(lambda t: -math.inf, [(-8.0, 8.0)], 801)


def test_grid_allows_minus_inf_as_zero_density():
    # a half-Gaussian: zero density left of 0, with no warning and no NaN
    def logd(t):
        return -0.5 * t[0] ** 2 if t[0] >= 0.0 else -math.inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = grid_posterior(logd, [(-8.0, 8.0)], 1601)
    assert np.all(grid.weights[np.linspace(-8.0, 8.0, 1601) < 0.0] == 0.0)
    assert grid.mean[0] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-2)
    assert np.isfinite(grid.cov).all()


def test_grid_tv_zero_and_symmetry():
    def logd(t):
        return -0.5 * t[0] ** 2

    g1 = grid_posterior(logd, [(-8.0, 8.0)], 401)
    g2 = grid_posterior(lambda t: logd(t) + 5.0, [(-8.0, 8.0)], 401)  # same law
    assert grid_tv_distance(g1, g2) <= 1e-14

    def logd_shift(t):
        return -0.5 * (t[0] - 0.5) ** 2

    g3 = grid_posterior(logd_shift, [(-8.0, 8.0)], 401)
    d = grid_tv_distance(g1, g3)
    assert 0.0 < d < 1.0
    assert grid_tv_distance(g3, g1) == pytest.approx(d)


def test_grid_tv_shape_mismatch():
    def logd(t):
        return -0.5 * t[0] ** 2

    g1 = grid_posterior(logd, [(-8.0, 8.0)], 401)
    g2 = grid_posterior(logd, [(-8.0, 8.0)], 801)
    with pytest.raises(ValueError):
        grid_tv_distance(g1, g2)


def test_inverse_cdf_samples_match_moments():
    mu, sigma = -0.4, 0.3

    def logd(t):
        return -0.5 * ((t[0] - mu) / sigma) ** 2

    grid = grid_posterior(logd, [(-4.0, 4.0)], 4001)
    s = sample_inverse_cdf(grid, 1024)
    assert s.shape == (1024, 1)
    assert s.mean() == pytest.approx(mu, abs=3e-3)
    assert s.std() == pytest.approx(sigma, abs=3e-3)
    assert np.all(np.diff(s[:, 0]) >= 0)  # quantiles are sorted


# -- Wasserstein ---------------------------------------------------------------

def test_w2_identical_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 3))
    assert empirical_w2(a, a.copy()) == pytest.approx(0.0, abs=1e-12)


def test_w2_constant_shift():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((80, 2))
    c = np.array([0.7, -0.3])
    assert empirical_w2(a, a + c) == pytest.approx(np.linalg.norm(c), rel=1e-12)


def test_w2_matches_sorted_1d_oracle():
    from _oracles import w2_sorted_1d

    rng = np.random.default_rng(2)
    a = rng.standard_normal(200)
    b = 0.5 * rng.standard_normal(200) + 0.2
    assert empirical_w2(a, b) == pytest.approx(w2_sorted_1d(a, b), abs=1e-12)


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((60, 2))
    b = rng.standard_normal((60, 2)) + 0.5
    c = 2.0 * rng.standard_normal((60, 2))
    dab, dba = empirical_w2(a, b), empirical_w2(b, a)
    assert dab == pytest.approx(dba, abs=1e-12)
    assert empirical_w2(a, c) <= dab + empirical_w2(b, c) + 1e-12


def test_w2_two_standard_normal_sets_small():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(1024)
    b = rng.standard_normal(1024)
    assert empirical_w2(a, b) < 0.1


def test_w2_guards():
    with pytest.raises(ValueError):
        empirical_w2(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        empirical_w2(np.zeros(3000), np.zeros(3000))


# -- contraction / condition numbers / slopes ----------------------------------

def test_contraction_metric_trivials():
    center = np.zeros(2)
    inside = np.zeros((10, 2))
    assert contraction_metric(inside, center, 1.0, 1.0, 0.1) == 0.0
    far = np.full((10, 2), 5.0)
    assert contraction_metric(far, center, 1.0, 1.0, 0.1) == 1.0


def test_contraction_metric_monotone_in_l():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((500, 3))
    vals = [contraction_metric(s, np.zeros(3), 1.0, L, 0.5)
            for L in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_contraction_metric_1d_input():
    s = np.array([0.0, 0.2, 3.0])
    assert contraction_metric(s, np.zeros(1), 1.0, 1.0, 1.0) == pytest.approx(1 / 3)


def test_condition_numbers_prior_ratio_exact():
    for p, alpha in [(4, 1.0), (16, 1.0), (9, 1.5)]:
        prior = SievePrior(alpha, 1000, p)
        basis = BasisFamily("cosine-with-constant", p)
        ds = Dataset("regression", np.zeros(0), np.zeros(0), 0)
        model = ModelInstance(ds, basis, ExpFamily("gaussian"),
                              LinkFunction("canonical"), LinearPhi(basis))
        probe = CurvatureReport(0.0, 1.0, 1.0, 1, np.zeros(p), 0.5)
        spec = SurrogateSpec(model, prior, np.zeros(p), 0.5, 10.0, probe)
        _, prior_ratio = condition_numbers(spec)
        assert prior_ratio == pytest.approx(float(p) ** (2 * alpha), rel=1e-12)
    prior1 = SievePrior(1.0, 1000, 1)
    assert prior1.lambda_pi / prior1.m_pi == pytest.approx(1.0)


def test_loglog_slope_exact_power_law():
    x = np.array([10.0, 100.0, 1000.0])
    assert loglog_slope(x, x ** -0.4) == pytest.approx(-0.4, abs=1e-12)
    assert loglog_slope(x, 3.0 * x ** 0.5) == pytest.approx(0.5, abs=1e-12)


def test_recovery_report():
    rep = RecoveryReport.from_errors([100, 1000], [0.1, 0.1 * 10 ** -0.3], 1.0)
    assert rep.slope == pytest.approx(-0.3, abs=1e-12)
    assert rep.target_rate == pytest.approx(-1.0 / 3.0)
    with pytest.raises(ValueError):
        RecoveryReport.from_errors([100, 1000], [0.1, -0.1], 1.0)
