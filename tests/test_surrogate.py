import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (cutoff_deriv_masked, cutoff_masked, penalty_quadrature,
                      penalty_quadrature_deriv, posterior_grad_composed, surrogate_grad)
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.config import MODEL_PRESETS
from surrogate_langevin.expfam import ExpFamily, LinkFunction
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.likelihood import CurvatureReport, ModelInstance, generate_data
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.surrogate import (CUTOFF_C2_NORM, ConfigurationError,
                                          MollifiedPenalty, SurrogateSpec, choose_K,
                                          cutoff, cutoff_deriv)

GLM_EXPONENTS = MODEL_PRESETS["glm-gaussian"].exponents


def build_spec(n=300, p=3, family="gaussian", seed=0, eta=None):
    basis = BasisFamily("cosine-with-constant", p)
    theta0 = 0.5 * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily(family), LinkFunction("canonical")
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk)
    model = ModelInstance(ds, basis, fam, lk, LinearPhi(basis))
    prior = SievePrior(1.0, n, p)
    eta = eta if eta is not None else p ** -0.5
    probe = model.curvature_probe(theta0, eta, 100, seed)
    K = choose_K(probe, n, p, n ** (-1 / 3), GLM_EXPONENTS)
    return SurrogateSpec(model, prior, theta0, eta, K, probe)


# -- cutoff --------------------------------------------------------------------

def test_cutoff_plateaus():
    assert cutoff(0.5) == 1.0
    assert cutoff(0.75) == 1.0
    assert cutoff(0.9) == 0.0
    assert cutoff(0.875) == 0.0


def test_cutoff_transition():
    v = cutoff(0.8)
    assert 0.0 < v < 1.0
    assert cutoff_deriv(0.8) < 0.0
    assert cutoff_deriv(0.5) == 0.0
    assert cutoff_deriv(0.95) == 0.0


def test_cutoff_monotone_and_c2():
    t = np.linspace(0.75, 0.875, 500)
    v = cutoff(t)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.isfinite(CUTOFF_C2_NORM)
    assert CUTOFF_C2_NORM >= 1.0


def test_cutoff_deriv_matches_fd():
    t = np.linspace(0.76, 0.87, 23)
    eps = 1e-7
    fd = (cutoff(t + eps) - cutoff(t - eps)) / (2 * eps)
    np.testing.assert_allclose(cutoff_deriv(t), fd, rtol=1e-5, atol=1e-8)


def test_cutoff_c2_norm_keeps_its_bits():
    # the sup of |v''| by differences on the CUTOFF_GRID_SIZE grid
    assert np.float64(CUTOFF_C2_NORM).tobytes() == np.float64(629.8264651428666).tobytes()


def test_cutoff_passes_nan_and_the_infinities_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning at NaN
        assert math.isnan(cutoff(math.nan))
        assert cutoff_deriv(math.nan) == 0.0
    assert (cutoff(-math.inf), cutoff(math.inf)) == (1.0, 0.0)
    assert (cutoff_deriv(-math.inf), cutoff_deriv(math.inf)) == (0.0, 0.0)


_CUTOFF_EDGES = [f(e) for e in (0.75, 0.875)
                 for f in (lambda e: e, lambda e: math.nextafter(e, 0.0),
                           lambda e: math.nextafter(e, 1.0))]


@settings(max_examples=300, deadline=None)
@given(t=st.lists(st.sampled_from(_CUTOFF_EDGES) | st.floats(0.7, 0.9) | st.floats(),
                  min_size=1, max_size=8))
def test_cutoff_keeps_the_masked_bits(t):
    # the bumps only on 3/4 < t < 7/8 give the bits of the smoothstep taken at
    # every t and masked, as arrays and one float at a time
    t = np.array(t)
    # the masked form divides 0/0 at NaN and overflows 8 (7/8 - t) at |t| > 2e307
    with np.errstate(invalid="ignore", over="ignore"):
        want = cutoff_masked(t), cutoff_deriv_masked(t)
    number = ~np.isnan(t)
    got = cutoff(t)
    assert np.array_equal(np.isnan(got), ~number)
    assert got[number].tobytes() == want[0][number].tobytes()
    assert cutoff_deriv(t).tobytes() == want[1].tobytes()
    for k in np.flatnonzero(number):
        assert np.float64(cutoff(t[k])).tobytes() == want[0][k].tobytes()
        assert np.float64(cutoff_deriv(float(t[k]))).tobytes() == want[1][k].tobytes()


# -- mollified penalty ---------------------------------------------------------

@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
def test_penalty_and_spec_reject_a_bad_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive"):
        MollifiedPenalty(eta)
    spec = build_spec(n=50)
    with pytest.raises(ValueError, match="eta and K must be positive"):
        SurrogateSpec(spec.model, spec.prior, spec.theta_init, eta, spec.K, spec.probe)


def test_penalty_vanishes_inside():
    pen = MollifiedPenalty(0.8)
    assert pen.eval(0.3) == 0.0
    assert pen.deriv(0.3) == 0.0
    assert pen.eval(0.4) == 0.0  # t <= eta/2


def test_penalty_tail_closed_form():
    pen = MollifiedPenalty(0.8)
    for t in (0.6, 0.8, 1.6, 2.0, 4.0):  # 3 eta/4, eta, 2 eta, 5 eta/2, 5 eta
        assert pen.eval(t) == pytest.approx((t - 0.5) ** 2 + 0.1 ** 2 * pen.sigma2_phi, abs=1e-10)
        assert pen.eval(t) == pytest.approx(penalty_quadrature(0.8, t), abs=1e-10)
        assert pen.deriv(t) == pytest.approx(2.0 * (t - 0.5), abs=1e-10)
        assert pen.deriv(t) == pytest.approx(penalty_quadrature_deriv(0.8, t), abs=1e-10)


def _per_element(method, t):
    """method called on each float of the array t, as an array."""
    return np.array([method(x) for x in t.tolist()])


def _ulps(a, b):
    """The number of doubles from a to b, for a and b of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@pytest.mark.parametrize("eta", [1e-9, 0.37, 0.5, 1.3, 1e3])
def test_penalty_switch_to_the_tail_is_continuous(eta):
    # at 3 eta/4 and one ulp either side, the value is within 4 ulps of both
    # the quadrature and the closed form (measured over 2000 eta in
    # [1e-9, 1e3]: at most 3); below the switch it keeps the quadrature's bits
    pen = MollifiedPenalty(eta)
    edge = 0.75 * eta
    below = math.nextafter(edge, 0.0)
    for t in (below, edge, math.nextafter(edge, math.inf)):
        d = t - 5.0 * eta / 8.0
        assert _ulps(pen.eval(t), penalty_quadrature(eta, t)) <= 4
        assert _ulps(pen.eval(t), d * d + pen.s ** 2 * pen.sigma2_phi) <= 4
        assert _ulps(pen.deriv(t), penalty_quadrature_deriv(eta, t)) <= 4
        assert _ulps(pen.deriv(t), 2.0 * d) <= 4
    assert np.float64(pen.eval(below)).tobytes() == np.float64(
        penalty_quadrature(eta, below)).tobytes()
    assert np.float64(pen.deriv(below)).tobytes() == np.float64(
        penalty_quadrature_deriv(eta, below)).tobytes()


def test_penalty_midrange_small_positive():
    pen = MollifiedPenalty(0.8)
    val = pen.eval(0.5)
    assert 0.0 < val < 0.01 * 0.2 ** 2 * 10  # below s^2 * ceiling of the hinge nearby


def test_penalty_convex_and_deriv_monotone():
    pen = MollifiedPenalty(0.37)
    t = np.linspace(0.0, 2.0, 801)
    vals = _per_element(pen.eval, t)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.min(second) >= -1e-10
    derivs = _per_element(pen.deriv, t)
    assert np.all(np.diff(derivs) >= -1e-12)
    assert np.all(derivs >= 0.0)


def test_penalty_scalar_second_derivative_bounds():
    pen = MollifiedPenalty(1.3)
    t = np.linspace(0.0, 3.0, 1201)
    d = _per_element(pen.deriv, t)
    h = t[1] - t[0]
    d2 = np.diff(d) / h
    assert np.min(d2) >= -1e-8
    assert np.max(d2) <= 2.0 + 1e-6


def test_penalty_deriv_matches_fd():
    pen = MollifiedPenalty(0.6)
    t = np.linspace(0.2, 1.5, 27)
    eps = 1e-7
    fd = (_per_element(pen.eval, t + eps) - _per_element(pen.eval, t - eps)) / (2 * eps)
    np.testing.assert_allclose(_per_element(pen.deriv, t), fd, atol=1e-6)


def test_penalty_passes_nan_and_plus_inf_through():
    pen = MollifiedPenalty(0.8)
    for method in (pen.eval, pen.deriv):
        assert math.isnan(method(math.nan))
        assert method(math.inf) == math.inf


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.6, 0.8, 4.0, math.inf])
def test_penalty_returns_a_python_float(t):
    # inside, on the quadrature shell and on the exact tail
    pen = MollifiedPenalty(0.8)
    assert type(pen.eval(t)) is float
    assert type(pen.deriv(t)) is float


# -- choose_K ------------------------------------------------------------------

def test_choose_K_floor_example():
    # c_hat_max = 1 via lambda_max_est = n p^{1/2}
    probe = CurvatureReport(0.0, 1000 * 3.0, 0.0, 10, np.zeros(9), 0.3)
    K = choose_K(probe, 1000, 9, 0.1, GLM_EXPONENTS)
    assert K == pytest.approx(60 * CUTOFF_C2_NORM * 1000 * (1 + 3), rel=1e-12)


def test_choose_K_override_only_raises():
    probe = CurvatureReport(0.0, 1000 * 3.0, 0.0, 10, np.zeros(9), 0.3)
    floor = choose_K(probe, 1000, 9, 0.1, GLM_EXPONENTS)  # about 1.5e8
    assert choose_K(probe, 1000, 9, 0.1, GLM_EXPONENTS, override=5e9) == pytest.approx(5e9)
    assert choose_K(probe, 1000, 9, 0.1, GLM_EXPONENTS, override=1.0) == pytest.approx(floor)


def test_choose_K_degenerate_probe():
    probe = CurvatureReport(0.0, 0.0, 0.0, 10, np.zeros(2), 0.3)
    with pytest.raises(ConfigurationError):
        choose_K(probe, 100, 2, 0.1, GLM_EXPONENTS)


def test_preset_exponents():
    for name in ("glm-gaussian", "glm-poisson", "glm-logistic", "glm-gaussian-cube"):
        assert MODEL_PRESETS[name].exponents == (0.0, 0.5)
    assert MODEL_PRESETS["density"].exponents == (0.0, 0.5)
    assert MODEL_PRESETS["darcy-1d"].exponents == (0.0, 2.0)
    assert choose_K.__defaults__[0] == GLM_EXPONENTS


def test_constants_are_built_once(monkeypatch):
    # after one warm-up build, neither a density model nor a surrogate (at any
    # eta) computes Gauss-Legendre nodes again
    basis = BasisFamily("cosine-centered", 3)
    theta0 = np.array([0.3, -0.2, 0.0])

    def density_model(seed):
        ds = generate_data(basis, theta0, 50, seed, kind="density")
        return ModelInstance(ds, basis, None, None, None)

    density_model(0)
    build_spec(n=50, eta=0.5)
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    models = [density_model(1), density_model(2)]
    specs = [build_spec(n=50, eta=0.3), build_spec(n=50, eta=0.7)]
    assert calls == []
    assert specs[0].penalty.eval(1.0) != specs[1].penalty.eval(1.0)
    assert models[0].log_lik(theta0) != models[1].log_lik(theta0)


# -- surrogate spec ------------------------------------------------------------

def test_surrogate_value_at_init():
    spec = build_spec()
    assert spec.log_lik(spec.theta_init) == spec.model.log_lik(spec.theta_init)


def test_region_identity_values_and_grads():
    spec = build_spec()
    rng = np.random.default_rng(41)
    for _ in range(200):
        d = rng.standard_normal(3)
        d *= (spec.eta / 2.0) * rng.random() / np.linalg.norm(d)
        theta = spec.theta_init + d
        assert spec.log_lik(theta) == spec.model.log_lik(theta)
        np.testing.assert_array_equal(surrogate_grad(spec, theta), spec.model.grad_log_lik(theta))


def test_surrogate_rejects_a_wrongly_shaped_theta():
    # a theta of another length broadcast against theta_init and was answered
    # for another point: log_lik read -2.1e12 at [100.0]
    spec = build_spec(n=200, p=4, family="poisson")
    for bad in (np.array([100.0]), np.zeros(5), np.zeros((1, 4)), np.zeros((2, 4))):
        for method in (spec.log_lik, spec.posterior_grad,
                       spec.posterior_log_density):
            with pytest.raises(ValueError, match=r"theta must have length p=4"):
                method(bad)
    assert spec.drift_calls == {"inner": 0, "annulus": 0, "far": 0}


@pytest.mark.parametrize("ratio, region", [(0.25, "inner"), (0.6, "annulus"), (2.0, "far")])
def test_each_evaluation_applies_the_region_rule_once(ratio, region):
    # the drift, the gradient body and the value each ask _region once: no
    # second copy of the rule decides the drift's region
    spec = build_spec()
    u = np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
    theta = spec.theta_init + ratio * spec.eta * u
    with mock.patch.object(spec, "_region", wraps=spec._region) as rule:
        for method in (spec.posterior_grad, lambda t: surrogate_grad(spec, t), spec.log_lik):
            rule.reset_mock()
            method(theta)
            assert rule.call_count == 1
    assert spec.drift_calls == {**dict.fromkeys(spec.drift_calls, 0), region: 1}


def test_far_field_value_and_grad():
    spec = build_spec()
    eta = spec.eta
    direction = np.array([1.0, 0.0, 0.0])
    theta = spec.theta_init + 2.0 * eta * direction
    expected = spec.model.log_lik(spec.theta_init) - spec.K * spec.penalty.eval(2.0 * eta)
    assert spec.log_lik(theta) == pytest.approx(expected, rel=1e-12)
    theta3 = spec.theta_init + 3.0 * eta * direction
    g = surrogate_grad(spec, theta3)
    np.testing.assert_allclose(g, -spec.K * spec.penalty.deriv(3.0 * eta) * direction,
                               rtol=1e-12)


def test_far_field_drift_is_the_exact_tail():
    spec = build_spec()
    rng = np.random.default_rng(47)
    for ratio in (0.9, 1.0, 3.0, 1e3):
        u = rng.standard_normal(3)
        theta = spec.theta_init + (ratio * spec.eta / np.linalg.norm(u)) * u
        diff = theta - spec.theta_init
        t = math.sqrt(diff.dot(diff))
        want = (-spec.K * (2.0 * (t - 5.0 * spec.eta / 8.0)) * (diff / t)
                + spec.prior.grad_diag * theta)
        far = spec.drift_calls["far"]
        assert spec.posterior_grad(theta).tobytes() == want.tobytes()
        assert spec.drift_calls["far"] == far + 1


def _full_cutoff_formula(spec, theta):
    """(log_lik, grad) with the cutoff and its derivative evaluated at every
    t > eta/2: the reference for the far-field short-circuit."""
    ll_init = spec.model.log_lik(spec.theta_init)
    diff = theta - spec.theta_init
    t = float(np.linalg.norm(diff))
    radial = diff / t
    vt = float(cutoff(t / spec.eta))
    dv = float(cutoff_deriv(t / spec.eta)) / spec.eta
    pen = float(spec.penalty.eval(t))
    value = ll_init - spec.K * pen
    grad = -spec.K * float(spec.penalty.deriv(t)) * radial
    if vt != 0.0 or dv != 0.0:
        ll = spec.model.log_lik(theta)
        if vt != 0.0:
            value = vt * (ll - ll_init) + ll_init - spec.K * pen
        grad = grad + dv * (ll - ll_init) * radial
        if vt != 0.0:
            grad = grad + vt * spec.model.grad_log_lik(theta)
    return value, grad


def test_far_field_short_circuit_is_bitwise():
    # t / eta at exactly 7/8, one ulp either side of it, and far out; eta = 1/2
    # and a step along the first axis make t and t / eta exact
    spec = build_spec(eta=0.5)
    x0 = spec.theta_init[0]
    edge = x0 + 0.4375
    for x, ratio in ((edge, "eq"), (np.nextafter(edge, np.inf), "gt"),
                     (np.nextafter(edge, -np.inf), "lt"), (x0 + 2.5, "gt")):
        theta = spec.theta_init.copy()
        theta[0] = x
        s = float(np.linalg.norm(theta - spec.theta_init)) / spec.eta
        assert {"eq": s == 0.875, "gt": s > 0.875, "lt": 0.75 < s < 0.875}[ratio]
        value, grad = _full_cutoff_formula(spec, theta)
        assert np.float64(spec.log_lik(theta)).tobytes() == np.float64(value).tobytes()
        assert surrogate_grad(spec, theta).tobytes() == grad.tobytes()


def test_surrogate_grad_matches_fd_in_annulus():
    spec = build_spec(n=100)
    rng = np.random.default_rng(43)
    eta = spec.eta
    for _ in range(20):
        d = rng.standard_normal(3)
        t = eta * (0.75 + 0.125 * rng.random())  # straddle the cutoff annulus
        theta = spec.theta_init + t * d / np.linalg.norm(d)
        g = surrogate_grad(spec, theta)
        eps = 1e-6
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd[k] = (spec.log_lik(theta + e) - spec.log_lik(theta - e)) / (2 * eps)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(g - fd)) <= 1e-5 * scale


def test_posterior_grad_additivity():
    spec = build_spec()
    rng = np.random.default_rng(47)
    theta = spec.theta_init + 0.05 * rng.standard_normal(3)
    np.testing.assert_allclose(
        spec.posterior_grad(theta) - surrogate_grad(spec, theta),
        spec.prior.grad_log_density(theta), rtol=1e-12, atol=1e-12)


def test_posterior_grad_stationary_at_maximizer():
    from scipy.optimize import minimize

    spec = build_spec()

    def neg(th):
        return -(spec.log_lik(th) + spec.prior.log_density(th))

    def neg_grad(th):
        return -spec.posterior_grad(th)

    res = minimize(neg, spec.theta_init, jac=neg_grad, method="L-BFGS-B",
                   options={"maxiter": 5000, "gtol": 1e-7 * spec.m})
    # scale relative to the curvature: a strongly concave map with modulus m
    # has gradient ~ m * distance, so normalize by m
    assert np.linalg.norm(spec.posterior_grad(res.x)) / spec.m <= 1e-6


def test_posterior_grad_zero_data_prior_only():
    basis = BasisFamily("cosine-with-constant", 2)
    from surrogate_langevin.likelihood import Dataset

    ds = Dataset("regression", np.zeros(0), np.zeros(0), 0)
    model = ModelInstance(ds, basis, ExpFamily("gaussian"), LinkFunction("canonical"),
                          LinearPhi(basis))
    prior = SievePrior(1.0, 9, 2)
    probe = CurvatureReport(0.0, 1.0, 1.0, 1, np.zeros(2), 0.5)
    spec = SurrogateSpec(model, prior, np.zeros(2), 0.5, 10.0, probe)
    np.testing.assert_allclose(spec.posterior_grad(np.zeros(2)), 0.0, atol=1e-14)


def test_derived_constants():
    spec = build_spec()
    assert spec.lambda_tilde == pytest.approx(7 * spec.K)
    assert spec.lam == pytest.approx(7 * spec.K + spec.prior.lambda_pi)
    assert spec.m == pytest.approx(spec.probe.lambda_min_est + spec.prior.m_pi)
    assert spec.coincidence_radius == pytest.approx(3 * spec.eta / 8)


def test_data_order_invariance():
    basis = BasisFamily("cosine-with-constant", 2)
    fam, lk = ExpFamily("gaussian"), LinkFunction("canonical")
    rng = np.random.default_rng(53)
    x = rng.random(40)
    y = rng.standard_normal(40)
    perm = rng.permutation(40)
    from surrogate_langevin.likelihood import Dataset

    m1 = ModelInstance(Dataset("regression", x, y, 40), basis, fam, lk, LinearPhi(basis))
    m2 = ModelInstance(Dataset("regression", x[perm], y[perm], 40), basis, fam, lk,
                       LinearPhi(basis))
    theta = np.array([0.3, -0.2])
    assert m1.log_lik(theta) == pytest.approx(m2.log_lik(theta), rel=1e-14)


def test_global_concavity_second_differences():
    spec = build_spec()
    rng = np.random.default_rng(59)
    eta = spec.eta
    for _ in range(200):
        d = rng.standard_normal(3)
        t = 4.0 * eta * rng.random()
        theta = spec.theta_init + t * d / np.linalg.norm(d)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        eps = 1e-3 * eta

        def f(th):
            return spec.log_lik(th) + spec.prior.log_density(th)

        d2 = (f(theta + eps * v) - 2 * f(theta) + f(theta - eps * v)) / eps ** 2
        assert d2 <= -spec.m / 2.0


def test_gradient_lipschitz_envelope():
    spec = build_spec()
    rng = np.random.default_rng(61)
    eta = spec.eta
    for _ in range(200):
        d1, d2 = rng.standard_normal(3), rng.standard_normal(3)
        a = spec.theta_init + 4.0 * eta * rng.random() * d1 / np.linalg.norm(d1)
        b = spec.theta_init + 4.0 * eta * rng.random() * d2 / np.linalg.norm(d2)
        num = np.linalg.norm(surrogate_grad(spec, a) - surrogate_grad(spec, b))
        den = np.linalg.norm(a - b)
        assert num <= 7.0 * spec.K * 1.05 * den


# -- property-based checks -----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(eta=st.floats(0.05, 5.0), t=st.floats(0.0, 20.0))
def test_penalty_nonnegative_convex_everywhere(eta, t):
    pen = MollifiedPenalty(eta)
    assert pen.eval(t) >= 0.0
    assert pen.deriv(t) >= 0.0
    h = 1e-3 * eta
    a, b, c = pen.eval(t), pen.eval(t + h), pen.eval(t + 2 * h)
    assert c - 2 * b + a >= -1e-9 * max(abs(c), 1.0)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 1.5))
def test_cutoff_range_and_monotonicity(t):
    v = cutoff(t)
    assert 0.0 <= v <= 1.0
    assert cutoff(t + 1e-3) <= v + 1e-12


@settings(max_examples=200, deadline=None)
@given(eta=st.floats(1e-9, 1e3), ratio=st.floats(0.75, 1e6))
def test_penalty_tail_agrees_with_the_quadrature(eta, ratio):
    # from 3 eta/4 on the exact tail replaces the 64-node quadrature; over a
    # 200 x 200 grid of these ranges they differ by at most 3 ulps (eval) and
    # 2 ulps (deriv)
    penalty = MollifiedPenalty(eta)
    t = max(ratio * eta, 0.75 * eta)
    assert _ulps(penalty.eval(t), penalty_quadrature(eta, t)) <= 4
    assert _ulps(penalty.deriv(t), penalty_quadrature_deriv(eta, t)) <= 4


@settings(max_examples=200, deadline=None)
@given(eta=st.floats(1e-9, 1e3),
       ratio=st.floats(0.5, 0.75, exclude_min=True, exclude_max=True))
def test_penalty_shell_keeps_the_quadrature_bits(eta, ratio):
    # below 3 eta/4 the float path runs the 64-node quadrature of the
    # reference, node for node
    penalty = MollifiedPenalty(eta)
    t = min(ratio * eta, math.nextafter(0.75 * eta, 0.0))
    assert np.float64(penalty.eval(t)).tobytes() == np.float64(
        penalty_quadrature(eta, t)).tobytes()
    assert np.float64(penalty.deriv(t)).tobytes() == np.float64(
        penalty_quadrature_deriv(eta, t)).tobytes()


# -- the drift at the region edges ----------------------------------------------

@functools.cache
def _edge_model(name):
    """A small model of each kind and its theta_init."""
    if name == "density":
        basis, theta = BasisFamily("cosine-centered", 3), np.array([0.3, -0.2, 0.0])
        return ModelInstance(generate_data(basis, theta, 60, 1, kind="density"),
                             basis, None, None, None), theta
    basis_kind, family, link, theta = {
        "glm-poisson": ("cosine-with-constant", "poisson", "canonical", [0.4, -0.3, 0.0]),
        "glm-gaussian-cube": ("cosine-with-constant", "gaussian", "cube", [2.0, 0.2, 0.0]),
        "darcy": ("dirichlet-sine", "gaussian", "canonical", [0.2, 0.1, 0.0]),
    }[name]
    basis, theta = BasisFamily(basis_kind, 3), np.array(theta)
    fam, lk = ExpFamily(family), LinkFunction(link)
    op = Darcy1D(basis, M=32) if name == "darcy" else LinearPhi(basis)
    ds = generate_data(basis, theta, 60, 1, family=fam, link=lk, forward=op)
    return ModelInstance(ds, basis, fam, lk, op), theta


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["density", "glm-poisson", "glm-gaussian-cube", "darcy"]),
       eta=st.floats(0.05, 1.0), edge=st.sampled_from([0.5, 0.875]),
       ulps=st.integers(-4, 4),
       direction=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
           lambda u: np.linalg.norm(u) > 1e-3))
@example(name="glm-poisson", eta=0.7354630307237434, edge=0.875, ulps=0, direction=None)
@example(name="darcy", eta=0.2606070829593833, edge=0.875, ulps=-1, direction=None)
def test_drift_at_the_region_edges_keeps_the_region_rule_and_bits(name, eta, edge, ulps,
                                                                  direction):
    # t within a few ulps of eta/2 and 7 eta/8: posterior_grad counts the call
    # in the region _region names, and gives the bits of the composed drift
    # (or its FloatingPointError).  direction None moves only the last
    # coordinate, whose theta_init entry is 0.0, so t is exactly the radius.
    # In the two examples t >= 7 eta/8 and t / eta >= 7/8 disagree.
    model, theta_init = _edge_model(name)
    probe = CurvatureReport(1.0, 2.0, 0.0, 1, theta_init, eta)
    spec = SurrogateSpec(model, SievePrior(1.0, model.n, 3), theta_init, eta, 30.0, probe)
    radius = edge * eta
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.copysign(math.inf, ulps))
    if direction is None:
        theta = theta_init.copy()
        theta[-1] = radius
    else:
        u = np.array(direction)
        theta = theta_init + (radius / np.linalg.norm(u)) * u
    diff = theta - theta_init
    t = math.sqrt(diff.dot(diff))
    if direction is None:
        assert t == radius
    region = spec._region(t)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = posterior_grad_composed(spec, theta)
        except FloatingPointError:
            with pytest.raises(FloatingPointError):
                spec.posterior_grad(theta)
        else:
            assert spec.posterior_grad(theta).tobytes() == want.tobytes()
    assert spec.drift_calls == {**dict.fromkeys(spec.drift_calls, 0), region: 1}
