import numpy as np
import pytest

from surrogate_langevin.expfam import (ExpFamily, LinkFunction, natural_param,
                                       natural_param_d1, natural_param_d2)


@pytest.mark.parametrize("kind", ["gaussian", "poisson", "bernoulli"])
def test_A_convexity_and_inverse(kind):
    fam = ExpFamily(kind)
    h = np.linspace(-3, 3, 41)
    assert np.all(fam.A2(h) >= 0)
    np.testing.assert_allclose(fam.A1_inv(fam.A1(h)), h, atol=1e-10)


def test_closed_forms():
    g = ExpFamily("gaussian")
    assert g.A(2.0) == pytest.approx(2.0)
    assert g.A1(3.0) == pytest.approx(3.0)
    assert g.A2(3.0) == pytest.approx(1.0)
    p = ExpFamily("poisson")
    assert p.A(0.0) == pytest.approx(0.0)
    assert p.A2(1.0) == pytest.approx(np.e)
    b = ExpFamily("bernoulli")
    assert b.A(0.0) == pytest.approx(np.log(2))
    assert b.A2(0.0) == pytest.approx(0.25)


def test_natural_param_examples():
    gauss, pois = ExpFamily("gaussian"), ExpFamily("poisson")
    canon, cube = LinkFunction("canonical"), LinkFunction("cube")
    assert natural_param(gauss, canon, 0.7) == pytest.approx(0.7)
    assert natural_param(pois, canon, 1.0) == pytest.approx(1.0)
    assert natural_param(gauss, cube, 8.0) == pytest.approx(2.0)


def test_cube_link_domain_error():
    with pytest.raises(ValueError, match="cube"):
        natural_param(ExpFamily("gaussian"), LinkFunction("cube"), -1.0)


@pytest.mark.parametrize("method", ["g", "g_inv", "g_inv_d1", "g_inv_d2"])
def test_canonical_link_maps_are_family_dependent(method):
    # the canonical inverse link is (A')^{-1}'s inverse, which depends on the
    # family: natural_param* handle it, the link alone must not answer
    # (g_inv used to return the cube link's cbrt, so g_inv(8.0) was 2.0)
    with pytest.raises(ValueError, match=f"canonical link's {method} is family-dependent"):
        getattr(LinkFunction("canonical"), method)(8.0)
    assert natural_param(ExpFamily("poisson"), LinkFunction("canonical"), 8.0) == 8.0


def test_cube_link_roundtrip_and_derivatives():
    link = LinkFunction("cube")
    u = np.array([0.5, 1.0, 8.0, 27.0])
    np.testing.assert_allclose(link.g(link.g_inv(u)), u, rtol=1e-10)
    eps = 1e-6
    fd1 = (link.g_inv(u + eps) - link.g_inv(u - eps)) / (2 * eps)
    np.testing.assert_allclose(link.g_inv_d1(u), fd1, rtol=1e-6)
    eps = 1e-4
    fd2 = (link.g_inv(u + eps) - 2 * link.g_inv(u) + link.g_inv(u - eps)) / eps ** 2
    np.testing.assert_allclose(link.g_inv_d2(u), fd2, rtol=1e-3)
    # closed-form cross-check: (u^{1/3})'' = -(2/9) u^{-5/3}
    np.testing.assert_allclose(link.g_inv_d2(u), -2.0 / 9.0 * u ** (-5.0 / 3.0), rtol=1e-12)


def test_natural_param_chain_derivatives():
    fam, link = ExpFamily("poisson"), LinkFunction("cube")
    u = np.array([0.5, 1.5, 4.0])
    eps = 1e-5
    fd1 = (natural_param(fam, link, u + eps) - natural_param(fam, link, u - eps)) / (2 * eps)
    np.testing.assert_allclose(natural_param_d1(fam, link, u), fd1, rtol=1e-6)
    fd2 = (natural_param(fam, link, u + eps) - 2 * natural_param(fam, link, u)
           + natural_param(fam, link, u - eps)) / eps ** 2
    np.testing.assert_allclose(natural_param_d2(fam, link, u), fd2, rtol=1e-4)


@pytest.mark.parametrize("kind", ["gaussian", "poisson", "bernoulli"])
@pytest.mark.parametrize("h", [-1.0, 0.0, 1.0])
def test_sample_moments(kind, h):
    fam = ExpFamily(kind)
    n = 100_000
    draws = fam.sample(np.full(n, h), seed=42)
    mean, var = fam.A1(h), fam.A2(h)
    sigma = np.sqrt(var / n)
    assert abs(draws.mean() - mean) < 3 * sigma + 1e-12
    # variance within a generous Monte Carlo band
    assert abs(draws.var() - var) < 0.05 * max(var, 0.1)


def test_sample_determinism():
    fam = ExpFamily("poisson")
    np.testing.assert_array_equal(fam.sample(np.zeros(10), 5), fam.sample(np.zeros(10), 5))


def test_glm_mean_identity():
    # g(E[Y|X]) = Phi(theta)(X) for the cube link on the gaussian family
    fam, link = ExpFamily("gaussian"), LinkFunction("cube")
    u = np.array([0.5, 1.0, 2.0])
    b = natural_param(fam, link, u)
    np.testing.assert_allclose(link.g(fam.A1(b)), u, atol=1e-8)


def test_unknown_kinds():
    with pytest.raises(ValueError):
        ExpFamily("gamma")
    with pytest.raises(ValueError):
        LinkFunction("probit")
