import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from surrogate_langevin.expfam import (FAMILY_KINDS, LINK_KINDS, DomainError, ExpFamily,
                                       LinkFunction, natural_param, natural_param_derivs)


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
    # e^-40 on both tails, also where 1 - sigmoid(h) rounds to 0
    a2, a3 = b.A2(np.array([-40.0, 40.0])), b.A3(np.array([-40.0, 40.0]))
    assert a2[0] == a2[1] == pytest.approx(math.exp(-40.0), rel=1e-15)
    assert a3[0] == -a3[1] == pytest.approx(math.exp(-40.0), rel=1e-15)


def test_natural_param_examples():
    gauss, pois = ExpFamily("gaussian"), ExpFamily("poisson")
    canon, cube = LinkFunction("canonical"), LinkFunction("cube")
    assert natural_param(gauss, canon, 0.7) == pytest.approx(0.7)
    assert natural_param(pois, canon, 1.0) == pytest.approx(1.0)
    assert natural_param(gauss, cube, 8.0) == pytest.approx(2.0)


def test_cube_link_domain_error():
    with pytest.raises(ValueError, match="cube"):
        natural_param(ExpFamily("gaussian"), LinkFunction("cube"), -1.0)
    with pytest.raises(DomainError, match="value outside the range of link 'cube'"):
        LinkFunction("cube").g_inv(np.array([1.0, 0.0]))


@pytest.mark.parametrize("method", ["g_inv"])
def test_canonical_link_maps_are_family_dependent(method):
    # the canonical inverse link is (A')^{-1}'s inverse, which depends on the
    # family: natural_param_derivs handles it, the link alone must not answer
    # (g_inv used to return the cube link's cbrt, so g_inv(8.0) was 2.0)
    with pytest.raises(ValueError, match=f"canonical link's {method} is family-dependent"):
        getattr(LinkFunction("canonical"), method)(8.0)
    assert natural_param(ExpFamily("poisson"), LinkFunction("canonical"), 8.0) == 8.0


def test_cube_link_roundtrip_and_derivatives():
    link = LinkFunction("cube")
    u = np.array([0.5, 1.0, 8.0, 27.0])
    np.testing.assert_allclose(link.g_inv(u) ** 3, u, rtol=1e-10)
    # for the gaussian family b is g^{-1} itself, so (b', b'') = (g^{-1}', g^{-1}'')
    _, d1, d2 = natural_param_derivs(ExpFamily("gaussian"), link, u)
    eps = 1e-6
    fd1 = (link.g_inv(u + eps) - link.g_inv(u - eps)) / (2 * eps)
    np.testing.assert_allclose(d1, fd1, rtol=1e-6)
    eps = 1e-4
    fd2 = (link.g_inv(u + eps) - 2 * link.g_inv(u) + link.g_inv(u - eps)) / eps ** 2
    np.testing.assert_allclose(d2, fd2, rtol=1e-3)
    # closed-form cross-check: (u^{1/3})'' = -(2/9) u^{-5/3}
    np.testing.assert_allclose(d2, -2.0 / 9.0 * u ** (-5.0 / 3.0), rtol=1e-12)


def test_natural_param_chain_derivatives():
    fam, link = ExpFamily("poisson"), LinkFunction("cube")
    u = np.array([0.5, 1.5, 4.0])
    _, d1, d2 = natural_param_derivs(fam, link, u)
    eps = 1e-5
    fd1 = (natural_param(fam, link, u + eps) - natural_param(fam, link, u - eps)) / (2 * eps)
    np.testing.assert_allclose(d1, fd1, rtol=1e-6)
    fd2 = (natural_param(fam, link, u + eps) - 2 * natural_param(fam, link, u)
           + natural_param(fam, link, u - eps)) / eps ** 2
    np.testing.assert_allclose(d2, fd2, rtol=1e-4)


def test_natural_param_warns_nothing_where_its_derivatives_do_not_fit():
    # b' and b'' divide by 9 u^2, which underflows to 0 at u = 1e-170 and
    # overflows at u = 1e160; b alone is finite there and comes without a
    # warning
    u = np.array([1e-170, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = natural_param(ExpFamily("gaussian"), LinkFunction("cube"), u)
    assert b.tobytes() == np.cbrt(u).tobytes()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.0, 8.0]


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILY_KINDS), link=st.sampled_from(LINK_KINDS),
       u=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=6))
def test_natural_param_is_the_first_of_its_derivs(family, link, u):
    # natural_param gives the bits of natural_param_derivs(...)[0] for every
    # family and link, and both raise DomainError outside the range
    fam, lk, u = ExpFamily(family), LinkFunction(link), np.array(u)
    with np.errstate(all="ignore"):
        try:
            want = natural_param_derivs(fam, lk, u)[0]
        except DomainError:
            with pytest.raises(DomainError):
                natural_param(fam, lk, u)
            return
        got = natural_param(fam, lk, u)
    assert not (link == "cube" and (u <= 0).any())
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _bits(value, shape):
    return np.broadcast_to(np.asarray(value, dtype=float), shape).tobytes()


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILY_KINDS), link=st.sampled_from(LINK_KINDS), data=st.data())
def test_natural_param_derivs_keeps_the_first_bits(family, link, data):
    # (b, b', b''), and (b, b') for order=1, from one g^{-1} and one
    # (A')^{-1} against the three maps as first written, each redoing both,
    # for every family and link
    fam, lk = ExpFamily(family), LinkFunction(link)
    if link == "canonical":
        floats = st.floats(-700.0, 700.0)
    elif family == "bernoulli":  # the cube root must be a mean in (0, 1)
        floats = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    else:
        floats = st.floats(0.0, 1e300, exclude_min=True)
    u = np.array(data.draw(st.lists(floats, min_size=1, max_size=6)))
    with np.errstate(all="ignore"):
        try:
            want = tuple(f(fam, lk, u) for f in (_oracles.natural_param, _oracles.natural_param_d1,
                                                 _oracles.natural_param_d2))
        except ValueError:  # cbrt(u) rounds to 1.0: no bernoulli mean
            with pytest.raises(ValueError):
                natural_param_derivs(fam, lk, u)
            return
        got = natural_param_derivs(fam, lk, u)
        got1 = natural_param_derivs(fam, lk, u, order=1)
        b = natural_param(fam, lk, u)
    assert [_bits(x, u.shape) for x in got[:2]] == [_bits(x, u.shape) for x in want[:2]]
    # b'' keeps its bits wherever the first form's is finite; below u ~ 1e-162
    # the gaussian's read -inf (9u^2 rounded to 0) or NaN (inf * A3 = inf * 0),
    # see test_cube_link_derivs_are_silent_and_never_nan
    b2, want2 = (np.broadcast_to(np.asarray(x, dtype=float), u.shape) for x in (got[2], want[2]))
    finite = np.isfinite(want2)
    assert b2[finite].tobytes() == want2[finite].tobytes()
    assert [_bits(x, u.shape) for x in got1] == [_bits(x, u.shape) for x in want[:2]]
    assert _bits(b, u.shape) == _bits(want[0], u.shape)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("method", ["A", "A1", "A2", "A3", "A1_inv"])
def test_family_maps_of_a_float_are_0d(kind, method):
    # a float gives a 0-d result with the bits of the 1-element array result
    f = getattr(ExpFamily(kind), method)
    for x in ((0.3,) if method == "A1_inv" else (0.3, -1.7, 0.0)):
        got = f(x)
        assert np.ndim(got) == 0
        assert np.float64(got).tobytes() == f(np.array([x])).tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(h=FINITE)
def test_bernoulli_curvature_is_symmetric_and_positive(h):
    # A2 = e/(1+e)^2 and A3 = -sign(h) e(1-e)/(1+e)^3 with e = exp(-|h|):
    # even and odd to the bit, and A2 > 0 as long as e is a normal float
    fam = ExpFamily("bernoulli")
    assert fam.A2(h) == fam.A2(-h)
    assert fam.A3(h) == -fam.A3(-h)
    if math.exp(-abs(h)) >= sys.float_info.min:
        assert fam.A2(h) > 0.0


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), h=FINITE)
def test_family_maps_overflow_to_inf_never_nan(kind, h):
    # exp(h) and h^2/2 overflow to inf for large finite h; no map gives NaN
    fam = ExpFamily(kind)
    for method in (fam.A, fam.A1, fam.A2, fam.A3):
        assert not np.isnan(method(h))


BERNOULLI_MEANS = st.floats(1e-300, 1.0 - 2.0 ** -53)


def _bernoulli_cube_derivs_extended(u):
    """(b', b'') of b = logit(u^{1/3}) in extended precision, whose exponent
    range holds the values beyond the float maximum:
    b' = 1/(3u(1 - m)) and b'' = -1/(3u^2(1 - m)) + 1/(9u^{5/3}(1 - m)^2)."""
    u = np.longdouble(u)
    m = np.cbrt(u)
    return (1 / (3 * u * (1 - m)),
            -1 / (3 * u * u * (1 - m)) + 1 / (9 * u * u / m * (1 - m) ** 2))


@settings(max_examples=300, deadline=None)
@given(mean=BERNOULLI_MEANS)
@example(mean=1e-300)
@example(mean=1.0 - 2.0 ** -53)
def test_bernoulli_mean_maps_are_finite_silent_and_round_trip(mean):
    # A1_inv at any mean in [1e-300, 1 - 2^-53], and the cube link's
    # natural_param_derivs at u = mean^3, warn of nothing.  Both give a
    # finite b that A1 maps back to the mean (the cube root of u for the
    # link) within the rounding of b times its size; the link's b' and b''
    # are finite wherever their exact values are below half the float
    # maximum, and never NaN.  u = mean^3 rounds to 0 below about 1.7e-108,
    # and its cube root to 1.0 next to 1: those u lie outside the link's
    # range, and the call raises ValueError.
    fam, cube = ExpFamily("bernoulli"), LinkFunction("cube")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = fam.A1_inv(mean)
        assert math.isfinite(b)
        assert abs(fam.A1(b) - mean) <= 4e-16 * (1.0 + abs(b)) * mean
        u = mean ** 3
        link_mean = np.cbrt(u)
        if not 0.0 < link_mean < 1.0:
            with pytest.raises(ValueError, match="cube|bernoulli"):
                natural_param_derivs(fam, cube, u)
            return
        b, b1, b2 = natural_param_derivs(fam, cube, u)
    assert math.isfinite(b)
    assert abs(fam.A1(b) - link_mean) <= 4e-16 * (1.0 + abs(b)) * link_mean
    for got, exact in zip((b1, b2), _bernoulli_cube_derivs_extended(u)):
        assert not math.isnan(got)
        if abs(exact) <= sys.float_info.max / 2:
            assert math.isfinite(got)


def _cube_derivs_extended(kind, u):
    """(b', b'') of the cube link's b in extended precision: gaussian
    b = u^{1/3}, poisson b = log(u)/3, bernoulli b = logit(u^{1/3})."""
    if kind == "bernoulli":
        return _bernoulli_cube_derivs_extended(u)
    u = np.longdouble(u)
    if kind == "gaussian":
        c = np.cbrt(u)
        return 1 / (3 * c * c), -2 / (9 * u * c * c)
    return 1 / (3 * u), -1 / (3 * u * u)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), u=st.floats(1e-300, 1e300))
@example(kind="gaussian", u=1e-240)  # (g^{-1})'^2 overflows against A3 = 0
@example(kind="gaussian", u=1e-170)  # 9u^2 rounds to 0
@example(kind="gaussian", u=1e-160)  # 9u^2 is subnormal
@example(kind="poisson", u=1e-300)
@example(kind="bernoulli", u=1.0)
def test_cube_link_derivs_are_silent_and_never_nan(kind, u):
    # natural_param_derivs of every family with the cube link at any u in
    # [1e-300, 1e300] warns of nothing and gives a finite b; b' and b'' are
    # never NaN, and +-inf only where their exact values exceed half the
    # float maximum.  Bernoulli means end at 1: u whose cube root is not
    # below 1 raise ValueError
    fam, cube = ExpFamily(kind), LinkFunction("cube")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "bernoulli" and not np.cbrt(u) < 1.0:
            with pytest.raises(ValueError, match="bernoulli"):
                natural_param_derivs(fam, cube, u)
            return
        b, b1, b2 = natural_param_derivs(fam, cube, u)
    assert math.isfinite(b)
    for got, exact in zip((b1, b2), _cube_derivs_extended(kind, u)):
        assert not math.isnan(got)
        if abs(exact) <= sys.float_info.max / 2:
            assert math.isfinite(got)


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
    np.testing.assert_allclose(fam.A1(b) ** 3, u, atol=1e-8)


def test_unknown_kinds():
    with pytest.raises(ValueError):
        ExpFamily("gamma")
    with pytest.raises(ValueError):
        LinkFunction("probit")
