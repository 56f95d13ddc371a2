import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.expfam import (FAMILY_KINDS, LINK_KINDS, ExpFamily, LinkFunction,
                                       natural_param, natural_param_d1, natural_param_d2)
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.likelihood import (CSV_BLOCK_ROWS, CurvatureReport, Dataset,
                                           ModelInstance, generate_data)
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.sampler import ChainDivergedError, SamplerConfig, run_chain
from surrogate_langevin.surrogate import SurrogateSpec


def glm_model(n=200, p=3, family="gaussian", link="canonical", seed=0, theta0=None):
    basis = BasisFamily("cosine-with-constant", p)
    if theta0 is None:
        theta0 = 0.5 * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily(family), LinkFunction(link)
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk)
    return ModelInstance(ds, basis, fam, lk, LinearPhi(basis)), theta0


def density_model(n=500, p=4, seed=0, theta0=None):
    basis = BasisFamily("cosine-centered", p)
    if theta0 is None:
        theta0 = 0.4 * np.arange(1, p + 1, dtype=float) ** -2
    ds = generate_data(basis, theta0, n, seed, kind="density")
    return ModelInstance(ds, basis, None, None, None), theta0


def darcy_model(n=100, p=3, seed=0, M=64):
    basis = BasisFamily("dirichlet-sine", p)
    theta0 = 0.4 * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily("gaussian"), LinkFunction("canonical")
    op = Darcy1D(basis, M=M)
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk, forward=op)
    return ModelInstance(ds, basis, fam, lk, op), theta0


# -- data generation ----------------------------------------------------------

def test_generate_gaussian_zero_truth():
    basis = BasisFamily("cosine-with-constant", 2)
    ds = generate_data(basis, np.zeros(2), 50_000, 1,
                       family=ExpFamily("gaussian"), link=LinkFunction("canonical"))
    assert abs(ds.y.mean()) < 3.0 / np.sqrt(50_000)


def test_generate_poisson_constant_mean():
    basis = BasisFamily("cosine-with-constant", 1)
    ds = generate_data(basis, np.array([0.5]), 50_000, 2,
                       family=ExpFamily("poisson"), link=LinkFunction("canonical"))
    mean = np.exp(0.5)
    sigma = np.sqrt(mean / 50_000)
    assert abs(ds.y.mean() - mean) < 3 * sigma


def test_generate_density_uniform_ks():
    basis = BasisFamily("cosine-centered", 3)
    ds = generate_data(basis, np.zeros(3), 10_000, 3, kind="density")
    xs = np.sort(ds.x)
    ks = np.max(np.abs(xs - (np.arange(1, 10_001)) / 10_000.0))
    assert ks < 1.63 / np.sqrt(10_000)  # 1% critical value


def test_generate_poisson_overflow_error():
    basis = BasisFamily("cosine-with-constant", 1)
    with pytest.raises(ValueError):
        generate_data(basis, np.array([800.0]), 10, 0,
                      family=ExpFamily("poisson"), link=LinkFunction("canonical"))


def test_generate_determinism():
    basis = BasisFamily("cosine-with-constant", 2)
    a = generate_data(basis, np.array([0.5, 0.1]), 100, 9,
                      family=ExpFamily("bernoulli"), link=LinkFunction("canonical"))
    b = generate_data(basis, np.array([0.5, 0.1]), 100, 9,
                      family=ExpFamily("bernoulli"), link=LinkFunction("canonical"))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_dataset_save_load_roundtrip(tmp_path):
    model, theta0 = glm_model(n=20)
    path = tmp_path / "data.csv"
    model.dataset.save(path)
    loaded = Dataset.load(path)
    np.testing.assert_array_equal(loaded.x, model.dataset.x)
    np.testing.assert_array_equal(loaded.y, model.dataset.y)
    np.testing.assert_array_equal(loaded.truth_theta0, theta0)


def test_dataset_rejects_an_unknown_kind(tmp_path):
    # a ModelInstance took any kind but "density" for regression, with y = None
    with pytest.raises(ValueError, match="unknown data kind 'foo'"):
        Dataset("foo", np.zeros(3), None, 3)
    model, _ = glm_model(n=20)
    path = tmp_path / "data.csv"
    model.dataset.save(path)
    meta = path.with_suffix(".csv.meta.json")
    meta.write_text(meta.read_text().replace('"regression"', '"Regression"'))
    with pytest.raises(ValueError, match="unknown data kind 'Regression'"):
        Dataset.load(path)


def test_dataset_save_bytes_match_csv_writer(tmp_path):
    from _oracles import awkward_floats, csv_writer_bytes

    n = CSV_BLOCK_ROWS + 7
    x = np.random.default_rng(3).random(n)
    x[:6] = [-0.0, 0.0, 5e-324, 2.5e-310, 1.0, 0.5]
    y = awkward_floats(n, 1, 4, rows_at=range(n - 14, n))[:, 0]
    for ds, header, rows in (
            (Dataset("regression", x, y, n), ["x", "y"], zip(x, y)),
            (Dataset("density", x, None, n), ["x"], x[:, None])):
        path = tmp_path / f"{ds.kind}.csv"
        ds.save(path)
        assert path.read_bytes() == csv_writer_bytes(header, rows)


@settings(max_examples=60)
@given(kind=st.sampled_from(["regression", "density"]), data=st.data())
def test_dataset_save_load_roundtrip_any_size(kind, data):
    # n = 0 saves a header-only CSV, which must load back as empty data
    n = data.draw(st.sampled_from([0, 1]) | st.integers(2, 12), label="n")
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="x")
    y = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n), label="y")
    theta0 = data.draw(st.none() | st.lists(st.floats(allow_nan=False), max_size=4))
    ds = Dataset(kind, x, y if kind == "regression" else None, n,
                 None if theta0 is None else np.array(theta0),
                 data.draw(st.none() | st.integers(0, 2 ** 32)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        ds.save(path)
        loaded = Dataset.load(path)
    assert (loaded.kind, loaded.n, loaded.seed) == (kind, n, ds.seed)
    assert loaded.x.shape == (n,) and np.array_equal(loaded.x, ds.x)
    assert np.array_equal(np.signbit(loaded.x), np.signbit(ds.x))
    if kind == "regression":
        assert loaded.y.shape == (n,) and np.array_equal(loaded.y, ds.y)
    else:
        assert loaded.y is None
    if theta0 is None:
        assert loaded.truth_theta0 is None
    else:
        assert np.array_equal(loaded.truth_theta0, ds.truth_theta0)


# -- log-likelihood values ----------------------------------------------------

def test_gaussian_single_datum_maximum():
    basis = BasisFamily("cosine-with-constant", 1)
    y = 1.7
    ds = Dataset("regression", np.array([0.3]), np.array([y]), 1)
    model = ModelInstance(ds, basis, ExpFamily("gaussian"), LinkFunction("canonical"),
                          LinearPhi(basis))
    assert model.log_lik(np.array([y])) == pytest.approx(y ** 2 / 2.0, abs=1e-12)


def test_density_loglik_zero_theta():
    model, _ = density_model()
    assert model.log_lik(np.zeros(4)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("builder", [glm_model, density_model])
def test_gradient_theorem_line_integral(builder):
    model, theta0 = builder()
    rng = np.random.default_rng(5)
    p = theta0.size
    a = theta0 + 0.1 * rng.standard_normal(p)
    b = theta0 + 0.1 * rng.standard_normal(p)
    # 20-point Gauss-Legendre along the segment
    z, w = np.polynomial.legendre.leggauss(20)
    ts = 0.5 * (z + 1.0)
    integral = 0.0
    for t, wt in zip(ts, w):
        integral += 0.5 * wt * float(model.grad_log_lik(a + t * (b - a)) @ (b - a))
    diff = model.log_lik(b) - model.log_lik(a)
    assert integral == pytest.approx(diff, rel=1e-6)


# -- gradients ----------------------------------------------------------------

@pytest.mark.parametrize("builder", [
    glm_model,
    lambda: glm_model(family="poisson"),
    lambda: glm_model(family="bernoulli"),
    lambda: glm_model(family="gaussian", link="cube",
                      theta0=np.array([2.0, 0.3, 0.1])),
    density_model,
])
def test_grad_matches_fd(builder):
    model, theta0 = builder()
    rng = np.random.default_rng(11)
    p = theta0.size
    for _ in range(20):
        theta = theta0 + 0.05 * rng.standard_normal(p)
        g = model.grad_log_lik(theta)
        eps = 1e-6
        fd = np.empty(p)
        for k in range(p):
            e = np.zeros(p)
            e[k] = eps
            fd[k] = (model.log_lik(theta + e) - model.log_lik(theta - e)) / (2 * eps)
        assert np.max(np.abs(g - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)


def test_density_grad_at_zero():
    model, _ = density_model()
    g = model.grad_log_lik(np.zeros(4))
    expected = model.basis.design_matrix(model.dataset.x).sum(axis=0)
    np.testing.assert_allclose(g, expected, atol=1e-8)


def test_grad_vanishes_at_ascent_maximum():
    model, theta0 = glm_model(n=500)
    from surrogate_langevin.initializers import pilot_ascent_init
    from surrogate_langevin.prior import SievePrior

    # flat-prior surrogate: use a very weak prior so the mode is near the MLE
    prior = SievePrior(1.0, 1, 3)
    theta, _ = pilot_ascent_init(model, prior, steps=4000)
    assert np.linalg.norm(model.grad_log_lik(theta) + prior.grad_log_density(theta)) <= 1e-6


# -- directional Hessians -----------------------------------------------------

def test_gaussian_hess_closed_form():
    model, theta0 = glm_model()
    rng = np.random.default_rng(13)
    E = model.basis.design_matrix(model.dataset.x)
    for _ in range(5):
        theta = theta0 + 0.1 * rng.standard_normal(3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        expected = -float(np.sum((E @ v) ** 2))
        assert model.hess_dir(theta, v) == pytest.approx(expected, rel=1e-10)
        assert model.hess_dir(theta, v) <= 0


def test_density_hess_unit_direction_at_zero():
    model, _ = density_model(n=700)
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        assert model.hess_dir(np.zeros(4), v) == pytest.approx(-700.0, rel=1e-8)


@pytest.mark.parametrize("builder", [
    lambda: glm_model(family="poisson"),
    lambda: glm_model(family="gaussian", link="cube",
                      theta0=np.array([2.0, 0.3, 0.1])),
    density_model,
])
def test_hess_dir_matches_fd(builder):
    model, theta0 = builder()
    rng = np.random.default_rng(17)
    p = theta0.size
    for _ in range(20):
        theta = theta0 + 0.05 * rng.standard_normal(p)
        v = rng.standard_normal(p)
        v /= np.linalg.norm(v)
        eps = 1e-4
        fd = (model.log_lik(theta + eps * v) - 2 * model.log_lik(theta)
              + model.log_lik(theta - eps * v)) / eps ** 2
        assert model.hess_dir(theta, v) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _hess_dir_reference(model, theta, v):
    """v' hess l_n(theta) v for one direction, by the per-direction formulas."""
    if model.kind == "density":
        E_quad = model.basis.design_matrix(model._qx)
        phi_quad = E_quad @ theta
        p_quad = np.exp(phi_quad) / np.sum(model._qw * np.exp(phi_quad))
        phiv = E_quad @ v
        mean = np.sum(model._qw * phiv * p_quad)
        return -model.n * np.sum(model._qw * (phiv - mean) ** 2 * p_quad)
    fam, link, x = model.family, model.link, model.dataset.x
    u = model.forward.values(theta, x)
    b = natural_param(fam, link, u)
    gu = model.forward.dir_grad(theta, v, x)
    hu = model.forward.dir_hess(theta, v, x)
    q1 = natural_param_d1(fam, link, u)
    q2 = natural_param_d2(fam, link, u)
    d2b = q2 * gu ** 2 + q1 * hu
    return np.sum((model.dataset.y - fam.A1(b)) * d2b - fam.A2(b) * (q1 * gu) ** 2)


def test_hess_dir_many_matches_loop():
    rng = np.random.default_rng(19)
    for builder in (lambda: glm_model(family="poisson"),
                    lambda: glm_model(family="gaussian", link="cube",
                                      theta0=np.array([2.0, 0.3, 0.1])),
                    density_model, darcy_model):
        model, theta0 = builder()
        V = rng.standard_normal((theta0.size, 8))
        vals = model.hess_dir_many(theta0, V)
        assert vals.shape == (8,)
        for j in range(8):
            expected = _hess_dir_reference(model, theta0, V[:, j])
            assert vals[j] == pytest.approx(expected, rel=1e-10)
            assert model.hess_dir(theta0, V[:, j]) == pytest.approx(expected, rel=1e-10)


def test_hess_matrix_size_guard():
    model, theta0 = glm_model(n=50, p=16)
    H = model.hess_matrix(theta0)
    assert H.shape == (16, 16) and np.array_equal(H, H.T)
    model17, theta17 = glm_model(n=50, p=17)
    with pytest.raises(ValueError, match="p <= 16"):
        model17.hess_matrix(theta17)


def test_hess_matrix_polarization():
    model, theta0 = glm_model(family="bernoulli")
    H = model.hess_matrix(theta0)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(3)
        assert float(v @ H @ v) == pytest.approx(model.hess_dir(theta0, v), rel=1e-8)


def test_density_hessian_negative_semidefinite():
    model, theta0 = density_model()
    rng = np.random.default_rng(29)
    for _ in range(50):
        theta = theta0 + 0.3 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert model.hess_dir(theta, v) <= 1e-10


def test_canonical_linear_concavity():
    for family in ("gaussian", "poisson", "bernoulli"):
        model, theta0 = glm_model(family=family)
        rng = np.random.default_rng(31)
        for _ in range(30):
            theta = theta0 + 0.3 * rng.standard_normal(3)
            v = rng.standard_normal(3)
            assert model.hess_dir(theta, v) <= 1e-10


def test_poisson_lipschitz_growth():
    model, _ = glm_model(family="poisson", n=300, theta0=np.array([0.2, 0.1, 0.05]))
    probe0 = model.curvature_probe(np.zeros(3), 0.25, 50, 7)
    center3 = np.array([3.0, 0.0, 0.0])
    probe3 = model.curvature_probe(center3, 0.25, 50, 7)
    assert probe3.lambda_max_est >= 5.0 * probe0.lambda_max_est


# -- curvature probe ----------------------------------------------------------

def test_probe_positive_curvature_gaussian():
    model, theta0 = glm_model(n=1000, p=4, theta0=0.5 * np.arange(1, 5.0) ** -2)
    probe = model.curvature_probe(theta0, 0.5, 100, 0)
    assert probe.lambda_min_est > 0
    assert probe.lambda_min_est <= probe.lambda_max_est
    assert np.isfinite(probe.grad_norm_at_center)


def test_probe_density_scale():
    model, theta0 = density_model(n=1000)
    probe = model.curvature_probe(np.zeros(4), 0.1, 50, 1)
    assert 0.5 * 1000 <= probe.lambda_min_est
    assert probe.lambda_max_est <= 2.0 * 1000


def test_probe_zero_data():
    basis = BasisFamily("cosine-with-constant", 2)
    ds = Dataset("regression", np.zeros(0), np.zeros(0), 0)
    model = ModelInstance(ds, basis, ExpFamily("gaussian"), LinkFunction("canonical"),
                          LinearPhi(basis))
    probe = model.curvature_probe(np.zeros(2), 0.5, 10, 0)
    assert probe.lambda_min_est == probe.lambda_max_est == probe.grad_norm_at_center == 0.0


@given(model_kind=st.sampled_from([(f, lk) for f in FAMILY_KINDS for lk in LINK_KINDS]
                                   + [("density", None)]),
       data=st.data())
def test_empty_data_likelihood_is_zero(model_kind, data):
    family, link = model_kind
    p = data.draw(st.integers(1, 6), label="p")
    k = data.draw(st.integers(1, 5), label="k")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    theta = np.array(data.draw(st.lists(finite, min_size=p, max_size=p), label="theta"))
    V = np.array(data.draw(st.lists(finite, min_size=p * k, max_size=p * k),
                           label="V")).reshape(p, k)
    if family == "density":
        basis = BasisFamily("cosine-centered", p)
        model = ModelInstance(Dataset("density", np.zeros(0), None, 0), basis, None, None, None)
    else:
        basis = BasisFamily("cosine-with-constant", p)
        model = ModelInstance(Dataset("regression", np.zeros(0), np.zeros(0), 0), basis,
                              ExpFamily(family), LinkFunction(link), LinearPhi(basis))
    assert model.log_lik(theta) == 0.0
    grad = model.grad_log_lik(theta)
    assert grad.shape == (p,) and np.array_equal(grad, np.zeros(p))
    hess = model.hess_dir_many(theta, V)
    assert hess.shape == (k,) and np.array_equal(hess, np.zeros(k))


# -- darcy regression end to end ---------------------------------------------

def test_darcy_grad_and_hess_fd():
    model, theta0 = darcy_model()
    rng = np.random.default_rng(37)
    for _ in range(5):
        theta = theta0 + 0.05 * rng.standard_normal(3)
        g = model.grad_log_lik(theta)
        eps = 1e-6
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd[k] = (model.log_lik(theta + e) - model.log_lik(theta - e)) / (2 * eps)
        np.testing.assert_allclose(g, fd, rtol=2e-5, atol=1e-6)


def test_loglik_minus_inf_sentinel():
    overflow, _ = glm_model(family="poisson", n=50)
    assert overflow.log_lik(np.array([900.0, 0.0, 0.0])) == -np.inf
    # outside the link's range (u <= 0 for the cube link)
    cube, _ = glm_model(family="gaussian", link="cube", theta0=np.array([2.0, 0.3, 0.1]))
    assert cube.log_lik(np.array([-2.0, 0.0, 0.0])) == -np.inf


def test_cube_link_outside_its_range_raises_floating_point_error():
    # log_lik is -inf where u <= 0; the gradient and the directional Hessian
    # raise the error the sampler treats as a non-finite drift
    cube, _ = glm_model(family="gaussian", link="cube", theta0=np.array([2.0, 0.3, 0.1]))
    theta = np.array([-2.0, 0.0, 0.0])
    with pytest.raises(FloatingPointError, match="cube"):
        cube.grad_log_lik(theta)
    with pytest.raises(FloatingPointError, match="cube"):
        cube.hess_dir_many(theta, np.eye(3))
    with pytest.raises(FloatingPointError, match="cube"):
        cube.hess_dir(theta, np.ones(3))


def test_grad_log_lik_sets_its_own_error_state():
    # exp(900) overflows: a direct call raises without a numpy warning, as the
    # body does under run_chain's error state
    model, _ = glm_model(family="poisson", n=50)
    theta = np.array([900.0, 0.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError, match="non-finite likelihood gradient"):
            model.grad_log_lik(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite likelihood gradient"):
                model._grad(theta)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("guard", ["none", "reflect"])
def test_cube_link_chain_leaving_the_range_diverges(guard):
    # u = 0.3 + 0.2 sqrt(2) cos(pi x) > 0 at theta_init, and a chain in the
    # exact-likelihood ball leaves the link's range within a few steps: it
    # ends as diverged, after the reflect guard's retry, not with a ValueError
    theta_init = np.array([0.3, 0.2])
    model, _ = glm_model(n=200, p=2, link="cube", theta0=theta_init)
    probe = CurvatureReport(1.0, 2.0, 0.0, 1, theta_init, 0.5)
    spec = SurrogateSpec(model, SievePrior(1.0, 200, 2), theta_init, 0.5, 30.0, probe)
    cfg = SamplerConfig(gamma=1e-3, j=200, seed=0, guard=guard, guard_radius=1.0)
    with pytest.raises(ChainDivergedError) as exc:
        run_chain(spec.posterior_grad, theta_init, cfg)
    assert exc.value.step < 200
    assert spec.drift_calls["annulus"] == spec.drift_calls["far"] == 0


def test_darcy_block_directions():
    model, theta0 = darcy_model(p=4)
    op, x = model.forward, model.dataset.x
    theta = theta0 + 0.1
    V = np.random.default_rng(41).standard_normal((4, 6))
    G, H = op.dir_grad(theta, V, x), op.dir_hess(theta, V, x)
    assert G.shape == H.shape == (x.size, 6)
    for j in range(6):
        np.testing.assert_allclose(G[:, j], op.dir_grad(theta, V[:, j], x), rtol=1e-12)
        np.testing.assert_allclose(H[:, j], op.dir_hess(theta, V[:, j], x), rtol=1e-12)
    # the likelihood gradient (and so every pilot ascent) is built on these bits
    stacked = np.stack([op.dir_grad(theta, e, x) for e in np.eye(4)], axis=1)
    np.testing.assert_array_equal(op.grad_rows(theta, x), stacked)
    with pytest.raises(ValueError, match="basis"):
        ModelInstance(model.dataset, BasisFamily("dirichlet-sine", 3), model.family,
                      model.link, op)


@settings(max_examples=50, deadline=None)
@given(direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0]), n=st.sampled_from([1, 37, 500]))
def test_density_reductions_match_the_np_formula(direction, scale, n):
    # the log-partition and log_lik reduce with ndarray methods; the bits are
    # those of np.max / np.sum.  Near theta = 0 the partition sum is close to
    # 1, where its log keeps a change in the sum's last bit.
    model, _ = density_model(n=n)
    theta = scale * np.asarray(direction)
    phi_quad = model._E_quad @ theta
    mx = np.max(phi_quad)
    log_z = mx + np.log(np.sum(model._qw * np.exp(phi_quad - mx)))
    ll = float(np.sum(model._E_data @ theta) - model.n * log_z)
    grad = model._grad_data_const - model.n * (
        model._E_quad.T @ (model._qw * np.exp(phi_quad - log_z)))
    assert np.float64(model.log_lik(theta)).tobytes() == np.float64(ll).tobytes()
    assert model.grad_log_lik(theta).tobytes() == grad.tobytes()


@settings(max_examples=30, deadline=None)
@given(theta=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       family=st.sampled_from(FAMILY_KINDS))
def test_regression_log_lik_matches_the_np_formula(theta, family):
    model, _ = glm_model(family=family, n=150)
    theta = np.asarray(theta)
    b = natural_param(model.family, model.link, model.forward.values(theta, model.dataset.x))
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(model.dataset.y * b - model.family.A(b))
    expected = float(total) if np.isfinite(total) else -np.inf
    assert np.float64(model.log_lik(theta)).tobytes() == np.float64(expected).tobytes()
