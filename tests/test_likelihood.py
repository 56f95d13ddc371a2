import functools
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import natural_param, natural_param_d1, natural_param_d2, surrogate_grad
from surrogate_langevin import expfam, forward, likelihood
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.expfam import FAMILY_KINDS, LINK_KINDS, ExpFamily, LinkFunction
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.likelihood import (CSV_BLOCK_ROWS, PROBE_BLOCK, CurvatureReport,
                                           Dataset, ModelInstance, generate_data)
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


@given(data=st.data(), n=st.integers(1, 10), kind=st.sampled_from(["regression", "density"]))
def test_dataset_rejects_non_finite_data(data, n, kind):
    # (x < 0) | (x > 1) is False at NaN, so a NaN design point and an inf
    # response were accepted, and a fit failed late at the zero start
    values = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    x, y = np.array(data.draw(values)), np.array(data.draw(values))
    field = data.draw(st.sampled_from(["x", "y"] if kind == "regression" else ["x"]))
    bad = {"x": x, "y": y}[field]
    bad[data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Dataset(kind, x, y if kind == "regression" else None, n)


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
    # the 11 finite AWKWARD_FLOATS: a Dataset rejects non-finite responses, whose
    # bytes test_write_float_csv_bytes_match_csv_writer checks
    y = awkward_floats(n, 1, 4, rows_at=range(n - 11, n))[:, 0]
    for ds, header, rows in (
            (Dataset("regression", x, y, n), ["x", "y"], zip(x, y)),
            (Dataset("density", x, None, n), ["x"], x[:, None])):
        path = tmp_path / f"{ds.kind}.csv"
        ds.save(path)
        assert path.read_bytes() == csv_writer_bytes(header, rows)


# values whose repr differs in form: signed zero, infinities, nan, the
# smallest subnormal, and the switches to exponent form at 1e16 and 1e-5
CSV_SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                                      -2.5e-310, 1e16, -1e16, 9999999999999998.0,
                                      1e-5, 0.0001, -1e-5])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_float_csv_bytes_match_csv_writer(data):
    # a block is one % format of its cells; each row must read as csv.writer
    # writes it with repr(float(v)), with and without an index, across blocks
    p = data.draw(st.integers(1, 4), label="p")
    rows = data.draw(st.sampled_from([0, 1, 3, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 2]), label="rows")
    pattern = data.draw(st.lists(CSV_SPECIAL_FLOATS | st.floats(), min_size=1, max_size=12),
                        label="pattern")
    values = np.resize(np.array(pattern), (rows, p))
    index = data.draw(st.sampled_from(["none", "range", "list"]), label="index")
    if index == "range":
        index = range(data.draw(st.integers(-5, 5)), 10 ** 9, data.draw(st.integers(1, 7)))
    elif index == "list":
        ints = data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=5))
        index = [ints[i % len(ints)] for i in range(rows)]
    else:
        index = None
    header = ["i"] * (index is not None) + [f"c{k}" for k in range(p)]
    expected = _oracles.csv_writer_bytes(header, values if index is None else
                                [[i, *row] for i, row in zip(index, values)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.csv"
        likelihood.write_float_csv(path, header, values, index=index)
        assert path.read_bytes() == expected


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
    if model.dataset.kind == "density":
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


HESS_MODELS = {
    "glm-gaussian": lambda: glm_model(),
    "glm-poisson": lambda: glm_model(family="poisson"),
    "glm-bernoulli": lambda: glm_model(family="bernoulli"),
    "glm-cube": lambda: glm_model(family="gaussian", link="cube",
                                  theta0=np.array([2.0, 0.3, 0.1])),
    "density": density_model,
    "darcy": lambda: darcy_model(p=4),
}


@functools.cache
def _hess_model(name):
    return HESS_MODELS[name]()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(HESS_MODELS)), k=st.integers(1, 12),
       scale=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2 ** 16))
def test_hess_dir_many_matches_the_composition_with_dir_hess(name, k, scale, seed):
    # v'Hv from the Hessian matrix against the per-direction composition
    # (the density model's variance of Phi(v), or r b' @ dir_hess): within
    # 1e-13 of the size |v|'|H||v| of the terms the form sums.  Measured
    # worst over 400 cases per model: 1.6e-14 for Darcy, 2.0e-15 for the rest.
    model, theta0 = _hess_model(name)
    rng = np.random.default_rng(seed)
    theta = theta0 + scale * rng.standard_normal(theta0.size)
    V = rng.standard_normal((theta0.size, k))
    try:
        want = _oracles.hess_dir_many_composed(model, theta, V)
    except FloatingPointError:  # the cube link's range left
        with pytest.raises(FloatingPointError):
            model.hess_dir_many(theta, V)
        return
    got = model.hess_dir_many(theta, V)
    terms = ((np.abs(model.hessians(theta[None])[0]) @ np.abs(V)) * np.abs(V)).sum(axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * terms)


def test_darcy_hess_dir_many_solves_one_tangent_and_one_adjoint():
    # at an already-solved theta: the p tangent columns of the Hessian in one
    # banded solve and the adjoint column in another, whatever V holds
    model, theta0 = darcy_model(p=4)
    V = np.random.default_rng(43).standard_normal((4, 12))
    model.log_lik(theta0)
    with mock.patch.object(forward, "_banded_solve", wraps=forward._banded_solve) as solve:
        model.hess_dir_many(theta0, V)
    assert [c.args[1].shape for c in solve.call_args_list] == [(64, 4), (64,)]


def test_hess_matrix_beyond_p_16():
    # no size guard: H at p = 17 and 24 is symmetric and gives
    # hess_dir_many's forms and the per-direction composition's within 1e-13
    # of the size of the terms
    for p in (17, 24):
        model, theta0 = glm_model(n=50, p=p, family="poisson")
        H = model.hessians(theta0[None])[0]
        assert H.shape == (p, p) and np.array_equal(H, H.T)
        V = np.random.default_rng(p).standard_normal((p, 2 * p))
        V = np.concatenate([V, np.eye(p)], axis=1)
        terms = ((np.abs(H) @ np.abs(V)) * np.abs(V)).sum(axis=0)
        for vals in (model.hess_dir_many(theta0, V),
                     _oracles.hess_dir_many_composed(model, theta0, V)):
            assert np.all(np.abs(((H @ V) * V).sum(axis=0) - vals) <= 1e-13 * terms)


def test_hess_matrix_polarization():
    model, theta0 = glm_model(family="bernoulli")
    H = model.hessians(theta0[None])[0]
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.standard_normal(3)
        assert float(v @ H @ v) == pytest.approx(model.hess_dir(theta0, v), rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(HESS_MODELS)), B=st.integers(2, 7),
       scale=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2 ** 16))
def test_stacked_hessian_rows_match_single_points(name, B, scale, seed):
    # row b of the (B, p, p) stack is the Hessian at point b alone, within
    # 1e-13 of its largest entry: LinearPhi and the density model form all
    # points' values with one product, which may round differently from one
    # point's (Darcy forms Phi point by point, as its conditioning needs)
    model, theta0 = _hess_model(name)
    rng = np.random.default_rng(seed)
    thetas = theta0 + scale * rng.standard_normal((B, theta0.size))
    try:
        stack = model.hessians(thetas)
    except FloatingPointError:  # the cube link's range left at some point
        return
    assert stack.shape == (B, theta0.size, theta0.size)
    for b in range(B):
        H = model.hessians(thetas[b][None])[0]
        assert np.array_equal(stack[b], stack[b].T)
        assert np.all(np.abs(stack[b] - H) <= 1e-13 * np.abs(H).max())


def _probe_cells():
    """(label, model, center, eta, n_probes, seed): one cell per preset at its
    default config, the glm-gaussian-cube cell whose probe skips points, and
    a model without data."""
    from surrogate_langevin.config import MODEL_PRESETS, ExperimentConfig
    from surrogate_langevin.experiment import build_model
    from surrogate_langevin.initializers import oracle_projection_init

    cells = []
    for preset in MODEL_PRESETS:
        cfg = ExperimentConfig(model_preset=preset, darcy_mesh=64)
        n = 300 if preset == "glm-gaussian-cube" else 150
        model, theta0 = build_model(cfg, n, cfg.p_for(n), 0)
        probes = 200 if preset == "glm-gaussian-cube" else 40
        cells.append((preset, model, oracle_projection_init(theta0, model.p),
                      cfg.eta_for(model.p), probes, 0))
    basis = BasisFamily("cosine-with-constant", 2)
    empty = Dataset("regression", np.zeros(0), np.zeros(0), 0)
    cells.append(("n=0", ModelInstance(empty, basis, ExpFamily("gaussian"),
                                       LinkFunction("canonical"), LinearPhi(basis)),
                  np.zeros(2), 0.5, 10, 0))
    return cells


@pytest.mark.parametrize("cell", _probe_cells(), ids=lambda c: c[0])
def test_curvature_probe_matches_the_per_point_oracle(cell):
    # the same generator calls and skips as the first per-point loop, and its
    # curvature range within rtol 1e-12; the probes keep more points than one
    # block of PROBE_BLOCK, and the cube cell skips some
    label, model, center, eta, n_probes, seed = cell
    lam_min, lam_max, skipped = _oracles.curvature_probe_per_point(model, center, eta,
                                                                   n_probes, seed)
    probe = model.curvature_probe(center, eta, n_probes, seed)
    assert probe.skipped == skipped
    assert (skipped > 0) == (label == "glm-gaussian-cube")
    assert label == "n=0" or n_probes - skipped > PROBE_BLOCK
    np.testing.assert_allclose([probe.lambda_min_est, probe.lambda_max_est],
                               [lam_min, lam_max], rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_probes", [PROBE_BLOCK, 37, 200])
def test_skip_free_darcy_probe_solves_each_point_once(n_probes):
    # one factorization per block of candidates, whose Hessians reuse it,
    # and one at the centre's gradient: each point's state is solved once
    model, theta0 = darcy_model(M=32)
    op = model.forward
    solved = op.states_solved
    with mock.patch.object(forward, "_factorized_operator",
                           wraps=forward._factorized_operator) as factorize:
        probe = model.curvature_probe(0.5 * theta0, 0.1, n_probes, 0)
    assert probe.skipped == 0
    assert factorize.call_count == math.ceil(n_probes / PROBE_BLOCK) + 1
    assert op.states_solved - solved == n_probes + 1


@pytest.mark.parametrize("family, link, theta0, eta", [
    ("poisson", "canonical", None, 0.1), ("gaussian", "cube", [0.6, 0.3, 0.1], 1.0)])
@pytest.mark.parametrize("n_probes", [1, PROBE_BLOCK, 37])
def test_curvature_probe_counts_its_evaluations(family, link, theta0, eta, n_probes):
    # one log_lik call per block of candidates, one row per candidate, the
    # Hessians of the kept ones and the gradient at the centre; the cube
    # probe skips the candidates outside the link's range
    model, theta0 = glm_model(n=50, family=family, link=link,
                              theta0=None if theta0 is None else np.array(theta0))
    assert (model.log_lik_calls, model.log_lik_rows) == (0, 0)
    assert (model.grad_log_lik_calls, model.hessian_points) == (0, 0)
    probe = model.curvature_probe(theta0, eta, n_probes, 3)
    assert model.log_lik_calls == math.ceil(n_probes / PROBE_BLOCK)
    assert model.log_lik_rows == n_probes
    assert model.hessian_points == n_probes - probe.skipped
    assert model.grad_log_lik_calls == 1
    if n_probes > 1:
        assert (probe.skipped > 0) == (link == "cube")


def test_darcy_states_are_keyed_on_the_bytes_of_theta():
    # a point and its one-row block share one state; a probe-sized block
    # does not evict the last point, and its Hessians right after its
    # log_lik solve nothing; values and solution give a point's column or
    # C-ordered rows; a theta of any shape but (p,) or (B, p) raises
    model, theta0 = darcy_model(p=4, M=32)
    op, x = model.forward, model.dataset.x
    rng = np.random.default_rng(11)
    point = theta0 + 0.01 * rng.standard_normal(4)
    block = theta0 + 0.01 * rng.standard_normal((PROBE_BLOCK, 4))
    solved = op.states_solved
    model.log_lik(point[None])
    model.grad_log_lik(point)
    assert op.states_solved - solved == 1
    model.log_lik(block)
    model.grad_log_lik(point)
    model.hessians(block)
    model.hessians(point[None])
    assert op.states_solved - solved == 1 + PROBE_BLOCK
    for theta in (point, point[None], block):
        u, values = op.solution(theta), op.values(theta, x)
        assert u.shape == theta.shape[:-1] + (op.M + 2,)
        assert values.shape == theta.shape[:-1] + x.shape
        assert u.flags.c_contiguous and values.flags.c_contiguous
        for row, t in zip(np.atleast_2d(values), np.atleast_2d(theta)):
            assert row.tobytes() == op.values(t.copy(), x).tobytes()
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((1, 2, 4))):
        with pytest.raises(ValueError, match="theta must"):
            op.values(bad, x)


def test_a_failing_darcy_solve_reads_as_a_non_finite_likelihood():
    # log_lik reads -inf, the gradient raises FloatingPointError (which a
    # chain's guard sees), and the probe skips such a point; a shape error is
    # still a ValueError
    model, theta0 = darcy_model(M=32)
    for theta, cause in (([35.0, 0.0, 0.0], "not positive definite"),
                         ([800.0, 0.0, 0.0], "conductivity overflow")):
        theta = np.array(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.log_lik(theta) == -np.inf
            assert model.log_lik(np.stack([theta0, theta]))[1] == -np.inf
        for grad in (model.grad_log_lik, model._grad):
            with pytest.raises(FloatingPointError, match=cause):
                grad(theta)
    solved = model.forward.states_solved
    model.log_lik(np.full((3, 3), 800.0))  # the block fails, then each row
    assert model.forward.states_solved - solved == 3 + 3
    assert model.curvature_probe(theta0, 100.0, 40, 0).skipped > 0
    for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="theta must"):
            model.log_lik(bad)


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


@pytest.mark.parametrize("family, link", [("poisson", "canonical"), ("gaussian", "cube")])
def test_linear_phi_gradients_keep_their_design_matrix(family, link):
    # a LinearPhi model binds its design matrix once, whatever the link: the
    # operator's one column-major memo, not a copy in another layout; the
    # gradient never reaches the forward operator, with the bits of the
    # gradient through it
    model, theta0 = glm_model(family=family, link=link, theta0=np.array([2.0, 0.3, 0.1]))
    E = model.forward.grad_rows(theta0, model.dataset.x)
    assert model._grad.args[0] is E and E.flags.f_contiguous
    thetas = theta0 + 0.1 * np.random.default_rng(3).standard_normal((5, 3))
    want = [likelihood._forward_grad(model.forward, model.dataset.x, model.dataset.y,
                                     model.family, model.link, t) for t in thetas]
    fail = mock.Mock(side_effect=AssertionError("forward operator reached"))
    with mock.patch.multiple(LinearPhi, _design=fail, values=fail, grad_rows=fail):
        for t, g in zip(thetas, want):
            assert model.grad_log_lik(t).tobytes() == g.tobytes()


def test_cube_block_reads_out_of_range_rows_without_a_row_by_row_pass():
    # rows with some u <= 0 read -inf and the others are one block, with the
    # bits each row gets alone; log_lik is not called again row by row
    cube, theta0 = glm_model(family="gaussian", link="cube", theta0=np.array([2.0, 0.3, 0.1]))
    block = theta0 + np.array([[0.0, 0.0, 0.0], [-4.0, 0.0, 0.0], [0.1, -0.2, 0.05],
                               [-2.0, 0.0, 0.0], [0.2, 0.1, 0.0]])
    want = [cube.log_lik(t) for t in block]
    assert np.isinf(want[1]) and np.isinf(want[3]) and np.isfinite(want).sum() == 3
    with mock.patch.object(cube, "log_lik", wraps=cube.log_lik) as log_lik:
        got = cube.log_lik(block)
    assert log_lik.call_count == 1
    assert got.tobytes() == np.array(want).tobytes()


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


def _out_of_domain(case):
    """(model, theta_init, theta) with theta outside the natural-parameter
    map's domain: the cube link's u <= 0, a bernoulli-cube mean >= 1, or a
    Darcy state that cannot be solved."""
    if case == "darcy":
        model, theta_init = darcy_model(M=32)
        return model, theta_init, np.array([35.0, 0.0, 0.0])
    family, theta_init, theta = {
        "cube": ("gaussian", [2.0, 0.3, 0.1], [-2.0, 0.0, 0.0]),
        "bernoulli-cube": ("bernoulli", [0.4, 0.1, 0.0], [3.0, 0.0, 0.0]),
    }[case]
    model, theta_init = glm_model(family=family, link="cube", theta0=np.array(theta_init))
    return model, theta_init, np.array(theta)


@pytest.mark.parametrize("case", ["cube", "bernoulli-cube", "darcy"])
def test_out_of_domain_is_one_error_on_every_path(case):
    # natural_param, natural_param_derivs (or the Darcy solve), the gradient,
    # the Hessians and the drift raise the one DomainError, a ValueError to a
    # caller and a FloatingPointError to the chain's guard; log_lik reads -inf
    assert issubclass(forward.SolveError, expfam.DomainError)
    model, theta_init, theta = _out_of_domain(case)
    x = model.dataset.x
    eta = 2.0 * float(np.linalg.norm(theta - theta_init)) + 1.0  # theta is inner
    probe = CurvatureReport(1.0, 2.0, 0.0, 1, theta_init, eta)
    spec = SurrogateSpec(model, SievePrior(1.0, model.n, 3), theta_init, eta, 30.0, probe)
    paths = [lambda: model.grad_log_lik(theta), lambda: model.hessians(theta[None]),
             lambda: surrogate_grad(spec, theta), lambda: spec.posterior_grad(theta)]
    if case == "darcy":
        paths.append(lambda: model.forward.values(theta, x))
    else:
        u = model.forward.values(theta, x)
        paths += [lambda: expfam.natural_param(model.family, model.link, u),
                  lambda: expfam.natural_param_derivs(model.family, model.link, u),
                  lambda: expfam.natural_param_derivs(model.family, model.link, u, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for path in paths:
            with pytest.raises(expfam.DomainError) as exc:
                path()
            assert isinstance(exc.value, ValueError)
            assert isinstance(exc.value, FloatingPointError)
    assert model.log_lik(theta) == spec.log_lik(theta) == -np.inf
    cfg = SamplerConfig(gamma=1e-3, j=10, guard="none")
    with pytest.raises(ChainDivergedError) as diverged:
        run_chain(spec.posterior_grad, theta, cfg)
    assert diverged.value.step == 1
    assert diverged.value.last_state.tobytes() == theta.tobytes()


@given(eta=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]))
def test_curvature_probe_rejects_a_non_finite_radius(eta):
    # a NaN eta skipped every point and read lambda = 0
    model, theta0 = glm_model(n=50)
    with pytest.raises(ValueError, match="probe radius eta must be positive"):
        model.curvature_probe(theta0, eta, 5, 0)


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
