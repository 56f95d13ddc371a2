import inspect
from unittest import mock

import numpy as np
import pytest

from surrogate_langevin import estimator
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.config import ConfigValidationError
from surrogate_langevin.estimator import LangevinGLMRegressor
from surrogate_langevin.expfam import ExpFamily, LinkFunction
from surrogate_langevin.likelihood import generate_data


def make_data(n=400, p=3, family="gaussian", seed=0, scale=0.8):
    basis = BasisFamily("cosine-with-constant", p)
    theta0 = scale * np.arange(1, p + 1, dtype=float) ** -2
    ds = generate_data(basis, theta0, n, seed, family=ExpFamily(family),
                       link=LinkFunction("canonical"))
    return ds.x, ds.y, theta0, basis


def test_params_roundtrip():
    est = LangevinGLMRegressor(p=5, j=1000)
    params = est.get_params()
    assert params["p"] == 5 and params["j"] == 1000
    est.set_params(p=3, seed=7)
    assert est.p == 3 and est.seed == 7
    with pytest.raises(ValueError):
        est.set_params(nonsense=1)


def test_every_constructor_parameter_round_trips():
    names = list(inspect.signature(LangevinGLMRegressor.__init__).parameters)[1:]
    assert len(names) == 12 and names[0] == "p" and names[-1] == "seed"
    assert list(LangevinGLMRegressor().get_params()) == names
    values = {name: object() for name in names}  # a distinct value per parameter
    assert LangevinGLMRegressor(**values).get_params() == values
    assert LangevinGLMRegressor().set_params(**values).get_params() == values
    # methods and fitted attributes are not parameters
    for name in ("fit", "posterior_mean_"):
        with pytest.raises(ValueError, match=name):
            LangevinGLMRegressor().set_params(**{name: 1})


def test_fit_rejects_step_above_bound():
    x, y, _, _ = make_data(n=50, p=2)
    with pytest.raises(ConfigValidationError):
        LangevinGLMRegressor(p=2, gamma_fraction=1.5).fit(x, y)


def test_fit_rejects_the_cube_link_before_any_work():
    # fit starts pilot ascent at theta = 0, where u = 0 is outside the cube
    # link's range: it must say so before building a config, data or model
    x, y, _, _ = make_data(n=50, p=2)
    with mock.patch.object(estimator, "ExperimentConfig", side_effect=AssertionError), \
            mock.patch.object(estimator, "ModelInstance", side_effect=AssertionError):
        with pytest.raises(ValueError, match="cube"):
            LangevinGLMRegressor(p=2, link="cube").fit(x, y)
    est = LangevinGLMRegressor(p=2, link="cube")
    with pytest.raises(ValueError, match="u > 0"):
        est.fit(x, y)
    assert not hasattr(est, "model_")


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        LangevinGLMRegressor().predict([0.5])


def test_fit_recovers_signal_gaussian():
    x, y, theta0, basis = make_data(n=600, p=3, seed=1)
    est = LangevinGLMRegressor(p=3, j=20_000, seed=1, epsilon=3.0).fit(x, y)
    assert np.linalg.norm(est.posterior_mean_ - theta0) < 0.2
    grid = np.linspace(0.0, 1.0, 50)
    truth = basis.design_matrix(grid) @ theta0
    pred = est.predict(grid)
    assert np.max(np.abs(pred - truth)) < 0.3
    # fitted attributes are populated and internally consistent
    assert est.gamma_ > 0 and est.j_in_ >= 0
    assert est.trace_.exit_step is None
    assert "grad_norm" in est.init_info_


def test_fit_poisson_predicts_intensity():
    x, y, theta0, basis = make_data(n=600, p=2, family="poisson", seed=2,
                                    scale=0.5)
    est = LangevinGLMRegressor(p=2, family="poisson", j=20_000, seed=2, epsilon=4.5).fit(x, y)
    grid = np.linspace(0.0, 1.0, 25)
    truth = np.exp(basis.design_matrix(grid) @ theta0)
    pred = est.predict(grid)
    assert np.all(pred > 0)
    assert np.max(np.abs(pred - truth) / truth) < 0.3


def test_fit_deterministic_per_seed():
    x, y, _, _ = make_data(n=200, p=2, seed=3)
    m1 = LangevinGLMRegressor(p=2, j=2000, seed=5, epsilon=4.5).fit(x, y).posterior_mean_
    m2 = LangevinGLMRegressor(p=2, j=2000, seed=5, epsilon=4.5).fit(x, y).posterior_mean_
    np.testing.assert_array_equal(m1, m2)
