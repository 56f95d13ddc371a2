import numpy as np
import pytest

from _oracles import basis_eval_per_kind
from surrogate_langevin.basis import BASIS_KINDS, BasisFamily


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_gram_orthonormality(kind):
    basis = BasisFamily(kind, 64)
    x = (np.arange(10_000) + 0.5) / 10_000  # midpoint rule on [0, 1]
    E = basis.design_matrix(x)
    gram = E.T @ E / x.size
    assert np.max(np.abs(gram - np.eye(64))) < 1e-6


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_uniform_bound(kind):
    basis = BasisFamily(kind, 32)
    x = np.linspace(0, 1, 2001)
    E = basis.design_matrix(x)
    assert np.max(np.abs(E)) <= np.sqrt(2) + 1e-12


def test_cosine_centered_integrates_to_zero():
    basis = BasisFamily("cosine-centered", 16)
    x = (np.arange(200_000) + 0.5) / 200_000
    E = basis.design_matrix(x)
    assert np.max(np.abs(E.mean(axis=0))) < 1e-10


def test_dirichlet_sine_eigenvalues():
    basis = BasisFamily("dirichlet-sine", 5)
    for k in range(1, 6):
        assert basis.laplacian_eigenvalue(k) == pytest.approx(np.pi ** 2 * k ** 2)
    with pytest.raises(ValueError):
        BasisFamily("cosine-centered", 5).laplacian_eigenvalue(1)


def test_eval_examples():
    assert BasisFamily("cosine-with-constant", 3).eval(1, 0.37) == 1.0
    assert BasisFamily("dirichlet-sine", 3).eval(1, 0.5) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert BasisFamily("cosine-centered", 3).eval(2, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_eval_domain_errors():
    basis = BasisFamily("cosine-centered", 3)
    with pytest.raises(ValueError):
        basis.eval(0, 0.5)
    with pytest.raises(ValueError):
        basis.eval(4, 0.5)
    with pytest.raises(ValueError):
        basis.eval(1, 1.5)
    with pytest.raises(ValueError):
        basis.eval(1, -0.1)


def test_phi_apply_zero_and_unit():
    basis = BasisFamily("dirichlet-sine", 4)
    x = np.linspace(0, 1, 11)
    assert np.all(basis.expand(np.zeros(4), x) == 0.0)
    for k in range(1, 5):
        theta = np.zeros(4)
        theta[k - 1] = 1.0
        np.testing.assert_allclose(basis.expand(theta, x), basis.eval(k, x), atol=1e-14)


def test_phi_apply_example():
    basis = BasisFamily("cosine-with-constant", 2)
    assert basis.expand(np.array([1.0, 1.0]), 0.0) == pytest.approx(1 + np.sqrt(2), abs=1e-12)


def test_phi_apply_linear_in_theta():
    basis = BasisFamily("cosine-centered", 6)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    x = rng.random(20)
    lhs = basis.expand(2.0 * a + 3.0 * b, x)
    rhs = 2.0 * basis.expand(a, x) + 3.0 * basis.expand(b, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unknown_kind_and_bad_p():
    with pytest.raises(ValueError):
        BasisFamily("fourier", 3)
    with pytest.raises(ValueError):
        BasisFamily("dirichlet-sine", 0)


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("p", [1, 2, 9])
def test_eval_is_the_design_matrix_column(kind, p):
    # eval reads column k of design_matrix; the per-kind formulas it replaced
    # give the same values and types bit for bit, for scalars and any shape
    basis = BasisFamily(kind, p)
    rng = np.random.default_rng(p)
    for x in (0.0, 0.37, 1.0, rng.uniform(size=17), rng.uniform(size=(3, 4)), np.empty(0)):
        for k in range(1, p + 1):
            got, ref = basis.eval(k, x), basis_eval_per_kind(basis, k, x)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.array_equal(got, ref)
