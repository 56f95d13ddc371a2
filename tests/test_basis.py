import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import basis_eval_per_kind
from surrogate_langevin.basis import BASIS_KINDS, BasisFamily
from surrogate_langevin.forward import LinearPhi


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
    # e_k = sqrt(2) sin(pi k x) solves -e_k'' = pi^2 k^2 e_k with e_k(0) = e_k(1) = 0;
    # the second difference on a fine grid agrees to O(h^2)
    basis = BasisFamily("dirichlet-sine", 5)
    h = 1e-3
    x = np.linspace(0.0, 1.0, 1001)
    E = basis.design_matrix(x)
    np.testing.assert_allclose(E[[0, -1]], 0.0, atol=1e-12)
    d2 = (E[2:] - 2.0 * E[1:-1] + E[:-2]) / h ** 2
    k = np.arange(1, 6)
    np.testing.assert_allclose(-d2, np.pi ** 2 * k ** 2 * E[1:-1], atol=1e-3 * np.pi ** 2 * 25)


def test_eval_examples():
    assert BasisFamily("cosine-with-constant", 3).design_matrix(0.37)[0, 0] == 1.0
    assert BasisFamily("dirichlet-sine", 3).design_matrix(0.5)[0, 0] == pytest.approx(
        np.sqrt(2), abs=1e-12)
    assert BasisFamily("cosine-centered", 3).design_matrix(0.25)[0, 1] == pytest.approx(
        0.0, abs=1e-12)


def test_eval_domain_errors():
    basis = BasisFamily("cosine-centered", 3)
    for x in (1.5, -0.1, [0.5, np.nextafter(1.0, 2.0), 0.2]):
        with pytest.raises(ValueError, match=r"evaluation point outside \[0, 1\]"):
            basis.design_matrix(x)


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 12))
def test_design_matrix_rejects_non_finite_points(data, n):
    # the range test read (x < 0) | (x > 1), which is False at NaN, so a NaN
    # point gave a row of NaN
    x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    at = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    x[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match=r"evaluation point outside \[0, 1\]"):
        BasisFamily("cosine-with-constant", 3).design_matrix(x)


def test_phi_apply_zero_and_unit():
    # LinearPhi.values applies Phi(theta) = sum_k theta_k e_k
    basis = BasisFamily("dirichlet-sine", 4)
    op = LinearPhi(basis)
    x = np.linspace(0, 1, 11)
    assert np.all(op.values(np.zeros(4), x) == 0.0)
    E = basis.design_matrix(x)
    for k in range(4):
        np.testing.assert_allclose(op.values(np.eye(4)[k], x), E[:, k], atol=1e-14)


def test_phi_apply_example():
    op = LinearPhi(BasisFamily("cosine-with-constant", 2))
    assert op.values(np.array([1.0, 1.0]), [0.0])[0] == pytest.approx(1 + np.sqrt(2), abs=1e-12)


def test_phi_apply_linear_in_theta():
    op = LinearPhi(BasisFamily("cosine-centered", 6))
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    x = rng.random(20)
    lhs = op.values(2.0 * a + 3.0 * b, x)
    rhs = 2.0 * op.values(a, x) + 3.0 * op.values(b, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_unknown_kind_and_bad_p():
    with pytest.raises(ValueError):
        BasisFamily("fourier", 3)
    with pytest.raises(ValueError):
        BasisFamily("dirichlet-sine", 0)


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("p", [1, 2, 9])
def test_eval_is_the_design_matrix_column(kind, p):
    # column k of design_matrix is e_k by the formula of its kind, bit for bit
    basis = BasisFamily(kind, p)
    rng = np.random.default_rng(p)
    for x in (np.array([0.0, 0.37, 1.0]), rng.uniform(size=17), np.empty(0)):
        E = basis.design_matrix(x)
        assert E.shape == (x.size, p)
        for k in range(1, p + 1):
            assert E[:, k - 1].tobytes() == basis_eval_per_kind(basis, k, x).tobytes()
