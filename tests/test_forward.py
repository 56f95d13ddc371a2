import numpy as np
import pytest

from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.forward import Darcy1D, LinearPhi, darcy_solve


def _grid(M):
    return np.linspace(0.0, 1.0, M + 2)


def test_darcy_solve_quadratic_exact():
    M = 64
    u = darcy_solve(np.ones(M + 2), np.full(M, 2.0), (0.0, 0.0))
    x = _grid(M)
    np.testing.assert_allclose(u, x ** 2 - x, atol=1e-10)


def test_darcy_solve_scaled():
    M = 64
    u = darcy_solve(np.full(M + 2, 2.0), np.full(M, 2.0), (0.0, 0.0))
    x = _grid(M)
    np.testing.assert_allclose(u, (x ** 2 - x) / 2.0, atol=1e-10)


def _manufactured_error(M):
    # u = sin(pi x), f = 1 + x, g1 = ((1+x) u')' = -pi^2 (1+x) sin(pi x) + pi cos(pi x)
    x = _grid(M)
    f = 1.0 + x
    xi = x[1:-1]
    g1 = -np.pi ** 2 * (1 + xi) * np.sin(np.pi * xi) + np.pi * np.cos(np.pi * xi)
    u = darcy_solve(f, g1, (0.0, 0.0))
    return np.max(np.abs(u - np.sin(np.pi * x)))


def test_darcy_solve_second_order():
    e = [_manufactured_error(M) for M in (128, 256, 512)]
    assert 3.6 <= e[0] / e[1] <= 4.4
    assert 3.6 <= e[1] / e[2] <= 4.4


def test_darcy_solve_validation():
    with pytest.raises(ValueError):
        darcy_solve(np.zeros(10), np.ones(8), (0.0, 0.0))
    with pytest.raises(ValueError):
        darcy_solve(np.ones(9), np.ones(8), (0.0, 0.0))


def test_monotonicity_in_f():
    rng = np.random.default_rng(3)
    M = 64
    for _ in range(10):
        g1 = rng.random(M) + 0.1
        f1 = rng.random(M + 2) + 0.5
        u1 = darcy_solve(f1, g1, (0.0, 0.0))
        u2 = darcy_solve(2.0 * f1, g1, (0.0, 0.0))
        assert np.max(np.abs(u2)) <= np.max(np.abs(u1)) + 1e-12


def test_linear_phi_trivialities():
    basis = BasisFamily("cosine-with-constant", 3)
    op = LinearPhi(basis)
    x = np.linspace(0, 1, 7)
    assert np.all(op.values(np.zeros(3), x) == 0.0)
    for k in range(3):
        v = np.zeros(3)
        v[k] = 1.0
        np.testing.assert_allclose(op.dir_grad(np.zeros(3), v, x),
                                   basis.eval(k + 1, x), atol=1e-14)
    assert np.all(op.dir_hess(np.ones(3), np.ones(3), x) == 0.0)


def test_linear_phi_design_memo_follows_x():
    basis = BasisFamily("cosine-with-constant", 3)
    op = LinearPhi(basis)
    theta = np.array([0.5, -0.2, 0.1])
    x1, x2 = np.linspace(0, 1, 7), np.linspace(0.05, 0.95, 5)
    for x in (x1, x2, x1):
        np.testing.assert_array_equal(op.values(theta, x), basis.design_matrix(x) @ theta)


def _darcy(p=4, M=256, **kw):
    return Darcy1D(BasisFamily("dirichlet-sine", p), M=M, **kw)


def test_darcy_eval_examples():
    # M = 127 puts x = 0.5 exactly on a grid node
    op = _darcy(M=127, f_min=1.0, g1=2.0, g2=(0.0, 0.0))
    # theta = 0 gives f = f_min + 1 = 2, so u = (x^2 - x)/2
    assert op.values(np.zeros(4), 0.5)[0] == pytest.approx(-0.125, abs=1e-10)
    op2 = _darcy(M=128, g1=0.0, g2=(3.0, 3.0))
    np.testing.assert_allclose(op2.values(np.zeros(4), np.linspace(0, 1, 9)), 3.0, atol=1e-9)


def test_darcy_residual():
    op = _darcy()
    rng = np.random.default_rng(0)
    theta = 0.3 * rng.standard_normal(4)
    assert op.residual_inf_norm(theta) <= 1e-9 * max(1.0, op.g1)


def test_darcy_conductivity_floor():
    op = _darcy(f_min=0.7)
    theta = np.array([-2.0, 1.0, 0.5, -0.3])
    assert np.all(op.conductivity(theta) >= 0.7)


def test_darcy_dir_grad_matches_fd():
    op = _darcy()
    rng = np.random.default_rng(1)
    x = op.grid[1:-1]
    for _ in range(20):
        theta = 0.4 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        eps = 1e-5
        fd = (op.values(theta + eps * v, x) - op.values(theta - eps * v, x)) / (2 * eps)
        an = op.dir_grad(theta, v, x)
        assert np.linalg.norm(an - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)


def test_darcy_dir_hess_matches_fd():
    from _oracles import darcy_values_longdouble

    op = _darcy()
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = 0.4 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        eps = 1e-4
        # extended-precision oracle: float64 solver roundoff would dominate
        # the second difference quotient at this epsilon
        fd = (darcy_values_longdouble(op, theta + eps * v)
              - 2 * darcy_values_longdouble(op, theta)
              + darcy_values_longdouble(op, theta - eps * v))[1:-1] / eps ** 2
        fd = fd.astype(float)
        an = op.dir_hess(theta, v, op.grid[1:-1])
        assert np.linalg.norm(an - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


def test_solver_matches_extended_precision_oracle():
    from _oracles import darcy_values_longdouble

    op = _darcy()
    rng = np.random.default_rng(7)
    theta = 0.4 * rng.standard_normal(4)
    u64 = op.solution(theta)
    uld = darcy_values_longdouble(op, theta).astype(float)
    np.testing.assert_allclose(u64, uld, atol=1e-11)


def test_dir_grad_linearity_in_v():
    op = _darcy()
    rng = np.random.default_rng(4)
    theta = 0.3 * rng.standard_normal(4)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    x = np.linspace(0, 1, 33)
    lhs = op.dir_grad(theta, 2.0 * a - b, x)
    rhs = 2.0 * op.dir_grad(theta, a, x) - op.dir_grad(theta, b, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    np.testing.assert_allclose(op.dir_grad(theta, np.zeros(4), x), 0.0, atol=1e-14)
    np.testing.assert_allclose(op.dir_hess(theta, np.zeros(4), x), 0.0, atol=1e-14)


def test_forward_lipschitz_bounded():
    op = _darcy()
    rng = np.random.default_rng(5)
    x = op.grid
    ratios = []
    for _ in range(100):
        a = 0.5 * rng.standard_normal(4) / np.arange(1, 5)
        b = 0.5 * rng.standard_normal(4) / np.arange(1, 5)
        num = np.sqrt(np.mean((op.values(a, x) - op.values(b, x)) ** 2))
        ratios.append(num / np.linalg.norm(a - b))
    assert max(ratios) < 10.0


def test_darcy_requires_sine_basis():
    with pytest.raises(ValueError):
        Darcy1D(BasisFamily("cosine-centered", 4))
