import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded

from _oracles import (apply_operator_per_node, darcy_reference, darcy_residual_inf_norm,
                      darcy_solve_assembled)
from surrogate_langevin import forward
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.forward import Darcy1D, LinearPhi
from surrogate_langevin.likelihood import Dataset


def _grid(M):
    return np.linspace(0.0, 1.0, M + 2)


def darcy_solve(f, g1, g2):
    """u on all M+2 nodes from the package's one Dirichlet solve."""
    return forward._solve_dirichlet(f, g1, g2)[0]


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
                                   basis.design_matrix(x)[:, k], atol=1e-14)
    assert np.all(op.dir_hess(np.ones(3), np.ones(3), x) == 0.0)
    thetas = np.array([[0.5, -0.2, 0.1], [1.0, 2.0, -3.0]])
    values, grad, contract = op.hess_terms(thetas, x)
    np.testing.assert_allclose(values, thetas @ basis.design_matrix(x).T, rtol=1e-15)
    for row, theta in zip(values, thetas):  # the bits log_lik reads at each point
        assert row.tobytes() == op.values(theta, x).tobytes()
    assert grad is op.grad_rows(thetas[0], x)
    C = contract(np.linspace(-3.0, 3.0, 14).reshape(2, 7))
    assert C.shape == (2, 3, 3) and C.tobytes() == np.zeros((2, 3, 3)).tobytes()


def test_linear_phi_design_memo_follows_x():
    basis = BasisFamily("cosine-with-constant", 3)
    op = LinearPhi(basis)
    theta = np.array([0.5, -0.2, 0.1])
    x1, x2 = np.linspace(0, 1, 7), np.linspace(0.05, 0.95, 5)
    for x in (x1, x2, x1):
        _assert_fresh_values(op, theta, x)


def _assert_fresh_values(op, theta, x):
    """op.values at x has the bits of an operator that has seen only x, and
    matches the basis: a stale memo would give another x's values."""
    got = op.values(theta, x)
    assert got.tobytes() == LinearPhi(op.basis).values(theta, x).tobytes()
    np.testing.assert_allclose(got, op.basis.design_matrix(x) @ theta, rtol=1e-15)


def test_linear_phi_design_memo_follows_a_read_only_x():
    # the memo is keyed on the bytes of x, so it follows Dataset.x (a
    # read-only copy), the caller's array and a read-only view of a
    # writeable array, also after the arrays behind them change
    basis = BasisFamily("cosine-with-constant", 3)
    op = LinearPhi(basis)
    theta = np.array([0.5, -0.2, 0.1])
    x = np.linspace(0, 1, 7)
    ds = Dataset("regression", x, np.zeros(7), 7)
    assert not ds.x.flags.writeable and ds.x is not x
    w = np.linspace(0.05, 0.95, 7)
    view = w.view()
    view.flags.writeable = False
    for xs in (ds.x, x, ds.x, view):
        _assert_fresh_values(op, theta, xs)
    x[0] = 0.5
    w[1] = 0.9
    for xs in (view, x, ds.x):
        _assert_fresh_values(op, theta, xs)
    np.testing.assert_array_equal(ds.x, np.linspace(0, 1, 7))


@pytest.mark.parametrize("n", [1, 7, 500])
def test_linear_phi_design_memo_is_column_major_and_read_only(n):
    # column-major for the gemv kernel of a skinny matrix; read-only because
    # grad_rows and hess_terms hand the memo itself to their callers
    basis = BasisFamily("cosine-with-constant", 4)
    op = LinearPhi(basis)
    x = np.linspace(0, 1, n)
    E = op.grad_rows(np.zeros(4), x)
    assert E.flags.f_contiguous and not E.flags.writeable
    assert op.hess_terms(np.zeros((2, 4)), x)[1] is E
    np.testing.assert_array_equal(E, basis.design_matrix(x))
    with pytest.raises(ValueError, match="read-only"):
        E[0, 0] = 1.0


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
    assert darcy_residual_inf_norm(op, theta) <= 1e-9 * max(1.0, op.g1)


def test_darcy_dir_grad_matches_fd():
    op = _darcy()
    rng = np.random.default_rng(1)
    x = op._grid[1:-1]
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
        an = op.dir_hess(theta, v, op._grid[1:-1])
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
    x = op._grid
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


@pytest.mark.parametrize("kw, name", [
    (dict(f_min=np.nan), "f_min"), (dict(f_min=np.inf), "f_min"), (dict(f_min=0.0), "f_min"),
    (dict(f_min=-1.0), "f_min"), (dict(M=0), "M"), (dict(M=-3), "M"), (dict(M=16.0), "M"),
    (dict(M=True), "M"), (dict(g1=np.nan), "g1"), (dict(g1=-np.inf), "g1"),
    (dict(g2=(1.0, np.nan)), "g2"), (dict(g2=(np.inf, 0.0)), "g2"),
])
def test_darcy_rejects_parameters_no_solve_could_use(kw, name):
    # each of these made every solve fail, most with a message about theta
    with pytest.raises(ValueError, match=f"^{name} must be"):
        Darcy1D(BasisFamily("dirichlet-sine", 2), **kw)


def test_darcy_accepts_the_smallest_mesh_and_numpy_integers():
    for M in (1, np.int64(3)):
        op = Darcy1D(BasisFamily("dirichlet-sine", 2), M=M)
        assert np.isfinite(op.values(np.zeros(2), np.array([0.25, 0.5]))).all()


# -- the direct LAPACK calls and the memoized interpolation ----------------------

def _banded(f):
    """The upper banded form of -L_f that _factorized_operator factors."""
    M = f.size - 2
    h = 1.0 / (M + 1)
    faces = 0.5 * (f[:-1] + f[1:])
    ab = np.zeros((2, M))
    ab[0, 1:] = -faces[1:-1] / h ** 2
    ab[1, :] = (faces[:-1] + faces[1:]) / h ** 2
    return ab


@settings(max_examples=50, deadline=None)
@given(M=st.integers(1, 300), k=st.integers(1, 12), log_scale=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 16))
def test_direct_lapack_matches_scipy_wrappers(M, k, log_scale, seed):
    rng = np.random.default_rng(seed)
    f = 10.0 ** log_scale * (0.1 + rng.random(M + 2))
    cb = forward._factorized_operator(f)[0]
    assert cb.tobytes() == cholesky_banded(_banded(f), lower=False).tobytes()
    for b in (rng.standard_normal(M), rng.standard_normal((M, k))):
        x = forward._banded_solve(cb, b)
        assert x.shape == b.shape
        assert x.tobytes() == cho_solve_banded((cb, False), b).tobytes()


# A fresh interpreter that solves one Darcy state and imports scipy.linalg
# before it (argv[1] = "before") or after it; it prints whether _lapack gave
# the very objects get_lapack_funcs gives for float64 and whether the package
# reuses the one _flapack module.
LAPACK_IDENTITY_SCRIPT = """
import json, sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from surrogate_langevin import forward
from surrogate_langevin.basis import BasisFamily
forward.Darcy1D(BasisFamily("dirichlet-sine", 2), M=8).values(np.zeros(2), np.array([0.5]))
loaded = "scipy.linalg" in sys.modules
import scipy.linalg
from scipy.linalg import _flapack
funcs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty((2, 1)),))
print(json.dumps({"linalg_loaded_by_solve": loaded,
                  "same": [a is b for a, b in zip(forward._lapack(), funcs)],
                  "one_module": _flapack is sys.modules["scipy.linalg._flapack"],
                  "dtype": [f.dtype.char for f in funcs]}))
"""


@pytest.mark.parametrize("order", ["after", "before"])
def test_lapack_routines_are_scipys_float64_objects(order):
    src = Path(forward.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", LAPACK_IDENTITY_SCRIPT, order], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out == {"linalg_loaded_by_solve": order == "before", "same": [True, True],
                   "one_module": True, "dtype": ["d", "d"]}


def test_lapack_names_a_missing_module(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(forward.PathFinder, "find_spec", lambda *args, **kw: None)
    with pytest.raises(ImportError, match="scipy.linalg._flapack") as info:
        forward._lapack.__wrapped__()  # past the cache
    assert info.value.name == "scipy.linalg._flapack"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_solver_inputs_raise_value_error(bad):
    M = 16
    f, g1 = np.ones(M + 2), np.ones(M)
    cb = forward._factorized_operator(f)[0]
    for arr, at in ((f, 3), (g1, 5)):
        poisoned = arr.copy()
        poisoned[at] = bad
        args = (poisoned, g1) if arr is f else (f, poisoned)
        with pytest.raises(ValueError):
            darcy_solve(*args, (0.0, 0.0))
    for at in (0, 4, M + 1):  # -inf makes a negative pivot: the input test comes first
        poisoned = f.copy()
        poisoned[at] = bad
        with pytest.raises(ValueError):
            forward._factorized_operator(poisoned)
    for shape in ((M,), (M, 3)):
        b = np.ones(shape)
        b[2] = bad
        with pytest.raises(ValueError):
            forward._banded_solve(cb, b)
    op = _darcy(M=M)
    v = np.ones(4)
    v[1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        op.dir_grad(np.zeros(4), v, op._grid)


def test_failed_factorization_raises_arithmetic_error():
    # f = -1 makes the banded matrix negative definite: pbtrf reports info > 0
    with pytest.raises(ArithmeticError, match="not positive definite"):
        forward._factorized_operator(-np.ones(10))


def _points(M, draws):
    """The ends, every interior grid node and the given random points in [0, 1]."""
    return np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, M + 2)[1:-1], draws))


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 64), k=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_darcy_interpolation_is_np_interp(M, k, seed):
    rng = np.random.default_rng(seed)
    op = _darcy(M=M)
    xs = [_points(M, rng.random(7)), rng.random(5), np.array([-0.5, 0.25, 1.5, 1.0]),
          np.array([0.5])]
    for _ in range(2):  # every x again after the others: the memo follows x
        for x in xs:
            theta = rng.standard_normal(4)
            u = op.solution(theta)
            assert op.values(theta, x).tobytes() == np.interp(x, op._grid, u).tobytes()
            nodes = rng.standard_normal((M + 2, k))
            ref = np.stack([np.interp(x, op._grid, c) for c in nodes.T], axis=1)
            assert op._at(x, nodes).tobytes() == ref.tobytes()
    assert op.values(np.zeros(4), 0.5).shape == (1,)


@settings(max_examples=30, deadline=None)
@given(calls=st.lists(st.tuples(st.sampled_from(["grad", "hess"]), st.integers(0, 2),
                                st.integers(0, 2)), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16))
def test_darcy_direction_calls_keep_the_bits(calls, seed):
    # dir_grad and dir_hess read the memoized state at theta and solve their
    # tangent afresh; any sequence of calls must give the fresh results
    rng = np.random.default_rng(seed)
    op = _darcy(M=32)
    x = rng.random(20)
    thetas = 0.3 * rng.standard_normal((3, 4))
    blocks = [rng.standard_normal((4, 3)), rng.standard_normal((4, 1)), np.eye(4)]
    for kind, i, j in calls:
        _, G, H = darcy_reference(op, thetas[i], blocks[j], x)
        if kind == "grad":
            assert op.dir_grad(thetas[i], blocks[j], x).tobytes() == G.tobytes()
        else:
            assert op.dir_hess(thetas[i], blocks[j], x).tobytes() == H.tobytes()


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 80), k=st.integers(1, 6), log_scale=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 16))
def test_darcy_contraction_is_s_dot_dir_hess(M, k, log_scale, seed):
    # hess_terms' contraction C of the weights s with hess G, by one adjoint
    # solve and summation by parts: v'Cv against s @ dir_hess(v) within
    # 1e-12 of the size of the terms that dot product sums, for a block with
    # a zero column and a single direction, at the ends, on grid nodes and
    # beyond [0, 1]
    rng = np.random.default_rng(seed)
    op = _darcy(M=M, f_min=0.5 + rng.random(), g1=float(rng.standard_normal()),
                g2=tuple(rng.standard_normal(2)))
    theta = 0.5 * rng.standard_normal(4)
    x = np.concatenate((_points(M, rng.random(6)), [-0.5, 1.5]))
    s = 10.0 ** log_scale * rng.standard_normal(x.size)
    C = op.hess_terms(theta[None], x)[2](s[None])[0]
    assert C.shape == (4, 4)
    assert np.all(np.abs(C - C.T) <= 1e-14 * np.abs(C).max())
    V = rng.standard_normal((4, k))
    V[:, rng.integers(k)] = 0.0
    for v in (V, rng.standard_normal((4, 1))):
        got = ((C @ v) * v).sum(axis=0)
        H = op.dir_hess(theta, v, x)
        assert np.all(np.abs(got - s @ H) <= 1e-12 * (np.abs(s) @ np.abs(H)))


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 60), B=st.integers(1, 6), k=st.integers(1, 5),
       log_scale=st.floats(-6.0, 6.0), seed=st.integers(0, 2 ** 16))
def test_block_factor_and_solves_have_each_blocks_bits(M, B, k, log_scale, seed):
    # B conductivities in one banded factor with zero coupling entries: each
    # block of the factor, of the Dirichlet states and of any solve on it has
    # the bits of that block's own factor and solve
    rng = np.random.default_rng(seed)
    f = 10.0 ** log_scale * (0.1 + rng.random((M + 2, B)))
    g1, g2 = rng.standard_normal(M), tuple(rng.standard_normal(2))
    cb, faces, _ = forward._factorized_operator(f)
    u, cb2 = forward._solve_dirichlet(f, g1, g2)
    assert cb.shape == (2, B * M) and faces.shape == (B, M + 1) and u.shape == (M + 2, B)
    assert cb2.tobytes() == cb.tobytes()
    rhs, col = rng.standard_normal((M, B, k)), rng.standard_normal(B * M)
    W, x = Darcy1D._solve(cb, rhs), forward._banded_solve(cb, col)
    assert W.shape == (M + 2, B, k)
    for b in range(B):
        fb = f[:, b].copy()
        cb1 = forward._factorized_operator(fb)[0]
        assert cb[:, b * M:(b + 1) * M].tobytes() == cb1.tobytes()
        assert u[:, b].tobytes() == forward._solve_dirichlet(fb, g1, g2)[0].tobytes()
        assert W[:, b].tobytes() == Darcy1D._solve(cb1, rhs[:, b]).tobytes()
        assert x[b * M:(b + 1) * M].tobytes() == forward._banded_solve(
            cb1, col[b * M:(b + 1) * M].copy()).tobytes()


@settings(max_examples=30, deadline=None)
@given(M=st.integers(1, 64), B=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
def test_darcy_hess_terms_values_and_grad_rows(M, B, seed):
    # the block's values and grad rows have the bits of each point's own,
    # and a one-row block those of its point
    rng = np.random.default_rng(seed)
    op = _darcy(M=M, f_min=0.5 + rng.random(), g1=float(rng.standard_normal()),
                g2=tuple(rng.standard_normal(2)))
    thetas = 0.5 * rng.standard_normal((B, 4))
    x = np.concatenate((_points(M, rng.random(5)), [-0.5, 1.5]))
    values, grad, _ = op.hess_terms(thetas, x)
    assert values.shape == (B, x.size) and grad.shape == (B, x.size, 4)
    for b in range(B):
        assert values[b].tobytes() == op.values(thetas[b], x).tobytes()
        assert grad[b].tobytes() == op.grad_rows(thetas[b], x).tobytes()
        one = op.hess_terms(thetas[b:b + 1], x)[0][0]
        assert one.tobytes() == op.values(thetas[b], x).tobytes()


# -- one face array per solve and one flux per face -------------------------------

@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 80), k=st.sampled_from([1, 12]), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_darcy_kernels_keep_the_first_assembly_bits(M, k, log_scale, seed):
    # the solve forms the faces once for the factor and the boundary fold
    # and solves into u in place; L_c differences one flux per face: the
    # same products as the first assembly, so the same bits
    rng = np.random.default_rng(seed)
    c = 10.0 ** log_scale * (0.1 + rng.random(M + 2))
    w1, wk = rng.standard_normal(M + 2), rng.standard_normal((M + 2, k))
    ck = 0.5 + rng.random((M + 2, k))
    for cc, w in ((c, w1), (c[:, None], wk), (ck, wk), (ck, w1[:, None])):
        assert forward._apply_operator(cc, w).tobytes() == apply_operator_per_node(cc, w).tobytes()
    g1, g2 = rng.standard_normal(M), tuple(rng.standard_normal(2))
    assert darcy_solve(c, g1, g2).tobytes() == darcy_solve_assembled(c, g1, g2)[0].tobytes()
    op = _darcy(M=M, f_min=0.5 + rng.random(), g1=float(rng.standard_normal()),
                g2=tuple(rng.standard_normal(2)))
    theta, V, x = rng.standard_normal(4), rng.standard_normal((4, k)), rng.random(9)
    u, G, H = darcy_reference(op, theta, V, x)
    assert op.solution(theta).tobytes() == u.tobytes()
    assert op.dir_grad(theta, V, x).tobytes() == G.tobytes()
    assert op.dir_hess(theta, V, x).tobytes() == H.tobytes()
    if k == 1:
        assert op.dir_grad(theta, V[:, 0], x).tobytes() == G[:, 0].tobytes()
        assert op.dir_hess(theta, V[:, 0], x).tobytes() == H[:, 0].tobytes()


def test_huge_finite_conductivity_passes_the_finiteness_tests_silently():
    # entries above about 1e154 overflow the squares the one-reduction test
    # sums; the entrywise test then passes them, with no warning, and the
    # messages of the failing tests stay as they were
    f, g1 = np.full(18, 1e200), np.ones(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = darcy_solve(f, g1, (0.0, 0.0))
    assert u.tobytes() == darcy_solve_assembled(f, g1, (0.0, 0.0))[0].tobytes()
    f[3] = np.inf
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        darcy_solve(f, g1, (0.0, 0.0))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="conductivity overflow; theta too large"):
        _darcy(M=16).solution(np.full(4, 1e3))
