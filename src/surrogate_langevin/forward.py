"""Forward operators: the linear series map and a 1-D Darcy-type elliptic solver.

Both operators serve one protocol, and it is all `ModelInstance` uses:

    values(theta, x)              G(theta) at the points x,        shape (len(x),)
    grad_rows(theta, x)           rows d G(theta)(x_i) / d theta,  shape (len(x), p)
    dir_grad(theta, v, x)         v' grad G(theta) at x
    dir_hess(theta, v, x)         v' hess G(theta) v at x
    dir_hess_dot(theta, v, x, s)  s' (v' hess G(theta) v)(x), the contraction
                                  of dir_hess with the weights s of shape (len(x),)

A direction v is either one vector of shape (p,), giving results of shape
(len(x),) (a scalar for dir_hess_dot), or a block of k directions as the
columns of a (p, k) array, giving results of shape (len(x), k) (shape (k,) for
dir_hess_dot).  Each operator memoizes the work it can reuse across calls:
`LinearPhi` its design matrix at x, `Darcy1D` its solution and factorization
at theta and its interpolation weights at x.

The Darcy operator maps coefficients theta to the solution u of the
conservative boundary value problem  (f u')' = g1 on (0,1), u = g2 on {0,1},
with conductivity f = f_min + exp(Phi(theta)).  First and second directional
derivatives are computed from the resolvent identities

    v' grad G(theta)      = -L_f^{-1} L_{f_v} u,
    v' hess G(theta) v    = 2 L_f^{-1} L_{f_v} L_f^{-1} L_{f_v} u - L_f^{-1} L_{f_v2} u
                          = (-L_f)^{-1} z_v,   z_v = 2 L_{f_v} w_v + L_{f_v2} u,

with f_v = exp(Phi(theta)) Phi(v), f_v2 = exp(Phi(theta)) Phi(v)^2 and the
tangent w_v = (-L_f)^{-1} L_{f_v} u.  With P the interpolation to x, and
-L_f symmetric, the contraction takes one adjoint solve for all directions:

    s' P (-L_f)^{-1} z_v = mu' z_v,   mu = (-L_f)^{-1} P' s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import BasisFamily


@cache
def _lapack():
    """(pbtrf, pbtrs), the LAPACK routines behind scipy.linalg.cholesky_banded
    and cho_solve_banded, called directly; the finiteness and `info` checks
    those wrappers make are made explicitly by _factorized_operator and
    _banded_solve.  Resolved on the first factorization, so only a run that
    solves the PDE loads scipy."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("pbtrf", "pbtrs"), (np.empty((2, 1)),))


def darcy_solve(f: np.ndarray, g1: np.ndarray, g2: tuple[float, float]) -> np.ndarray:
    """Solve (f u')' = g1 with Dirichlet values g2 on a uniform grid.

    f has M+2 node values (boundaries included), g1 has M interior values.
    Returns u on all M+2 nodes.  Second-order conservative scheme with
    arithmetic face averaging.
    """
    f = np.asarray(f, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("conductivity must be strictly positive on the grid")
    M = g1.size
    if f.size != M + 2:
        raise ValueError(f"f must have {M + 2} node values, got {f.size}")
    return _solve_dirichlet(f, g1, g2)[0]


def _solve_dirichlet(f, g1, g2):
    """(u, cb): the solution of (f u')' = g1 with u = g2 at the ends on all
    M+2 nodes, and the banded Cholesky factor cb of -L_f."""
    cb, faces, h2 = _factorized_operator(f)
    b = -g1
    b[0] += faces[0] * g2[0] / h2
    b[-1] += faces[-1] * g2[1] / h2
    u = np.empty(f.size)
    u[0], u[-1] = g2
    u[1:-1] = _banded_solve(cb, b)
    return u, cb


def _factorized_operator(f):
    """(cb, faces, h2): the banded Cholesky factor of -L_f restricted to
    interior nodes, and the face values of f and squared mesh width it was
    assembled from, which the Dirichlet fold reuses."""
    M = f.size - 2
    h2 = (1.0 / (M + 1)) ** 2
    faces = 0.5 * (f[:-1] + f[1:])  # length M+1, face j+1/2 between nodes j, j+1
    ab = np.zeros((2, M), order="F")  # pbtrf factors it in place
    ab[0, 1:] = -faces[1:-1] / h2  # superdiagonal
    ab[1, :] = (faces[:-1] + faces[1:]) / h2
    _require_finite(ab)
    pbtrf, _ = _lapack()
    cb, info = pbtrf(ab, lower=0, overwrite_ab=1)
    if info > 0:
        raise ArithmeticError(f"tridiagonal factorization failed: {info}-th leading "
                              "minor not positive definite")
    if info < 0:
        raise ValueError(f"pbtrf failed with info={info}")
    if cb[1].min() <= 1e-14:  # pbtrf's pivots are square roots, so positive
        raise ArithmeticError("tridiagonal factorization has near-zero pivots")
    _require_finite(cb)  # once here, not on every solve with this factor
    return cb, faces, h2


def _require_finite(a, message="array must not contain infs or NaNs"):
    """ValueError(message) unless every entry of a is finite.  a.a is one
    BLAS reduction; it is finite exactly when every entry is, unless the
    squares overflow (an entry above about 1e154), and then the entrywise
    test decides.  np.vdot, unlike ndarray.dot, warns of no overflow."""
    v = a.ravel("K")
    if not math.isfinite(np.vdot(v, v)) and not np.isfinite(v).all():
        raise ValueError(message)


def _banded_solve(cb, b):
    """(-L_f)^{-1} b from the factor cb, for b of shape (M,) or (M, k)."""
    _require_finite(b)
    _, pbtrs = _lapack()
    x, info = pbtrs(cb, b, lower=0)
    if info != 0:
        raise ValueError(f"pbtrs failed with info={info}")
    return x


def _apply_operator(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the discrete divergence-form operator L_c to w at interior nodes.

    c and w hold node values along axis 0; further axes broadcast.  The flux
    through each face is formed once and differenced.
    """
    M = w.shape[0] - 2
    h = 1.0 / (M + 1)
    flux = 0.5 * (c[:-1] + c[1:]) * (w[1:] - w[:-1])
    return (flux[1:] - flux[:-1]) / h ** 2


@dataclass
class LinearPhi:
    """The linear forward operator G(theta) = Phi(theta)."""

    basis: BasisFamily
    _memo_x = None  # not dataclass fields: set per instance by _design
    _memo_key = None
    _memo = None

    def _design(self, x):
        """Design matrix at x, memoized.  A read-only array that owns its data
        (Dataset.x) cannot change, so it is matched by identity; any other x
        is matched on its bytes."""
        if x is self._memo_x:
            return self._memo
        key = np.asarray(x, dtype=float).tobytes()
        if self._memo_key != key:
            self._memo_key, self._memo = key, self.basis.design_matrix(x)
        frozen = type(x) is np.ndarray and not x.flags.writeable and x.base is None
        self._memo_x = x if frozen else None
        return self._memo

    def values(self, theta, x):
        return self._design(x).dot(np.asarray(theta, dtype=float))  # ndarray.dot: the gemv of @

    def grad_rows(self, theta, x):
        return self._design(x)

    def dir_grad(self, theta, v, x):
        return self._design(x) @ np.asarray(v, dtype=float)

    def dir_hess(self, theta, v, x):
        return np.zeros(np.atleast_1d(x).shape[:1] + np.shape(v)[1:])

    def dir_hess_dot(self, theta, v, x, s):
        return np.zeros(np.shape(v)[1:])


@dataclass
class Darcy1D:
    """Non-linear forward operator theta -> u_{f_theta} on [0, 1]."""

    basis: BasisFamily
    M: int = 256
    f_min: float = 1.0
    g1: float = 4.0
    g2: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.basis.kind != "dirichlet-sine":
            raise ValueError("the Darcy operator requires the dirichlet-sine basis")
        if self.f_min <= 0:
            raise ValueError("f_min must be strictly positive")
        self._grid = np.linspace(0.0, 1.0, self.M + 2)
        self._g1_int = np.full(self.M, float(self.g1))
        self._dgrid = np.diff(self._grid)[:, None]
        self._E_grid = self.basis.design_matrix(self._grid)
        self._memo_key = None
        self._memo = None
        self._tangent_key = None
        self._tangent_memo = None
        self._x_key = None
        self._x_memo = None

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    def conductivity(self, theta) -> np.ndarray:
        phi = self._E_grid @ np.asarray(theta, dtype=float)
        return self.f_min + np.exp(phi)

    def _state(self, theta):
        """Solution, exp(Phi) and operator factorization at theta (memoized)."""
        theta = np.asarray(theta, dtype=float)
        key = theta.tobytes()
        if self._memo_key == key:
            return self._memo
        phi = self._E_grid @ theta
        exp_phi = np.exp(phi)
        f = self.f_min + exp_phi
        _require_finite(f, "conductivity overflow; theta too large")
        u, cb = _solve_dirichlet(f, self._g1_int, self.g2)
        self._memo_key, self._memo = key, (u, exp_phi, cb)
        return self._memo

    def solution(self, theta) -> np.ndarray:
        return self._state(theta)[0]

    def residual_inf_norm(self, theta) -> float:
        u, _, _ = self._state(theta)
        f = self.conductivity(theta)
        return float(np.max(np.abs(_apply_operator(f, u) - self._g1_int)))

    def values(self, theta, x):
        return self._at(x, self.solution(theta)[:, None])[:, 0]

    def _tangent(self, theta, v):
        """State at theta, Phi(v) and f_v on the grid, and the tangent
        w = (-L_f)^{-1} L_{f_v} u, one column per direction.  Memoized on the
        last (theta, v), so dir_hess reuses the solve dir_grad made."""
        u, exp_phi, cb = self._state(theta)
        v = np.asarray(v, dtype=float)
        key = self._memo_key + v.tobytes()
        if self._tangent_key != key:
            u, exp_phi = u[:, None], exp_phi[:, None]
            phiv = self._E_grid @ v.reshape(self.basis.p, -1)
            fv = exp_phi * phiv
            w = self._solve(cb, _apply_operator(fv, u))
            self._tangent_key = key
            self._tangent_memo = u, exp_phi, cb, phiv, fv, w
        return self._tangent_memo

    @staticmethod
    def _solve(cb, rhs):
        """(-L_f)^{-1} rhs for every column of rhs, with zero boundary rows."""
        w = np.zeros((rhs.shape[0] + 2, rhs.shape[1]))
        w[1:-1] = _banded_solve(cb, rhs)
        return w

    def _interp_weights(self, x):
        """Interval index j, offset x - grid[j] and end-point fix-ups of the
        points x, then the node rows and weights of the interpolation's
        transpose, the end points weighted 0 (memoized on the bytes of x)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = x.tobytes()
        if self._x_key != key:
            g = self._grid
            j = np.minimum(np.searchsorted(g, x, side="right") - 1, self.M)
            # np.interp returns the end values at and beyond the ends
            ends = np.flatnonzero((x < g[0]) | (x >= g[-1]))
            end_rows = np.where(x[ends] < g[0], 0, -1)
            j[ends] = 0
            dx = x - g[j]
            t = dx / self._dgrid[j, 0]
            weights = np.concatenate([1.0 - t, t])
            weights[np.concatenate([ends, ends + x.size])] = 0.0
            self._x_key = key
            self._x_memo = j, dx[:, None], ends, end_rows, np.concatenate([j, j + 1]), weights
        return self._x_memo

    def _at(self, x, nodes):
        """np.interp(x, grid, c) for each column c of the (M+2, k) array nodes,
        bit for bit."""
        j, dx, ends, end_rows = self._interp_weights(x)[:4]
        out = ((nodes[1:] - nodes[:-1]) / self._dgrid).take(j, axis=0)
        out *= dx
        out += nodes.take(j, axis=0)
        if ends.size:
            out[ends] = nodes[end_rows]
        return out

    def _at_adjoint(self, x, s):
        """P' s at the interior nodes, P the interpolation _at makes from node
        values to the points x.  Points at or beyond the ends read a boundary
        node, where the solved fields are zero, so they add nothing."""
        rows, weights = self._interp_weights(x)[4:]
        s = np.asarray(s, dtype=float)
        return np.bincount(rows, weights * np.concatenate([s, s]),
                           minlength=self.M + 2)[1:-1]

    def dir_grad(self, theta, v, x):
        w = self._tangent(theta, v)[-1]
        out = self._at(x, w)
        return out[:, 0] if np.ndim(v) == 1 else out

    def grad_rows(self, theta, x):
        return self.dir_grad(theta, np.eye(self.basis.p), x)

    def dir_hess(self, theta, v, x):
        u, exp_phi, cb, phiv, fv, w = self._tangent(theta, v)
        fv2 = exp_phi * phiv ** 2
        w1 = -w  # L_f^{-1} L_{f_v} u
        w2 = -self._solve(cb, _apply_operator(fv, w1))
        w3 = -self._solve(cb, _apply_operator(fv2, u))
        out = self._at(x, 2.0 * w2 - w3)
        return out[:, 0] if np.ndim(v) == 1 else out

    def dir_hess_dot(self, theta, v, x, s):
        """s' dir_hess(theta, v, x) as mu' z_v with one adjoint solve
        mu = (-L_f)^{-1} P' s for all directions (see the module docstring)."""
        u, exp_phi, cb, phiv, fv, w = self._tangent(theta, v)
        mu = _banded_solve(cb, self._at_adjoint(x, s))
        z = 2.0 * _apply_operator(fv, w) + _apply_operator(exp_phi * phiv ** 2, u)
        out = mu @ z
        return out[0] if np.ndim(v) == 1 else out
