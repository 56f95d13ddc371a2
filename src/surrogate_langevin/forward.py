"""Forward operators: the linear series map and a 1-D Darcy-type elliptic solver.

Both operators serve one protocol:

    values(theta, x)         G(theta) at the points x,        shape (len(x),)
    grad_rows(theta, x)      rows d G(theta)(x_i) / d theta,  shape (len(x), p)
    dir_grad(theta, v, x)    v' grad G(theta) at x
    dir_hess(theta, v, x)    v' hess G(theta) v at x
    hess_terms(thetas, x)    at each row theta_b of a (B, p) block: the values
                             (B, len(x)), the grad rows (B, len(x), p) and a
                             function contract(s) = sum_i s_bi hess G(theta_b)(x_i)
                             of weights s (B, len(x)), shape (B, p, p)

`ModelInstance` calls values, grad_rows and hess_terms; dir_grad and dir_hess
are the general-direction forms, for tests and benchmarks.  values also takes
a (B, p) block of points and gives G at each row as a C-ordered (B, len(x))
array, each row with the bits of its point alone.  A direction v is either
one vector of shape (p,), giving results of shape (len(x),), or a block of k
directions as the columns of a (p, k) array, giving results of shape
(len(x), k).  Each memo is keyed on the bytes of its input: `LinearPhi`'s
design matrix at x, kept column-major and read-only, and `Darcy1D`'s
interpolation weights at x and states.
`Darcy1D` treats a point as a one-row block: a state is (M+2, B) node
columns and their block factor, kept in two slots, one point and several
points.  So a point and its one-row block share a state, a block leaves the
last point solved, and the Hessians of a block whose likelihood was just
evaluated solve no state again; a tangent is solved on each call.  `Darcy1D`
counts the states it solves in `states_solved` (a block of B counts B), and
raises `SolveError` where a state cannot be solved.  An empty (0, p) block
solves nothing: values, solution and hess_terms give empty arrays with no
LAPACK call and the memo as it was.  `LinearPhi.hess_terms`
gives the block's values, the design matrix as the grad rows of every point
and a zero contraction.

The Darcy operator maps coefficients theta to the solution u of the
conservative boundary value problem  (f u')' = g1 on (0,1), u = g2 on {0,1},
with conductivity f = f_min + exp(Phi(theta)).  First and second directional
derivatives are computed from the resolvent identities

    v' grad G(theta)      = -L_f^{-1} L_{f_v} u,
    v' hess G(theta) v    = 2 L_f^{-1} L_{f_v} L_f^{-1} L_{f_v} u - L_f^{-1} L_{f_v2} u
                          = (-L_f)^{-1} z_v,   z_v = 2 L_{f_v} w_v + L_{f_v2} u,

with f_v = exp(Phi(theta)) Phi(v), f_v2 = exp(Phi(theta)) Phi(v)^2 and the
tangent w_v = (-L_f)^{-1} L_{f_v} u.  With P the interpolation to x, and
-L_f symmetric, the contraction takes one adjoint solve (Plessix 2006,
Geophys. J. Int. 167):

    s' P (-L_f)^{-1} z_v = mu' z_v,   mu = (-L_f)^{-1} P' s,

and its p x p matrix needs only the p coordinate tangents w_k.  hess_terms
solves a block of B points on one banded factor of their block-diagonal
operator: one factorization and three solves (the states, p tangent columns,
one adjoint column), each block with the bits of its own.  The factor and
the solves are LAPACK's dpbtrf and dpbtrs, taken on the first factorization
from scipy's compiled LAPACK module alone (`_lapack`): a run loads no scipy
before it solves the PDE, and never the scipy.linalg package.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np

from .basis import BasisFamily
from .expfam import DomainError


@cache
def _lapack():
    """(pbtrf, pbtrs), the float64 LAPACK routines behind
    scipy.linalg.cholesky_banded and cho_solve_banded, called directly; the
    finiteness and `info` checks those wrappers make are made explicitly by
    _factorized_operator and _banded_solve.

    Resolved on the first factorization, so only a run that solves the PDE
    loads scipy, and then only its compiled LAPACK module
    scipy.linalg._flapack, not the scipy.linalg package, whose import pulls
    in numpy.f2py, numpy.testing and numpy.ma.  The module is loaded under
    its own name and kept in sys.modules, so a later `import scipy.linalg`
    reuses it, and one already loaded is used as it is; dpbtrf and dpbtrs
    are the very objects get_lapack_funcs gives for float64.  `import scipy`
    runs first: on some platforms its set-up makes the libraries the module
    links loadable."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy
        found = PathFinder.find_spec("_flapack", [os.path.join(d, "linalg")
                                                  for d in scipy.__path__])
        if found is None:
            raise ImportError(f"no module named {name!r}: the Darcy solver needs "
                              "scipy's compiled LAPACK module", name=name)
        spec = spec_from_file_location(name, found.origin)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpbtrf, module.dpbtrs


class SolveError(DomainError):
    """A Darcy state could not be solved at theta: its conductivity
    overflows, or the factorization of -L_f fails.  It keeps the message of
    the ValueError or ArithmeticError it replaces and is caught as either;
    ModelInstance reads it as a non-finite likelihood, and a chain's guard
    as a non-finite drift."""


def _solve_dirichlet(f, g1, g2):
    """(u, cb): the solution of (f u')' = g1 with u = g2 at the ends on all
    M+2 nodes, and the banded Cholesky factor cb of -L_f.  f holds node
    values, (M+2,) or one conductivity per column (M+2, B); u has the shape
    of f, and for B columns cb is the block factor of _factorized_operator,
    so all B states come from one solve."""
    cb, faces, h2 = _factorized_operator(f)
    b = np.negative(g1, out=np.empty(faces.shape[:-1] + g1.shape))  # (M,) or (B, M)
    b[..., 0] += faces[..., 0] * g2[0] / h2
    b[..., -1] += faces[..., -1] * g2[1] / h2
    u = np.empty(faces.shape[:-1] + f.shape[:1])
    u[..., 0], u[..., -1] = g2
    u[..., 1:-1] = _banded_solve(cb, b.reshape(-1)).reshape(b.shape)
    return u.T, cb


def _factorized_operator(f):
    """(cb, faces, h2): the banded Cholesky factor of -L_f restricted to
    interior nodes, and the face values of f and squared mesh width it was
    assembled from, which the Dirichlet fold reuses.

    f of shape (M+2, B) gives the factor of the block-diagonal operator of
    the B columns: one (2, B*M) band, block b in band columns b*M to
    (b+1)*M - 1, with zero coupling entries between blocks.  A zero
    superdiagonal entry leaves the next pivot and every solve's next entry
    as they are, so each block's factor and solves have the bits of its own.
    faces is (M+1,), or (B, M+1) per column.
    """
    M = f.shape[0] - 2
    h2 = (1.0 / (M + 1)) ** 2
    f = f.T  # a 1-D f stays as it is
    faces = 0.5 * (f[..., :-1] + f[..., 1:])  # face j+1/2 between nodes j, j+1
    ab = np.zeros(faces.shape[:-1] + (M, 2))  # the band, transposed
    ab[..., 1:, 0] = -faces[..., 1:-1] / h2  # superdiagonal
    ab[..., 1] = (faces[..., :-1] + faces[..., 1:]) / h2
    ab = ab.reshape(-1, 2).T  # (2, B*M) in Fortran order: pbtrf factors it in place
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
    _memo_key = None  # not dataclass fields: set per instance by _design
    _memo = None

    def _design(self, x):
        """Design matrix at x, memoized on the bytes of x.  It is kept
        column-major, where OpenBLAS forms E theta and r' E of a tall, skinny
        E with its column-axpy gemv kernel instead of len(x) dot products of
        length p, and read-only, since grad_rows hands it out."""
        key = np.asarray(x, dtype=float).tobytes()
        if self._memo_key != key:
            E = np.asfortranarray(self.basis.design_matrix(x))
            E.flags.writeable = False
            self._memo_key, self._memo = key, E
        return self._memo

    def values(self, theta, x):
        E, theta = self._design(x), np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            return E.dot(theta)  # ndarray.dot: the gemv of @
        out = np.empty((len(theta), len(E)))
        for t, row in zip(theta, out):
            E.dot(t, out=row)  # each row with its point's product
        return out

    def grad_rows(self, theta, x):
        return self._design(x)

    def dir_grad(self, theta, v, x):
        return self._design(x) @ np.asarray(v, dtype=float)

    def dir_hess(self, theta, v, x):
        return np.zeros(np.atleast_1d(x).shape[:1] + np.shape(v)[1:])

    def hess_terms(self, thetas, x):
        E = self._design(x)
        zeros = np.zeros((len(thetas), E.shape[1], E.shape[1]))
        return self.values(thetas, x), E, lambda s: zeros


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
        if not 0.0 < self.f_min < math.inf:
            raise ValueError(f"f_min must be positive and finite, got {self.f_min}")
        if isinstance(self.M, bool) or not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"M must be an integer >= 1, got {self.M!r}")
        if not math.isfinite(self.g1):
            raise ValueError(f"g1 must be finite, got {self.g1}")
        if not all(map(math.isfinite, self.g2)):
            raise ValueError(f"g2 must be finite, got {self.g2}")
        self._grid = np.linspace(0.0, 1.0, self.M + 2)
        self._g1_int = np.full(self.M, float(self.g1))
        self._dgrid = np.diff(self._grid)[:, None]
        self._E_grid = self.basis.design_matrix(self._grid)
        self._state_keys = [None, None]  # slots: one point, several points
        self._states = [None, None]
        self.states_solved = 0
        self._x_key = None
        self._x_memo = None

    def _state(self, theta):
        """(u, exp(Phi), cb) at each row of theta, a point (p,) being a
        one-row block: (M+2, B) node columns and their block factor.  Kept
        in two slots, one point and several points, each keyed on the bytes
        of theta (p is fixed, so the bytes fix B)."""
        theta = np.asarray(theta, dtype=float)
        p = self.basis.p
        if theta.ndim not in (1, 2) or theta.shape[-1] != p:
            raise ValueError(f"theta must have shape ({p},) or (B, {p}), got {theta.shape}")
        thetas, key = theta.reshape(-1, p), theta.tobytes()
        if not len(thetas):  # no state to solve: no LAPACK call, the memo as it was
            return np.empty((self.M + 2, 0)), np.empty((self.M + 2, 0)), None
        slot = int(len(thetas) > 1)
        if self._state_keys[slot] != key:
            self._state_keys[slot], self._states[slot] = key, self._solve_at(thetas)
        return self._states[slot]

    def _solve_at(self, thetas):
        """(u, exp(Phi), cb) at each row of the (B, p) array thetas.  Phi is
        formed row by row with the product one point uses, so each column has
        the bits of its point alone.  Adds B to states_solved, whether or not
        the solve succeeds; a conductivity that overflows or an operator
        whose factorization fails raises SolveError."""
        phi = np.empty((len(thetas), self.M + 2))
        for t, row in zip(thetas, phi):
            self._E_grid.dot(t, out=row)  # the gemv of E @ t, into its row
        self.states_solved += len(thetas)
        try:
            # an overflow leaves a non-finite conductivity or band, which the
            # finiteness tests report
            with np.errstate(over="ignore"):
                exp_phi = np.exp(phi).T  # (M+2, B) node columns
                f = self.f_min + exp_phi
                _require_finite(f, "conductivity overflow; theta too large")
                u, cb = _solve_dirichlet(f, self._g1_int, self.g2)
        except (ArithmeticError, ValueError) as exc:
            raise SolveError(str(exc)) from exc
        return u, exp_phi, cb

    def solution(self, theta) -> np.ndarray:
        """u at a point (M+2,), or one C-ordered row per point of a block."""
        u = self._state(theta)[0]
        return u[:, 0] if np.ndim(theta) == 1 else u.T

    def values(self, theta, x):
        out = self._at(x, self._state(theta)[0])
        return out[:, 0] if np.ndim(theta) == 1 else np.ascontiguousarray(out.T)

    def _tangent(self, theta, v):
        """State at the point theta, Phi(v) and f_v on the grid, and the
        tangent w = (-L_f)^{-1} L_{f_v} u, one column per direction."""
        u, exp_phi, cb = self._state(theta)
        phiv = self._E_grid @ np.asarray(v, dtype=float).reshape(self.basis.p, -1)
        fv = exp_phi * phiv
        return u, exp_phi, cb, phiv, fv, self._solve(cb, _apply_operator(fv, u))

    @staticmethod
    def _solve(cb, rhs):
        """(-L_f)^{-1} rhs for every column of rhs, with zero boundary rows:
        rhs of shape (M, k), or (M, B, k) on a block factor of B points,
        whose block b solves the columns rhs[:, b]."""
        M, k = rhs.shape[0], rhs.shape[-1]
        cols = rhs.reshape(M, -1, k).transpose(1, 0, 2).reshape(-1, k)  # (B*M, k)
        w = np.zeros((M + 2,) + rhs.shape[1:])
        w[1:-1] = _banded_solve(cb, cols).reshape(-1, M, k).transpose(1, 0, 2).reshape(rhs.shape)
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
        """P' s_b at the interior nodes for each row s_b of the (B, len(x))
        array s, shape (B, M); P is the interpolation _at makes from node
        values to the points x.  Points at or beyond the ends read a boundary
        node, where the solved fields are zero, so they add nothing."""
        rows, weights = self._interp_weights(x)[4:]
        B, nodes = len(s), self.M + 2
        rows = rows + nodes * np.arange(B)[:, None]  # row b's nodes in block b
        ws = weights * np.concatenate([s, s], axis=1)
        return np.bincount(rows.ravel(), ws.ravel(),
                           minlength=B * nodes).reshape(B, nodes)[:, 1:-1]

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

    def hess_terms(self, thetas, x):
        """The protocol's hess_terms (module docstring).  The B states, the
        p tangents w_k of each point and the adjoint columns mu_b =
        (-L_f)^{-1} P' s_b are three solves on one block factor; the states
        and factor are the memoized ones, so a block whose values were just
        taken solves no state again.  contract is mu' z_kl with
        z_kl = L_{f_k} w_l + L_{f_l} w_k + L_{f_kl} u, each term summed by
        parts: mu is zero at both ends, so mu' L_c w = -h^{-2} sum over faces
        of c Dw Dmu (D the difference across a face, c the face average).
        """
        thetas = np.asarray(thetas, dtype=float)
        B, p = thetas.shape
        if not B:  # as _state: nothing to solve
            values = self.values(thetas, x)
            return values, np.empty(values.shape + (p,)), lambda s: np.zeros((0, p, p))
        M, E = self.M, self._E_grid
        u, exp_phi, cb = self._state(thetas)
        fk = exp_phi[:, :, None] * E[:, None, :]  # f_k of each point, (M+2, B, p)
        w = self._solve(cb, _apply_operator(fk, u[:, :, None]))  # tangents w_k
        grad = self._at(x, w.reshape(M + 2, B * p)).reshape(-1, B, p).transpose(1, 0, 2)

        def contract(s):
            mu = np.zeros((M + 2, B))
            mu[1:-1] = _banded_solve(cb, self._at_adjoint(x, s).ravel()).reshape(B, M).T
            dmu = np.diff(mu, axis=0)
            # T_kl = sum f_k Dmu Dw_l, and S_kl = sum f_kl Du Dmu with each
            # face's Du Dmu spread half to either node of f_kl = exp(Phi) E_k E_l
            T = ((0.5 * (fk[:-1] + fk[1:])) * dmu[:, :, None]).transpose(1, 2, 0) \
                @ np.diff(w, axis=0).transpose(1, 0, 2)
            q = np.diff(u, axis=0) * dmu
            node_q = np.zeros((M + 2, B))
            node_q[:-1] += q
            node_q[1:] += q
            S = (E.T * (0.5 * exp_phi * node_q).T[:, None, :]) @ E
            return -(M + 1) ** 2 * (T + T.transpose(0, 2, 1) + S)

        return self.values(thetas, x), grad, contract
