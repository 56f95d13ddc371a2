"""Forward operators: the linear series map and a 1-D Darcy-type elliptic solver.

The Darcy operator maps coefficients theta to the solution u of the
conservative boundary value problem  (f u')' = g1 on (0,1), u = g2 on {0,1},
with conductivity f = f_min + exp(Phi(theta)).  First and second directional
derivatives are computed from the resolvent identities

    v' grad G(theta)      = -L_f^{-1} L_{f_v} u,
    v' hess G(theta) v    = 2 L_f^{-1} L_{f_v} L_f^{-1} L_{f_v} u - L_f^{-1} L_{f_v2} u,

with f_v = exp(Phi(theta)) Phi(v) and f_v2 = exp(Phi(theta)) Phi(v)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .basis import BasisFamily


@dataclass
class TridiagSystem:
    """Symmetric positive-definite tridiagonal system in banded form."""

    diag: np.ndarray
    off: np.ndarray  # superdiagonal, length M-1

    def factor(self):
        M = self.diag.size
        ab = np.zeros((2, M))
        ab[0, 1:] = self.off
        ab[1, :] = self.diag
        try:
            cb = cholesky_banded(ab, lower=False)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"tridiagonal factorization failed: {exc}") from exc
        if np.min(np.abs(cb[1, :])) <= 1e-14:
            raise ArithmeticError("tridiagonal factorization has near-zero pivots")
        return cb


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
    cb, h = _factorized_operator(f)
    u_int = _solve_with_boundary(cb, f, h, -g1, g2)
    return np.concatenate(([g2[0]], u_int, [g2[1]]))


def _factorized_operator(f: np.ndarray):
    """Cholesky factor of -L_f restricted to interior nodes."""
    M = f.size - 2
    h = 1.0 / (M + 1)
    faces = 0.5 * (f[:-1] + f[1:])  # length M+1, face j+1/2 between nodes j, j+1
    diag = (faces[:-1] + faces[1:]) / h ** 2
    off = -faces[1:-1] / h ** 2
    return TridiagSystem(diag, off).factor(), h


def _solve_with_boundary(cb, f, h, rhs_neg, g2):
    """Solve (-L_f) u = rhs_neg with Dirichlet data folded into the right side."""
    faces = 0.5 * (f[:-1] + f[1:])
    b = rhs_neg.copy()
    b[0] += faces[0] * g2[0] / h ** 2
    b[-1] += faces[-1] * g2[1] / h ** 2
    return cho_solve_banded((cb, False), b)


def _apply_operator(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the discrete divergence-form operator L_c to w at interior nodes."""
    M = w.size - 2
    h = 1.0 / (M + 1)
    faces = 0.5 * (c[:-1] + c[1:])
    return (faces[1:] * (w[2:] - w[1:-1]) - faces[:-1] * (w[1:-1] - w[:-2])) / h ** 2


@dataclass
class LinearPhi:
    """The linear forward operator G(theta) = Phi(theta)."""

    basis: BasisFamily
    kind: str = field(default="linear-phi", init=False)

    def values(self, theta, x):
        return self.basis.design_matrix(x) @ np.asarray(theta, dtype=float)

    def grad_rows(self, theta, x):
        return self.basis.design_matrix(x)

    def dir_grad(self, theta, v, x):
        return self.basis.design_matrix(x) @ np.asarray(v, dtype=float)

    def dir_hess(self, theta, v, x):
        return np.zeros(np.atleast_1d(x).shape[0])


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
        self._E_grid = self.basis.design_matrix(self._grid)
        self._memo_key = None
        self._memo = None

    kind: str = field(default="darcy-1d", init=False)

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
        if np.any(~np.isfinite(f)):
            raise ValueError("conductivity overflow; theta too large")
        cb, h = _factorized_operator(f)
        u_int = _solve_with_boundary(cb, f, h, -self._g1_int, self.g2)
        u = np.concatenate(([self.g2[0]], u_int, [self.g2[1]]))
        self._memo_key, self._memo = key, (u, exp_phi, cb)
        return self._memo

    def solution(self, theta) -> np.ndarray:
        return self._state(theta)[0]

    def residual_inf_norm(self, theta) -> float:
        u, _, _ = self._state(theta)
        f = self.conductivity(theta)
        return float(np.max(np.abs(_apply_operator(f, u) - self._g1_int)))

    def values(self, theta, x):
        u = self.solution(theta)
        return np.interp(np.atleast_1d(np.asarray(x, dtype=float)), self._grid, u)

    def _dir_grad_nodes(self, theta, v):
        u, exp_phi, cb = self._state(theta)
        fv = exp_phi * (self._E_grid @ np.asarray(v, dtype=float))
        rhs = _apply_operator(fv, u)  # = L_{f_v} u at interior nodes
        w_int = cho_solve_banded((cb, False), rhs)  # solves (-L_f) w = L_{f_v} u
        return np.concatenate(([0.0], w_int, [0.0]))

    def dir_grad(self, theta, v, x):
        w = self._dir_grad_nodes(theta, v)
        return np.interp(np.atleast_1d(np.asarray(x, dtype=float)), self._grid, w)

    def grad_rows(self, theta, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = self.basis.p
        rows = np.empty((x.size, p))
        for k in range(p):
            v = np.zeros(p)
            v[k] = 1.0
            rows[:, k] = self.dir_grad(theta, v, x)
        return rows

    def dir_hess(self, theta, v, x):
        u, exp_phi, cb = self._state(theta)
        phiv = self._E_grid @ np.asarray(v, dtype=float)
        fv = exp_phi * phiv
        fv2 = exp_phi * phiv ** 2
        w1_int = cho_solve_banded((cb, False), _apply_operator(fv, u))
        w1 = np.concatenate(([0.0], -w1_int, [0.0]))  # L_f^{-1} L_{f_v} u
        w2_int = -cho_solve_banded((cb, False), _apply_operator(fv, w1))
        w3_int = -cho_solve_banded((cb, False), _apply_operator(fv2, u))
        nodes_int = 2.0 * w2_int - w3_int
        nodes = np.concatenate(([0.0], nodes_int, [0.0]))
        return np.interp(np.atleast_1d(np.asarray(x, dtype=float)), self._grid, nodes)
