"""Log-likelihood engines for regression and density estimation.

Regression (any forward operator G, exponential family, link g):

    l_n(theta) = sum_i [ Y_i b(theta)(X_i) - A(b(theta)(X_i)) ],
    b(theta) = (A')^{-1} o g^{-1} o G(theta).

Density estimation (centered basis):

    l_n(theta) = sum_i Phi(theta)(X_i) - n log int_0^1 exp(Phi(theta)),

with the log-partition and its derivatives computed by fixed Gauss-Legendre
quadrature, so that differentiation commutes with the nodes.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import BasisFamily
from .expfam import ExpFamily, LinkFunction, natural_param, natural_param_d1, natural_param_d2
from .forward import LinearPhi


# Gauss-Legendre nodes on [0, 1] for the density model's log-partition integral.
QUADRATURE_NODES = 256

# Rows formatted and written at a time by write_float_csv.
CSV_BLOCK_ROWS = 1024


@functools.cache
def _density_quadrature():
    """The QUADRATURE_NODES nodes and weights on [0, 1], built on first use and
    shared, read-only, by every density model."""
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    qx, qw = 0.5 * (t + 1.0), 0.5 * w
    qx.flags.writeable = qw.flags.writeable = False
    return qx, qw


def write_float_csv(path, header, values, index=None):
    """Write `header` and the rows of the 2-D float array `values` as CSV.

    The bytes are those of csv.writer with every value written as
    repr(float(v)), after an integer first column taken from `index` if it is
    given.  Rows are formatted and written CSV_BLOCK_ROWS at a time, so a long
    trace is never held as one string.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(values), CSV_BLOCK_ROWS):
            rows = values[lo:lo + CSV_BLOCK_ROWS].tolist()
            if index is None:
                lines = [",".join(map(repr, row)) for row in rows]
            else:
                lines = [",".join([str(i), *map(repr, row)])
                         for i, row in zip(index[lo:lo + CSV_BLOCK_ROWS], rows)]
            fh.write("\r\n".join(lines) + "\r\n")  # csv.writer's line terminator


@dataclass
class Dataset:
    """Observed data: design points x in [0,1] and responses y (regression)."""

    kind: str  # "regression" | "density"
    x: np.ndarray
    y: np.ndarray | None
    n: int
    truth_theta0: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("regression", "density"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        # a read-only copy: the forward operators may memoize on it by identity
        self.x = np.array(self.x, dtype=float)
        self.x.flags.writeable = False
        if self.x.shape != (self.n,):
            raise ValueError("length of x must equal n")
        if np.any((self.x < 0) | (self.x > 1)):
            raise ValueError("design points must lie in [0, 1]")
        if self.kind == "regression":
            if self.y is None:
                raise ValueError("regression data needs responses y")
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != (self.n,):
                raise ValueError("length of y must equal n")

    def save(self, path):
        """Write data as CSV plus a JSON metadata sidecar."""
        path = Path(path)
        if self.kind == "regression":
            write_float_csv(path, ["x", "y"], np.column_stack((self.x, self.y)))
        else:
            write_float_csv(path, ["x"], self.x[:, None])
        meta = {
            "kind": self.kind,
            "n": self.n,
            "seed": self.seed,
            "theta0": None if self.truth_theta0 is None else list(map(float, self.truth_theta0)),
        }
        path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def load(cls, path):
        path = Path(path)
        meta = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        columns = np.array(rows, dtype=float).reshape(-1, len(header)).T  # n = 0: no rows
        theta0 = None if meta["theta0"] is None else np.asarray(meta["theta0"])
        y = columns[1] if meta["kind"] == "regression" else None
        return cls(meta["kind"], columns[0], y, meta["n"], theta0, meta["seed"])


@dataclass
class CurvatureReport:
    """Empirical local curvature/boundedness probe over a ball."""

    lambda_min_est: float
    lambda_max_est: float
    grad_norm_at_center: float
    n_probes: int
    center: np.ndarray
    eta: float
    skipped: int = 0


@dataclass
class ModelInstance:
    """A likelihood engine binding data, basis, family, link and forward operator."""

    dataset: Dataset
    basis: BasisFamily
    family: ExpFamily | None
    link: LinkFunction | None
    forward: object | None

    def __post_init__(self):
        # Settled once here rather than on every call: the model kind, the
        # sample size and, for regression, the data and the link's form.
        self._theta_shape = (self.basis.p,)
        self._n = self.dataset.n
        self._density = self.dataset.kind == "density"
        if self._density:
            if self.basis.kind != "cosine-centered":
                raise ValueError("density estimation requires the cosine-centered basis")
            self._qx, self._qw = _density_quadrature()
            self._E_quad = self.basis.design_matrix(self._qx)
            if self._n:
                self._E_data = self.basis.design_matrix(self.dataset.x)
                self._grad_data_const = self._E_data.sum(axis=0)
        else:
            if self.forward is None:
                raise ValueError("regression model needs a forward operator")
            if self.forward.basis != self.basis:
                raise ValueError("the forward operator must use the model's basis")
            self._x, self._y = self.dataset.x, self.dataset.y
            self._canonical = self.link.kind == "canonical"
            self._A1 = self.family._A1  # the family's A', looked up once

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def kind(self) -> str:
        return self.dataset.kind

    # -- density internals ---------------------------------------------------

    def _log_partition(self, phi_quad):
        mx = phi_quad.max()
        return mx + np.log((self._qw * np.exp(phi_quad - mx)).sum())

    # -- public likelihood surface -------------------------------------------

    def log_lik(self, theta) -> float:
        theta = self._check(theta)
        if self._n == 0:
            return 0.0
        if self._density:
            phi_quad = self._E_quad.dot(theta)  # ndarray.dot: the gemv of @, less dispatch
            return float(self._E_data.dot(theta).sum() - self._n * self._log_partition(phi_quad))
        u = self.forward.values(theta, self._x)
        if self._canonical:
            b = u + 0.0
        else:
            try:
                b = natural_param(self.family, self.link, u)
            except ValueError:  # u outside the link's range: zero likelihood
                return -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self._y * b - self.family.A(b)
        total = terms.sum()
        return float(total) if np.isfinite(total) else -np.inf

    def grad_log_lik(self, theta) -> np.ndarray:
        """grad l_n(theta); FloatingPointError where the natural parameter
        overflows, without a numpy warning."""
        theta = self._check(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grad(theta)

    def _grad(self, theta) -> np.ndarray:
        """The body of grad_log_lik at a float array theta of shape (p,),
        unchecked.

        It runs under the caller's floating-point error state: grad_log_lik
        enters np.errstate(over="ignore", invalid="ignore") for one call, and
        sampler.run_chain for a whole chain, whose drift (the inner region of
        SurrogateSpec.posterior_grad, or the vanilla drift) calls this
        directly.  Any other direct caller supplies its own.  An overflow
        leaves a non-finite residual, which raises FloatingPointError.
        """
        if self._n == 0:
            return np.zeros(self.p)
        if self._density:
            phi_quad = self._E_quad.dot(theta)
            p_quad = np.exp(phi_quad - self._log_partition(phi_quad))
            return self._grad_data_const - self._n * (self._qw * p_quad).dot(self._E_quad)
        x = self._x
        u = self.forward.values(theta, x)
        if self._canonical:
            # the natural parameter is u + 0.0, which differs from u only at
            # -0.0, where every A' gives the bits it gives at 0.0; the
            # canonical factor natural_param_d1 is exactly 1.0
            resid = self._y - self._A1(u)
        else:
            b = self._natural_param(u)
            resid = (self._y - self._A1(b)) * natural_param_d1(self.family, self.link, u)
        # a NaN or inf entry makes resid.resid NaN or inf (see sampler._step)
        if not math.isfinite(resid.dot(resid)) and not np.isfinite(resid).all():
            raise FloatingPointError("non-finite likelihood gradient (overflowed natural parameter)")
        return resid.dot(self.forward.grad_rows(theta, x))

    def hess_dir(self, theta, v) -> float:
        """Directional second derivative v' hess l_n(theta) v: the public
        single-direction form of hess_dir_many (perfbench/spans.py times it)."""
        return float(self.hess_dir_many(theta, np.asarray(v, dtype=float)[:, None])[0])

    def hess_dir_many(self, theta, V) -> np.ndarray:
        """v' hess l_n(theta) v for every column v of the (p, k) array V."""
        theta = self._check(theta)
        V = np.asarray(V, dtype=float)
        if self._n == 0:
            return np.zeros(V.shape[1])
        if self._density:
            # -n times the variance of Phi(v) under p_theta, by quadrature
            phi_quad = self._E_quad @ theta
            wp = self._qw * np.exp(phi_quad - self._log_partition(phi_quad))
            PV = self._E_quad @ V
            vals = -self._n * (wp @ (PV - wp @ PV) ** 2)
        else:
            x = self._x
            u = self.forward.values(theta, x)
            b = self._natural_param(u)
            q1 = natural_param_d1(self.family, self.link, u)
            q2 = natural_param_d2(self.family, self.link, u)
            GU = self.forward.dir_grad(theta, V, x)  # (n, k)
            HU = self.forward.dir_hess(theta, V, x)
            with np.errstate(over="ignore", invalid="ignore"):
                r = self._y - self.family.A1(b)
                w_hess = r * q2 - self.family.A2(b) * q1 ** 2
                vals = w_hess @ GU ** 2 + (r * q1) @ HU
        if not np.isfinite(vals).all():
            raise FloatingPointError("non-finite directional Hessian")
        return vals

    def hess_matrix(self, theta) -> np.ndarray:
        """Full Hessian by polarization of directional forms (small p only)."""
        if self.p > 16:
            raise ValueError("full Hessian assembly is restricted to p <= 16")
        p = self.p
        eye = np.eye(p)
        i, j = np.triu_indices(p, 1)
        d = self.hess_dir_many(theta, np.concatenate([eye, eye[:, i] + eye[:, j]], axis=1))
        diag = d[:p]
        H = np.diag(diag)
        H[i, j] = H[j, i] = 0.5 * (d[p:] - diag[i] - diag[j])
        return H

    def curvature_probe(self, center, eta, n_probes, seed) -> CurvatureReport:
        """Sample -v' hess l_n v over the ball B(center, eta).

        Each probe point gets 2p random unit directions plus the p coordinate
        directions; points with non-finite likelihood are skipped and counted.
        """
        center = np.asarray(center, dtype=float)
        if eta <= 0:
            raise ValueError("probe radius eta must be positive")
        p = self.p
        rng = np.random.default_rng(seed)
        if self.n == 0:
            return CurvatureReport(0.0, 0.0, 0.0, n_probes, center, eta)
        lam_min, lam_max = np.inf, -np.inf
        skipped = 0
        for _ in range(n_probes):
            direction = rng.standard_normal(p)
            direction /= np.linalg.norm(direction)
            radius = eta * rng.random() ** (1.0 / p)
            theta = center + radius * direction
            if not np.isfinite(self.log_lik(theta)):
                skipped += 1
                continue
            V = rng.standard_normal((p, 2 * p))
            V /= np.linalg.norm(V, axis=0)
            V = np.concatenate([V, np.eye(p)], axis=1)
            vals = -self.hess_dir_many(theta, V)
            lam_min = min(lam_min, float(np.min(vals)))
            lam_max = max(lam_max, float(np.max(vals)))
        if not np.isfinite(lam_min):
            lam_min = lam_max = 0.0
        grad_norm = float(np.linalg.norm(self.grad_log_lik(center)))
        return CurvatureReport(lam_min, lam_max, grad_norm, n_probes, center, eta, skipped)

    def _natural_param(self, u):
        """natural_param at u; outside the link's range (u <= 0 for the cube
        link) FloatingPointError, so a chain's guard retries or it diverges."""
        try:
            return natural_param(self.family, self.link, u)
        except ValueError as exc:
            raise FloatingPointError(str(exc)) from None

    def _check(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self._theta_shape:
            raise ValueError(f"theta must have length p={self.p}, got shape {theta.shape}")
        return theta


def generate_data(basis: BasisFamily, theta0, n: int, seed,
                  kind: str = "regression",
                  family: ExpFamily | None = None,
                  link: LinkFunction | None = None,
                  forward=None) -> Dataset:
    """Draw a synthetic dataset from the model at theta0; deterministic per seed."""
    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(np.isfinite(theta0)):
        raise ValueError("theta0 must be finite")
    if n < 1:
        raise ValueError("need n >= 1 observations")
    rng = np.random.default_rng(seed)
    if kind == "density":
        grid = np.linspace(0.0, 1.0, 8193)
        logpdf = basis.design_matrix(grid) @ theta0
        pdf = np.exp(logpdf - np.max(logpdf))
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        x = np.interp(rng.random(n), cdf, grid)
        return Dataset("density", x, None, n, theta0, seed)
    x = rng.random(n)
    op = forward if forward is not None else LinearPhi(basis)
    u = op.values(theta0, x)
    try:
        b = natural_param(family, link, u)
    except ValueError as exc:
        raise ValueError(f"natural parameter out of range at theta0: {exc}") from exc
    if not np.all(np.isfinite(family.A(b))):
        raise ValueError("natural-parameter overflow at theta0; use a smaller ||theta0||")
    y = family.sample(b, rng)
    return Dataset("regression", x, y, n, theta0, seed)
