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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisFamily
from .expfam import ExpFamily, LinkFunction, natural_param, natural_param_derivs
from .forward import LinearPhi


# Gauss-Legendre nodes on [0, 1] for the density model's log-partition integral.
QUADRATURE_NODES = 256

# Rows formatted and written at a time by write_float_csv.
CSV_BLOCK_ROWS = 1024

# Probe candidates that curvature_probe tests in one log_lik call, and whose
# kept points' Hessians it forms in one call of ModelInstance.hessians: it
# bounds the (block, n, p) arrays held at once.
PROBE_BLOCK = 16


@functools.cache
def _density_quadrature():
    """The QUADRATURE_NODES nodes and weights on [0, 1], built on first use and
    shared, read-only, by every density model."""
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    qx, qw = 0.5 * (t + 1.0), 0.5 * w
    qx.flags.writeable = qw.flags.writeable = False
    return qx, qw


def _log_partition(qw, phi_quad):
    """log of the quadrature sum of exp(phi_quad) with weights qw, shifted by
    the maximum, for one point's (Q,) values; phi_quad is not written.  The
    one log-partition of the gradient body and log_lik, in the operation
    order of ndarray.max, ndarray.sum and a fresh array per step: the
    maximum is phi_quad[phi_quad.argmax()], the first maximum, the float
    ndarray.max gives (NaN if there is one, up to its sign bit) at a third
    of the cost, and one scratch vector is exponentiated and weighted in
    place."""
    mx = phi_quad[phi_quad.argmax()]
    w = phi_quad - mx
    np.exp(w, out=w)
    w *= qw  # IEEE * commutes: the bits of qw * w
    return mx + np.log(np.add.reduce(w))


def _require_finite_resid(resid):
    """FloatingPointError unless every entry of the residual is finite; a
    NaN or inf entry makes resid.resid NaN or inf, so the element-wise test
    runs only then."""
    if not math.isfinite(resid.dot(resid)) and not np.isfinite(resid).all():
        raise FloatingPointError("non-finite likelihood gradient (overflowed natural parameter)")


# The bodies of grad_log_lik, one per model kind; ModelInstance binds its own
# arrays and functions to one of them once, with functools.partial.  None of
# them refers back to the model, so a model is freed by reference counting.

def _no_data_grad(p, theta):
    return np.zeros(p)


def _density_grad(E_quad, qw, data_sum, n, theta):
    """data_sum - n * (qw * exp(phi - log Z)) E_quad with phi = E_quad theta:
    each step in place on the output of the first gemv (ndarray.dot: the
    gemv of @, less dispatch), then of the second.  Every operation has the
    operands and order of the fresh-array formula, since IEEE * and + are
    commutative, so the bits are its bits."""
    w = E_quad.dot(theta)
    w -= _log_partition(qw, w)
    np.exp(w, out=w)
    w *= qw
    g = w.dot(E_quad)
    g *= n
    return np.subtract(data_sum, g, out=g)


def _linear_grad(E, y, A1, out, theta):
    """The canonical-link gradient with the LinearPhi design matrix E bound,
    the one regression body that skips the forward operator's protocol.  The
    natural parameter is u + 0.0, which differs from u only at -0.0, where
    every A' gives the bits it gives at 0.0; the canonical factor b' is
    exactly 1.0.  Where A' is a ufunc, u, A'(u) and the residual are
    written into the n-vector `out` in turn (the same bits as fresh arrays),
    else out is None."""
    if out is None:
        resid = y - A1(E.dot(theta))
    else:
        resid = np.subtract(y, A1(E.dot(theta, out=out), out=out), out=out)
    _require_finite_resid(resid)
    return resid.dot(E)


def _link_resid(y, family, link, u):
    """The residual (y - A'(b)) b' at the forward values u, b and b' from
    natural_param_derivs; the canonical link's (u + 0.0, 1.0) gives the bits
    of y - A'(u), as in _linear_grad."""
    b, q1 = natural_param_derivs(family, link, u, order=1)
    resid = (y - family._A1(b)) * q1
    _require_finite_resid(resid)
    return resid


def _forward_grad(forward, x, y, family, link, theta):
    """The gradient through any forward operator and link, by its protocol."""
    u = forward.values(theta, x)
    return _link_resid(y, family, link, u).dot(forward.grad_rows(theta, x))


def write_float_csv(path, header, values, index=None):
    """Write `header` and the rows of the 2-D float array `values` as CSV.

    The bytes are those of csv.writer with every value written as
    repr(float(v)), after an integer first column taken from `index` if it is
    given.  Rows are formatted and written CSV_BLOCK_ROWS at a time, each
    block with one % format of its cells in row order, so a long trace is
    never held as one string.
    """
    p = values.shape[1]
    width = p + (index is not None)
    # %r of a float is its repr; \r\n is csv.writer's line terminator
    row = ",".join(["%d"] * (index is not None) + ["%r"] * p) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(values), CSV_BLOCK_ROWS):
            block = values[lo:lo + CSV_BLOCK_ROWS]
            if index is None:
                cells = block.ravel().tolist()
            else:
                cells = [None] * (len(block) * width)
                cells[::width] = index[lo:lo + len(block)]
                for j in range(p):
                    cells[j + 1::width] = block[:, j].tolist()
            fh.write(row * len(block) % tuple(cells))


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
        # a read-only copy, so that a model's bound design matrix cannot go stale
        self.x = np.array(self.x, dtype=float)
        self.x.flags.writeable = False
        if self.x.shape != (self.n,):
            raise ValueError("length of x must equal n")
        if not np.isfinite(self.x).all():
            raise ValueError("design points x must be finite")
        if not ((self.x >= 0) & (self.x <= 1)).all():
            raise ValueError("design points must lie in [0, 1]")
        if self.kind == "regression":
            if self.y is None:
                raise ValueError("regression data needs responses y")
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != (self.n,):
                raise ValueError("length of y must equal n")
            if not np.isfinite(self.y).all():
                raise ValueError("responses y must be finite")

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
    skipped: int = 0


@dataclass
class ModelInstance:
    """A likelihood engine binding data, basis, family, link and forward operator.

    `_grad` is the body of grad_log_lik at a float array theta of shape (p,),
    unchecked, chosen once per model: no data, density, a canonical-link
    LinearPhi GLM with its design matrix bound (_linear_grad), or any other
    regression model through its forward operator's protocol
    (_forward_grad).  The link's rules are expfam's alone.  It runs under
    the caller's floating-point error state: grad_log_lik enters
    np.errstate(over="ignore", invalid="ignore") for one call, and
    sampler.run_chain for a whole chain, whose drift (the inner and annulus
    regions of SurrogateSpec.posterior_grad, or the vanilla drift) calls it
    directly.  Any other direct caller supplies its own.  An overflow leaves a non-finite residual, which raises
    FloatingPointError; a value outside the link's range or a Darcy state
    that cannot be solved raises a DomainError, which is one, here and in
    hessians.  Where the family's A' is a ufunc (poisson) the canonical
    LinearPhi body reuses one n-vector of the model, so a model is not to be
    shared across threads.

    A model counts its evaluations: `log_lik_calls` public log_lik calls
    and the `log_lik_rows` they evaluated (a point is one row, a block of B
    is B), `grad_log_lik_calls` grad_log_lik calls and `hessian_points`
    points passed to hessians.  Calls of `_grad` are not counted.
    """

    dataset: Dataset
    basis: BasisFamily
    family: ExpFamily | None
    link: LinkFunction | None
    forward: object | None

    def __post_init__(self):
        # Settled once here rather than on every call: the model kind, the
        # sample size and, for regression, the data.
        self._theta_shape = (self.basis.p,)
        self.log_lik_calls = self.log_lik_rows = 0
        self.grad_log_lik_calls = self.hessian_points = 0
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
        # the body of grad_log_lik (see the class docstring)
        if not self._n:
            self._grad = functools.partial(_no_data_grad, self.p)
        elif self._density:
            self._grad = functools.partial(_density_grad, self._E_quad, self._qw,
                                           self._grad_data_const, self._n)
        elif self.link.kind == "canonical" and isinstance(self.forward, LinearPhi):
            A1 = self.family._A1
            out = np.empty(self._n) if isinstance(A1, np.ufunc) else None
            self._grad = functools.partial(_linear_grad, self.forward._design(self._x),
                                           self._y, A1, out)
        else:
            self._grad = functools.partial(_forward_grad, self.forward, self._x, self._y,
                                           self.family, self.link)

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def n(self) -> int:
        return self.dataset.n

    # -- public likelihood surface -------------------------------------------

    def log_lik(self, theta):
        """l_n at each row of a (B, p) block, an array of B values; a point
        of shape (p,) is a one-row block, and gives a float.  -inf where l_n
        is not finite, the natural parameter is outside the link's range, or
        the forward solve fails."""
        theta = np.asarray(theta, dtype=float)
        block = theta.ndim == 2 and theta.shape[1] == self.p
        thetas = theta if block else self._check(theta)[None]
        self.log_lik_calls += 1
        self.log_lik_rows += len(thetas)
        values = self._log_lik_rows(thetas)
        return values if block else float(values[0])

    def _log_lik_rows(self, thetas) -> np.ndarray:
        """log_lik at each row of the (B, p) array thetas.  Each row's
        products are the one-point products, and the rest is elementwise or
        a reduction along the row, so every row has the bits of its own
        one-row block; a row outside the domain reads -inf.  A density row
        is the sum of its gemv to the data (ndarray.dot: the gemv of @, less
        dispatch) less n times the log-partition of its gemv to the nodes."""
        if self._n == 0 or not len(thetas):
            return np.zeros(len(thetas))
        if self._density:
            E_data, E_quad, qw, n = self._E_data, self._E_quad, self._qw, self._n
            return np.array([np.add.reduce(E_data.dot(t)) - n * _log_partition(qw, E_quad.dot(t))
                             for t in thetas])
        try:
            b = natural_param(self.family, self.link, self.forward.values(thetas, self._x))
        except ValueError:
            # a DomainError (a forward value outside the cube link's range
            # u > 0, a bernoulli-cube mean outside (0, 1), or a Darcy solve
            # that fails): a one-row block reads -inf, a longer one each row
            # as its own
            if len(thetas) == 1:
                return np.array([-np.inf])
            return np.concatenate([self._log_lik_rows(t[None]) for t in thetas])
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.add.reduce(self._y * b - self.family.A(b), -1)
        out[~np.isfinite(out)] = -np.inf
        return out

    def grad_log_lik(self, theta) -> np.ndarray:
        """grad l_n(theta); FloatingPointError where the natural parameter
        overflows, without a numpy warning."""
        theta = self._check(theta)
        self.grad_log_lik_calls += 1
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grad(theta)

    def hess_dir(self, theta, v) -> float:
        """Directional second derivative v' hess l_n(theta) v: the public
        single-direction form of hess_dir_many (perfbench/spans.py times it)."""
        return float(self.hess_dir_many(theta, np.asarray(v, dtype=float)[:, None])[0])

    def hess_dir_many(self, theta, V) -> np.ndarray:
        """v' hess l_n(theta) v for every column v of the (p, k) array V."""
        V = np.asarray(V, dtype=float)
        vals = ((self.hessians(self._check(theta)[None])[0] @ V) * V).sum(axis=0)
        if not np.isfinite(vals).all():
            raise FloatingPointError("non-finite directional Hessian")
        return vals

    def hessians(self, thetas) -> np.ndarray:
        """The Hessian of l_n at each row of the (B, p) array thetas, shape
        (B, p, p), with no work for B = 0; FloatingPointError where one is
        not finite.

        Density: -n (E_q' diag(w) E_q - m m'), with E_q the basis at the
        quadrature nodes, w the quadrature weights times p_theta there and
        m = w E_q, formed as -n (E_q - m)' diag(w) (E_q - m).  Regression:
        G' diag(r b'' - A''(b) b'^2) G plus the forward operator's
        contraction of s = r b' with hess G, where G holds the rows
        d G(theta)(x_i) / d theta and r = y - A'(b).
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.p:
            raise ValueError(f"thetas must have shape (B, {self.p}), got {thetas.shape}")
        self.hessian_points += len(thetas)
        if self._n == 0 or not len(thetas):
            return np.zeros((len(thetas), self.p, self.p))
        if self._density:
            E = self._E_quad
            phi = thetas @ E.T
            w = self._qw * np.exp(phi - phi.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            Ec = E - (w @ E)[:, None, :]  # centred rows e_q - m: no difference cancels
            H = -self._n * ((Ec.transpose(0, 2, 1) * w[:, None, :]) @ Ec)
        else:
            u, G, contract = self.forward.hess_terms(thetas, self._x)
            b, q1, q2 = natural_param_derivs(self.family, self.link, u)
            with np.errstate(over="ignore", invalid="ignore"):
                r = self._y - self.family.A1(b)
                s = r * q1
                # a non-finite weight makes the Hessian non-finite; the
                # Darcy contraction solves with s and must not see one
                if not np.isfinite(s).all():
                    raise FloatingPointError("non-finite Hessian")
                w = r * q2 - self.family.A2(b) * q1 ** 2
                H = (np.swapaxes(G, -1, -2) * w[:, None, :]) @ G + contract(s)
        if not np.isfinite(H).all():
            raise FloatingPointError("non-finite Hessian")
        H += H.transpose(0, 2, 1)  # symmetric to the last bit
        H *= 0.5
        return H

    def curvature_probe(self, center, eta, n_probes, seed) -> CurvatureReport:
        """Sample -v' hess l_n v over the ball B(center, eta).

        Each candidate draws its point, uniform in the ball, and then 2p
        random directions, whether or not it is kept.  Candidates are tested
        in fixed blocks of PROBE_BLOCK with one log_lik call each, so each is
        tested once; a point whose likelihood is not finite is skipped and
        counted.  The Hessians of a block's kept points are formed right
        after its test, so a skip-free Darcy block finds its states already
        solved.  Each kept point is probed in its 2p directions, normalised,
        and in the p coordinate directions.
        """
        center = np.asarray(center, dtype=float)
        if not 0 < eta < math.inf:  # NaN too
            raise ValueError("probe radius eta must be positive and finite")
        p = self.p
        rng = np.random.default_rng(seed)
        if self.n == 0:
            return CurvatureReport(0.0, 0.0, 0.0)
        points, V = np.empty((n_probes, p)), np.empty((n_probes, p, 2 * p))
        H, kept = np.empty((n_probes, p, p)), np.empty(n_probes, dtype=bool)
        for lo in range(0, n_probes, PROBE_BLOCK):
            block = slice(lo, lo + PROBE_BLOCK)
            for point, v in zip(points[block], V[block]):
                direction = rng.standard_normal(p)
                direction /= math.sqrt(direction.dot(direction))  # == np.linalg.norm
                point[:] = center + eta * rng.random() ** (1.0 / p) * direction
                rng.standard_normal(out=v)
            finite = kept[block] = np.isfinite(self.log_lik(points[block]))
            H[block][finite] = self.hessians(points[block][finite])
        H, V = H[kept], V[kept]
        lam_min = lam_max = 0.0
        if len(V):
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            vals = -np.concatenate([((H @ V) * V).sum(axis=1),
                                    np.diagonal(H, axis1=1, axis2=2)], axis=1)
            if not np.isfinite(vals).all():
                raise FloatingPointError("non-finite directional Hessian")
            lam_min, lam_max = float(vals.min()), float(vals.max())
        g = self.grad_log_lik(center)
        grad_norm = math.sqrt(g.dot(g))
        return CurvatureReport(lam_min, lam_max, grad_norm, n_probes - len(V))

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
