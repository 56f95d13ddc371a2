"""Convexified surrogate log-likelihood and its gradient.

The surrogate is

    lt(theta) = v(t/eta) (l(theta) - l(init)) + l(init) - K v_eta(t),
    t = ||theta - theta_init||,

with a smooth cutoff v that is 1 on [0, 3/4] and 0 on [7/8, inf), and a
convex penalty v_eta obtained by mollifying the hinge quadratic
gamma_eta(t) = (t - 5 eta/8)_+^2 with a symmetric bump of width eta/8.
Inside t <= eta/2 both corrections vanish identically, so the surrogate
equals the base log-likelihood there exactly (including its gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import CurvatureReport, ModelInstance
from .prior import SievePrior


CUTOFF_GRID_SIZE = 10_001  # grid on [3/4, 7/8] for the cutoff's derivative bounds
PENALTY_QUAD_NODES = 64  # Gauss-Legendre nodes of the penalty's mollifier quadrature


class ConfigurationError(ValueError):
    pass


def _transition(t):
    """t as a float array, the mask of its transition entries 3/4 < t < 7/8,
    and there s = 8 (7/8 - t), which lies in (0, 1), and the two bumps f(s)
    and f(1 - s), f(x) = exp(-1/x)."""
    t = np.asarray(t, dtype=float)
    inner = (t > 0.75) & (t < 0.875)
    s = (7.0 / 8.0 - t[inner]) * 8.0
    return t, inner, s, np.exp(-1.0 / s), np.exp(-1.0 / (1 - s))


def cutoff(t):
    """Smooth radial cutoff v: 1 for t <= 3/4, 0 for t >= 7/8, and between
    them psi(s) = f(s)/(f(s) + f(1-s)); NaN stays NaN."""
    t, inner, _, fs, f1 = _transition(t)
    out = np.where(t <= 0.75, 1.0, np.where(t >= 0.875, 0.0, t))
    out[inner] = fs / (fs + f1)
    return out[()]


def cutoff_deriv(t):
    """The cutoff's derivative v'."""
    t, inner, s, fs, f1 = _transition(t)
    out = np.zeros_like(t)
    d_fs = fs / s ** 2
    d_f1 = f1 / (1 - s) ** 2
    out[inner] = -8.0 * ((d_fs * f1 + fs * d_f1) / (fs + f1) ** 2)
    return out[()]


def _cutoff_c2_norm() -> float:
    """max(sup|v|, sup|v'|, sup|v''|) over the transition [3/4, 7/8], v'' by
    differences of v' on a CUTOFF_GRID_SIZE grid."""
    t = np.linspace(0.75, 0.875, CUTOFF_GRID_SIZE)
    v1 = cutoff_deriv(t)
    v2 = np.gradient(v1, t[1] - t[0])
    return float(max(np.max(np.abs(cutoff(t))), np.max(np.abs(v1)), np.max(np.abs(v2))))


CUTOFF_C2_NORM = _cutoff_c2_norm()


def _mollifier_quadrature():
    """Gauss-Legendre nodes z in (-1, 1) and the weights of the unit-mass bump
    exp(-1/(1 - z^2)) at them; the mollifier of width s = eta/8 uses the
    nodes s * z."""
    z, w = np.polynomial.legendre.leggauss(PENALTY_QUAD_NODES)
    wphi = w * np.exp(-1.0 / (1.0 - z ** 2))
    return z, wphi / np.sum(wphi)


_MOLLIFIER_Z, _MOLLIFIER_W = _mollifier_quadrature()


class MollifiedPenalty:
    """Convex penalty v_eta = phi_s * gamma_eta, the hinge quadratic
    gamma_eta(t) = (t - 5 eta/8)_+^2 mollified by a bump of width s = eta/8.

    From t = 3 eta/4 on the mollifier's support lies past the hinge, so
    v_eta(t) = (t - 5 eta/8)^2 + s^2 sigma2_phi and v_eta'(t) = 2 (t - 5 eta/8)
    exactly (the bump is symmetric).  Below, a fixed quadrature of the
    mollifier gives both; it is exactly 0 for t <= eta/2.  `eval` and `deriv`
    take one float t and return a float; a NaN t gives NaN and t = +inf
    gives +inf."""

    sigma2_phi = float(np.sum(_MOLLIFIER_W * _MOLLIFIER_Z ** 2))  # variance of the unit bump

    def __init__(self, eta: float):
        if not eta > 0:  # NaN too
            raise ValueError("eta must be positive")
        self.eta = float(eta)
        self.s = self.eta / 8.0
        self._nodes = self.s * _MOLLIFIER_Z  # the mollifier's nodes s z
        self._hinge_at = 5.0 * self.eta / 8.0
        self._tail_from = 0.75 * self.eta
        self._tail_offset = self.s ** 2 * self.sigma2_phi

    def eval(self, t: float) -> float:
        if t < self._tail_from:
            d = (t - self._nodes) - self._hinge_at
            return float(np.sum(_MOLLIFIER_W * np.where(d > 0, d * d, 0.0)))
        d = t - self._hinge_at
        return d * d + self._tail_offset

    def deriv(self, t: float) -> float:
        if t < self._tail_from:
            d = (t - self._nodes) - self._hinge_at
            return float(np.sum(_MOLLIFIER_W * np.where(d > 0, 2.0 * d, 0.0)))
        return 2.0 * (t - self._hinge_at)


def choose_K(probe: CurvatureReport, n: int, p: int, delta_n: float,
             exponents: tuple = (0.0, 0.5), override: float | None = None) -> float:
    """Penalty weight from the empirical curvature probe.

    Floor: 60 * c_hat_max * ||v||_C2 * n * (1 + p^kappa2), with c_hat_max
    estimated from the probe's Hessian maximum and center gradient norm and
    (kappa1, kappa2) = `exponents`, the model preset's (config.MODEL_PRESETS).
    A user override can only raise the result.
    """
    kappa1, kappa2 = exponents
    if probe.lambda_max_est <= 0.0 and probe.grad_norm_at_center <= 0.0:
        raise ConfigurationError("curvature probe is degenerate (no data?); cannot choose K")
    c_hat = max(probe.lambda_max_est / (n * p ** kappa2),
                probe.grad_norm_at_center / (n * delta_n * p ** kappa1))
    K = 60.0 * c_hat * CUTOFF_C2_NORM * n * (1.0 + p ** kappa2)
    if override is not None:
        K = max(K, float(override))
    return float(K)


@dataclass
class SurrogateSpec:
    """Surrogate log-likelihood lt and the constants it certifies.

    lambda_tilde = 7K, lambda_total = 7K + Lambda_pi and
    m_total = (probe curvature minimum) + m_pi.  `drift_calls` counts the
    posterior_grad calls made in each region of t = ||theta - theta_init||:
    "inner" (t <= eta/2, the exact likelihood), "annulus" (the blended cutoff)
    and "far" (t >= 7 eta/8, the penalty alone).
    """

    model: ModelInstance
    prior: SievePrior
    theta_init: np.ndarray
    eta: float
    K: float
    probe: CurvatureReport
    penalty: MollifiedPenalty = field(init=False)

    def __post_init__(self):
        self.theta_init = np.asarray(self.theta_init, dtype=float)
        if self.theta_init.shape != (self.model.p,):
            raise ValueError("theta_init has wrong length")
        if not (self.eta > 0 and self.K > 0):  # NaN too
            raise ValueError("eta and K must be positive")
        self.penalty = MollifiedPenalty(self.eta)
        self._inner_edge = 0.5 * self.eta
        self.drift_calls = {"inner": 0, "annulus": 0, "far": 0}
        self._ll_init = self.model.log_lik(self.theta_init)
        if not np.isfinite(self._ll_init):
            raise ValueError("log-likelihood is not finite at theta_init")

    # derived constants -------------------------------------------------------

    @property
    def m_curv(self) -> float:
        return self.probe.lambda_min_est

    @property
    def lambda_tilde(self) -> float:
        return 7.0 * self.K

    @property
    def m(self) -> float:
        return self.m_curv + self.prior.m_pi

    @property
    def lam(self) -> float:
        return self.lambda_tilde + self.prior.lambda_pi

    @property
    def coincidence_radius(self) -> float:
        """Radius 3 eta / 8 of the region where lt == l."""
        return 3.0 * self.eta / 8.0

    # evaluations --------------------------------------------------------------

    def log_lik(self, theta) -> float:
        theta = self.model._check(theta)
        diff = theta - self.theta_init
        t = math.sqrt(diff.dot(diff))  # == float(np.linalg.norm(diff))
        region = self._region(t)
        if region == "inner":
            # cutoff == 1 and penalty == 0 hold identically here; return the
            # base value directly so the region identity is exact in floats
            return self.model.log_lik(theta)
        pen = self.penalty.eval(t)
        vt = 0.0 if region == "far" else float(cutoff(t / self.eta))
        if vt == 0.0:
            return self._ll_init - self.K * pen
        ll = self.model.log_lik(theta)
        if not np.isfinite(ll):
            return -np.inf
        return vt * (ll - self._ll_init) + self._ll_init - self.K * pen

    def _region(self, t: float) -> str:
        """The region of drift_calls that t = ||theta - theta_init|| falls in."""
        if t <= self._inner_edge:
            return "inner"
        # the cutoff and its derivative are exactly 0 from 7/8 on
        return "far" if t / self.eta >= 0.875 else "annulus"

    def _grad(self, theta):
        """(region, grad lt(theta)) at a checked theta, under the caller's
        floating-point error state: inside, the likelihood gradient's body
        self.model._grad, looked up at each call; in the far field
        -K v_eta'(t) (diff / t)."""
        diff = theta - self.theta_init
        t = math.sqrt(diff.dot(diff))
        region = self._region(t)
        if region == "inner":
            return region, self.model._grad(theta)
        radial = diff / t
        out = -self.K * self.penalty.deriv(t) * radial
        if region == "far":
            return region, out
        s = t / self.eta
        vt = float(cutoff(s))
        dv = float(cutoff_deriv(s)) / self.eta
        if vt != 0.0 or dv != 0.0:
            ll = self.model.log_lik(theta)
            if not np.isfinite(ll):
                raise FloatingPointError("non-finite base likelihood inside the cutoff support")
            out = out + dv * (ll - self._ll_init) * radial
            if vt != 0.0:
                out = out + vt * self.model._grad(theta)
        return region, out

    def posterior_log_density(self, theta) -> float:
        """log of the (unnormalized) surrogate posterior density."""
        return self.log_lik(theta) + self.prior.log_density(theta)

    def posterior_grad(self, theta) -> np.ndarray:
        """The Langevin drift: grad lt + grad log prior, counted in
        `drift_calls` by its region.  _grad runs under the caller's
        floating-point error state: run_chain holds np.errstate(over="ignore",
        invalid="ignore") for the whole chain, and a direct caller supplies
        its own, or numpy warns of an overflow before FloatingPointError."""
        theta = self.model._check(theta)
        region, g = self._grad(theta)
        self.drift_calls[region] += 1
        return g + self.prior.grad_diag * theta
