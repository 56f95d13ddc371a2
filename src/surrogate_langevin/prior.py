"""Rescaled Gaussian sieve prior N(0, n^{-1/(2a+1)} Sigma_a^{-1})."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SievePrior:
    """Truncated Gaussian series prior on the first p coefficients.

    Covariance is diagonal with entries n^{-1/(2*alpha+1)} k^{-2*alpha},
    k = 1..p.  The log-density (up to its normalizing constant) is
    m_pi-strongly concave with lambda_pi-Lipschitz gradient, where
    m_pi = n^{1/(2*alpha+1)} and lambda_pi = n^{1/(2*alpha+1)} p^{2*alpha}.
    Its gradient is grad_diag * theta.
    """

    alpha: float
    n: int
    p: int
    sigma_alpha_diag: np.ndarray = field(init=False, repr=False)
    grad_diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.5 < self.alpha < math.inf:  # NaN too
            raise ValueError(f"smoothness alpha must exceed 1/2 and be finite, got {self.alpha}")
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive integers")
        diag = np.arange(1, self.p + 1, dtype=float) ** (2.0 * self.alpha)
        object.__setattr__(self, "sigma_alpha_diag", diag)
        object.__setattr__(self, "grad_diag", -self.scale * diag)

    @property
    def scale(self) -> float:
        """The rescaling factor n^{1/(2*alpha+1)}."""
        return float(self.n) ** (1.0 / (2.0 * self.alpha + 1.0))

    @property
    def m_pi(self) -> float:
        return self.scale

    @property
    def lambda_pi(self) -> float:
        return self.scale * float(self.p) ** (2.0 * self.alpha)

    def log_density(self, theta) -> float:
        """Log prior density up to an additive normalizing constant."""
        theta = self._check(theta)
        return -0.5 * self.scale * float(theta @ (self.sigma_alpha_diag * theta))

    def grad_log_density(self, theta) -> np.ndarray:
        """Gradient of the log prior density: -n^{1/(2a+1)} Sigma_a theta."""
        theta = self._check(theta)
        return self.grad_diag * theta  # == -self.scale * self.sigma_alpha_diag * theta

    def _check(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have length p={self.p}, got shape {theta.shape}")
        return theta
