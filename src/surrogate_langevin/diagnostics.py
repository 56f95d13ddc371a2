"""Ground-truth machinery: grid posteriors and their total-variation distance,
contraction and recovery metrics, condition numbers.

scipy is imported inside grid_posterior, the one function that calls it, so
importing the package does not load it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BoundaryMassError(ValueError):
    """The grid bounds truncate too much posterior mass."""

    def __init__(self, ratio, suggested_bounds):
        super().__init__(
            f"boundary mass ratio {ratio:.3e} exceeds 1e-8; "
            f"suggested bounds: {suggested_bounds}")
        self.ratio = ratio
        self.suggested_bounds = suggested_bounds


@dataclass
class GridPosterior:
    p: int
    bounds: tuple            # ((lo, hi),) per axis
    weights: np.ndarray = field(repr=False)
    mean: np.ndarray = None
    cov: np.ndarray = None


def grid_posterior(log_density, bounds, resolution) -> GridPosterior:
    """Tensor-grid posterior oracle for one- and two-dimensional targets.

    `log_density` maps a length-p vector, p = len(bounds), to the
    unnormalized log posterior; normalization is by log-sum-exp over the
    grid.  Raises ValueError when a grid value is NaN or +inf or none is
    finite (-inf is zero density), and BoundaryMassError (with widened
    suggested bounds) when the outermost grid shell carries a weight fraction
    above 1e-8.
    """
    from scipy.special import logsumexp

    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if isinstance(resolution, int):
        resolution = (resolution,) * len(bounds)
    p = len(bounds)
    if p not in (1, 2):
        raise ValueError("grid posterior supports p in {1, 2} only")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    logv = np.array([log_density(t) for t in pts]).reshape(grids[0].shape)
    if np.isnan(logv).any() or np.isposinf(logv).any():
        raise ValueError("log density is NaN or +inf on the grid")
    if not np.isfinite(logv).any():
        raise ValueError("log density is -inf on the whole grid")
    logz = logsumexp(logv)
    w = np.exp(logv - logz)
    w /= w.sum()

    # boundary-mass check on the outermost shell of grid points
    edge = np.ones(w.shape, dtype=bool)
    edge[(slice(1, -1),) * p] = False
    ratio = float(w[edge].sum())
    if ratio > 1e-8:
        widened = tuple((lo - (hi - lo), hi + (hi - lo)) for lo, hi in bounds)
        raise BoundaryMassError(ratio, widened)

    flat = w.ravel()
    mean = flat @ pts
    centered = pts - mean
    cov = (centered * flat[:, None]).T @ centered
    return GridPosterior(p=p, bounds=bounds, weights=w, mean=mean, cov=cov)


def grid_tv_distance(a: GridPosterior, b: GridPosterior) -> float:
    """Total-variation distance between two posteriors on the same grid."""
    if a.weights.shape != b.weights.shape:
        raise ValueError("grids must share shape")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def contraction_metric(samples, center, beta: float, big_l: float,
                       delta_n: float) -> float:
    """Fraction of samples with ||theta - center||^beta > L * delta_n."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    s = np.asarray(samples, dtype=float).reshape(-1, c.size)
    d = np.linalg.norm(s - c, axis=1)
    return float(np.mean(d ** beta > big_l * delta_n))


def condition_numbers(surrogate) -> tuple[float, float]:
    """(surrogate Lambda/m, prior Lambda_pi/m_pi)."""
    prior = surrogate.prior
    return surrogate.lam / surrogate.m, prior.lambda_pi / prior.m_pi


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


@dataclass
class RecoveryReport:
    n_grid: list
    errors: list                # median posterior-mean error per n
    slope: float
    target_rate: float          # alpha/(2 alpha + 1), as a negative exponent

    @classmethod
    def from_errors(cls, n_grid, errors, alpha: float) -> "RecoveryReport":
        """The report of the errors at the sample sizes n_grid; the slope is
        NaN with fewer than two sizes."""
        errors = [float(e) for e in errors]
        if any(e < 0 for e in errors):
            raise ValueError("errors must be nonnegative")
        slope = loglog_slope(n_grid, errors) if len(errors) >= 2 else float("nan")
        return cls(list(n_grid), errors, slope, -alpha / (2.0 * alpha + 1.0))
