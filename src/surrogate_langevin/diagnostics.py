"""Ground-truth machinery: grid posteriors, exact empirical W2, contraction
and recovery metrics, condition numbers, exit-time summaries.

scipy is imported inside the two functions that call it, so importing the
package does not load it."""

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
    resolution: tuple        # points per axis
    axes: list = field(repr=False)
    log_values: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mean: np.ndarray = None
    cov: np.ndarray = None

    def marginal_std(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def sample_inverse_cdf(self, n_samples: int) -> np.ndarray:
        """Deterministic quantile-grid samples (1-D grids only).

        Uses the quantiles (i + 0.5)/n_samples of the piecewise-constant CDF,
        so two posteriors produce comparable sample sets with no Monte Carlo
        noise.
        """
        if self.p != 1:
            raise ValueError("inverse-CDF sampling is implemented for p = 1 only")
        x = self.axes[0]
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        q = (np.arange(n_samples) + 0.5) / n_samples
        samples = np.interp(q, cdf, x)
        return samples[:, None]


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
    return GridPosterior(p=p, bounds=bounds, resolution=tuple(resolution),
                         axes=axes, log_values=logv, weights=w,
                         mean=mean, cov=cov)


def grid_tv_distance(a: GridPosterior, b: GridPosterior) -> float:
    """Total-variation distance between two posteriors on the same grid."""
    if a.weights.shape != b.weights.shape:
        raise ValueError("grids must share shape")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def empirical_w2(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Exact empirical Wasserstein-2 via optimal assignment.

    W2^2 between two empirical measures with equal counts equals the minimum
    over matchings of the mean squared pair distance.
    """
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape != b.shape:
        raise ValueError(f"sample shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n > 2048:
        raise ValueError("assignment W2 limited to N <= 2048 samples")
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


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


@dataclass
class ExitTimeSummary:
    n_traces: int
    n_exited: int
    fraction_exited: float
    quantiles: dict             # {0.1, 0.5, 0.9} over exit steps (exited traces)


def exit_time_stats(traces) -> ExitTimeSummary:
    traces = list(traces)
    if len(traces) < 10:
        raise ValueError("need at least 10 traces for exit statistics")
    steps = [t.exit_step for t in traces if t.exit_step is not None]
    q = {}
    if steps:
        arr = np.asarray(steps, dtype=float)
        for level in (0.1, 0.5, 0.9):
            q[level] = float(np.quantile(arr, level))
    return ExitTimeSummary(len(traces), len(steps),
                           len(steps) / len(traces), q)
