"""Chain initialization strategies.

Synthetic runs can start from the truth projection (or a bounded perturbation
of it); the no-oracle workflow uses a pilot gradient ascent on the
unnormalized log posterior.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_projection_init(theta0: np.ndarray, p: int) -> np.ndarray:
    """First p coefficients of the data-generating truth (synthetic only)."""
    theta0 = np.asarray(theta0, dtype=float)
    out = np.zeros(p)
    out[: min(p, theta0.size)] = theta0[: min(p, theta0.size)]
    return out


def oracle_perturbed_init(theta0: np.ndarray, p: int, rho: float, eta: float,
                          seed: int) -> np.ndarray:
    """Truth projection plus a uniform-ball perturbation of radius rho <= eta/8."""
    if not 0 <= rho <= eta / 8.0:  # NaN too
        raise ValueError(f"perturbation radius {rho:g} is not in [0, eta/8 = {eta / 8.0:g}]")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(p)
    direction /= np.linalg.norm(direction)
    radius = rho * rng.uniform() ** (1.0 / p)
    return oracle_projection_init(theta0, p) + radius * direction


def pilot_ascent_init(model, prior, steps: int = 500, rate: float = None):
    """Backtracking gradient ascent on log-likelihood + log prior from zero.

    Each distinct point is evaluated once: the objective is looked up by the
    exact bytes of the point (so -0.0 and 0.0 stay apart), and the gradient
    is recomputed only where an accepted step moves theta.  Once theta stops
    moving, its candidates repeat earlier bytes and cost a dict lookup.

    Returns (theta, info) where info reports the final objective and gradient
    norm, the distinct objective evaluations (objective_evals), the gradient
    evaluations (gradient_evals), the step at which theta last changed
    (last_move, 0 if it never did).
    """
    p = model.basis.p
    theta = np.zeros(p)
    values = {}  # point bytes -> objective; at most steps + 1 entries

    def objective(t):
        key = t.tobytes()
        if key not in values:
            values[key] = model.log_lik(t) + prior.log_density(t)
        return values[key]

    def gradient(t):
        return model.grad_log_lik(t) + prior.grad_log_density(t)

    obj = objective(theta)
    if not math.isfinite(obj):
        raise ValueError("log posterior is non-finite at the zero start")
    step = rate if rate is not None else 1.0 / max(model.dataset.n, 1)
    consecutive_failures = 0
    g = gradient(theta)  # computed again only where theta moves
    gnorm = math.sqrt(g.dot(g))  # == np.linalg.norm(g)
    gradient_evals, last_move = 1, 0
    for k in range(1, steps + 1):
        if gnorm < 1e-12:
            break
        candidate = theta + step * g
        cobj = objective(candidate)
        if math.isfinite(cobj) and cobj >= obj:
            if candidate.tobytes() != theta.tobytes():  # theta moves
                g = gradient(candidate)
                gnorm = math.sqrt(g.dot(g))
                gradient_evals, last_move = gradient_evals + 1, k
            theta, obj = candidate, cobj
            step *= 1.5
            consecutive_failures = 0
        else:
            step *= 0.5
            consecutive_failures += 1
            if consecutive_failures >= 50:
                raise RuntimeError(
                    "pilot ascent failed 50 consecutive backtracking steps")
    info = {"objective": float(obj), "grad_norm": gnorm,
            "objective_evals": len(values), "gradient_evals": gradient_evals,
            "last_move": last_move}
    return theta, info
