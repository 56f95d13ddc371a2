"""Layer microbenchmarks at fixed inputs.

Each figure is the median per-call time over several batches, a batch being
sized to take about `BATCH_S`.  The likelihood and surrogate figures use the
model and theta_init of the workload's first cell; the forward figures use one
fixed Darcy operator so they read the same on every workload.
"""

from __future__ import annotations

import itertools
import statistics
import warnings
from time import perf_counter

import numpy as np

BATCH_S = 0.02
BATCHES = 9
EPSILON = 0.5  # the config default, at which the auto burn-in rule is reported


def per_call_us(fn) -> float:
    fn()
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        dt = perf_counter() - t0
        if dt >= BATCH_S / 4:
            break
        calls *= 4
    calls = max(1, round(calls * BATCH_S / dt))
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def likelihood_us(spec) -> dict:
    model, theta = spec.model, spec.theta_init
    p = model.p
    V = np.random.default_rng(0).standard_normal((p, 2 * p))
    V = np.concatenate([V / np.linalg.norm(V, axis=0), np.eye(p)], axis=1)
    return {
        "likelihood.log_lik.us": per_call_us(lambda: model.log_lik(theta)),
        "likelihood.grad_log_lik.us": per_call_us(lambda: model.grad_log_lik(theta)),
        "likelihood.hess_dir_many.us": per_call_us(lambda: model.hess_dir_many(theta, V)),
    }


def surrogate_us(spec) -> dict:
    """posterior_grad at 0.25, 0.6 and 2 eta from theta_init: one point in
    each of the inner, annulus and far-field regions."""
    u = np.random.default_rng(1).standard_normal(spec.model.p)
    u /= np.linalg.norm(u)
    out = {}
    for region, r in (("inner", 0.25), ("annulus", 0.6), ("far", 2.0)):
        theta = spec.theta_init + r * spec.eta * u
        out[f"surrogate.drift.{region}.us"] = per_call_us(lambda: spec.posterior_grad(theta))
    return out


def forward_us() -> dict:
    """One Darcy solve at a fresh theta, and the tangent and second-order
    solves at a solved theta, on the darcy-1d preset (p = 4, M = 256)."""
    from surrogate_langevin.basis import BasisFamily
    from surrogate_langevin.forward import Darcy1D

    p = 4
    op = Darcy1D(BasisFamily("dirichlet-sine", p), M=256)
    theta = 0.5 * np.arange(1, p + 1, dtype=float) ** -2.0
    x = np.linspace(0.0, 1.0, 500)
    v = np.ones(p) / np.sqrt(p)
    fresh = itertools.cycle([theta, theta + 1e-3]).__next__  # defeats the one-entry memo
    solve = per_call_us(lambda: op.solution(fresh()))
    op.solution(theta)
    return {
        "forward.solve.us": solve,
        "forward.grad_rows.us": per_call_us(lambda: op.grad_rows(theta, x)),
        "forward.dir_hess.us": per_call_us(lambda: op.dir_hess(theta, v, x)),
    }


def sampler_overhead_us(spec, steps: int = 20000, repeats: int = 5) -> float:
    """Per-step cost of run_chain with a zero drift, set up as run_cell sets
    up its chain (identity functional, exit tracking)."""
    from surrogate_langevin.sampler import SamplerConfig, run_chain

    zero = np.zeros(spec.model.p)
    config = SamplerConfig(gamma=1e-3, j_in=0, j=steps, seed=0)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        run_chain(lambda t: zero, spec.theta_init, config,
                  functionals={"identity": lambda t: t},
                  region_center=spec.theta_init, region_radius=spec.coincidence_radius)
        times.append((perf_counter() - t0) / steps)
    return 1e6 * statistics.median(times)


def auto_burn_in(cell) -> dict:
    """What the automatic burn-in rule would ask for on this cell at the
    default epsilon, and the certified precision floor it is held to."""
    from surrogate_langevin.sampler import burn_in_steps, discretization_bias, precision_floor

    r = cell.resolved
    bias = discretization_bias(r["gamma"], cell.p, r["m"], r["lambda"])
    floor = precision_floor(cell.n, r["delta_n"], bias)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        j_in = burn_in_steps(EPSILON, r["m"], r["gamma"], r["eta"], r["lambda_pi"],
                             cell.p, c_w=r["c_w"], floor=floor)
    return {"sampler.j_in_auto": j_in, "sampler.precision_floor": floor}


def all_layers(spec, cell) -> dict:
    out = {"sampler.overhead.us_per_step": sampler_overhead_us(spec)}
    out.update(likelihood_us(spec))
    out.update(forward_us())
    out.update(surrogate_us(spec))
    out.update(auto_burn_in(cell))
    return out
