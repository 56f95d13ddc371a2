"""Experiment harness: run (n, p, seed) cells from a validated config and emit
CSV reports plus a manifest of every resolved numeric parameter."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import BasisFamily
from .config import MODEL_PRESETS, ExperimentConfig
from .diagnostics import (RecoveryReport, condition_numbers, contraction_metric,
                          grid_posterior, grid_tv_distance)
from .diagnostics import loglog_slope  # noqa: F401  (perfbench/spans.py times it from here)
from .expfam import ExpFamily, LinkFunction
from .forward import Darcy1D, LinearPhi
from .initializers import (oracle_perturbed_init, oracle_projection_init,
                           pilot_ascent_init)
from .likelihood import ModelInstance, generate_data, write_float_csv
from .prior import SievePrior
from .sampler import (ChainDivergedError, SamplerConfig, burn_in_steps,
                      discretization_bias, precision_floor, run_chain,
                      step_size_bound)
from .surrogate import ConfigurationError, SurrogateSpec, choose_K

# Per-cell trace CSVs are written only for runs of at most this many cells.
TRACE_CELL_LIMIT = 64

REPORT_COLUMNS = [
    "n", "p", "seed", "status", "gamma", "j_in", "j", "kappa_const", "eta",
    "m", "lambda", "delta_n", "exit_step", "mean_error", "contraction_fraction",
    "cond_surrogate", "cond_prior", "grid_tv", "message",
    "guard_trigger_count", "drift_calls_inner", "drift_calls_annulus", "drift_calls_far",
]


@dataclass
class CellResult:
    n: int
    p: int
    seed: int
    status: str = "ok"
    message: str = ""
    resolved: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace: object = None

    def row(self) -> list:
        """The report.csv row: counts and text as is, reals as repr(float(v)), "" if missing."""
        values = {"n": self.n, "p": self.p, "seed": self.seed, "status": self.status,
                  "message": self.message, **self.resolved, **self.metrics}
        return ["" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else v
                for v in map(values.get, REPORT_COLUMNS)]


def json_scalar(v):
    """A resolved value or metric as written to JSON: integer counts as int,
    reals as float, flags as bool; None and anything else unchanged."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def build_model(cfg: ExperimentConfig, n: int, p: int, seed: int):
    """Generate data and assemble the likelihood engine for one cell."""
    preset = MODEL_PRESETS[cfg.model_preset]
    basis = BasisFamily(preset.basis, p)
    family = ExpFamily(preset.family) if preset.family else None
    link = LinkFunction(preset.link) if preset.link else None
    theta0 = cfg.theta0_for(p)
    if cfg.model_preset == "darcy-1d":
        forward = Darcy1D(basis, M=cfg.darcy_mesh, f_min=cfg.darcy_f_min,
                          g1=cfg.darcy_source, g2=cfg.darcy_boundary)
    elif preset.kind == "regression":
        forward = LinearPhi(basis)
    else:
        forward = None
    dataset = generate_data(basis, theta0, n, seed, kind=preset.kind, family=family,
                            link=link, forward=forward)
    return ModelInstance(dataset, basis, family, link, forward), theta0


def resolve_cell(cfg: ExperimentConfig, model, theta0, seed: int):
    """Resolve every rule to numbers: init point, eta, K, gamma, J_in, and the
    certified precision floor that the requested epsilon is checked against.

    Returns (surrogate, theta_star, resolved, init_info).  With theta0=None
    (real data, no truth) theta_star is None and only pilot-ascent applies;
    init_info is the pilot ascent's report, empty for the oracle inits.
    """
    n, p = model.n, model.p
    prior = SievePrior(cfg.alpha, n, p)
    eta = cfg.eta_for(p)
    delta_n = cfg.delta_n(n)
    theta_star = None if theta0 is None else oracle_projection_init(theta0, p)
    init_info = {}
    if cfg.init_mode == "oracle-projection":
        theta_init = theta_star
    elif cfg.init_mode == "oracle-perturbed":
        theta_init = oracle_perturbed_init(theta0, p, cfg.init_rho, eta, seed)
    else:
        theta_init, init_info = pilot_ascent_init(model, prior, theta_star=theta_star,
                                                  eta=eta)
    probe = model.curvature_probe(theta_init, eta, cfg.n_probes, seed)
    kappa = choose_K(probe, n, p, delta_n, MODEL_PRESETS[cfg.model_preset].exponents,
                     override=cfg.k_override)
    surrogate = SurrogateSpec(model, prior, theta_init, eta, kappa, probe)
    if surrogate.m <= 0:
        raise ConfigurationError(
            f"the curvature probe reads a negative minimum curvature "
            f"{probe.lambda_min_est:g} around theta_init (m = {surrogate.m:g} with the "
            "prior): the likelihood is not concave there, so no step size or burn-in "
            "can be certified")
    bounds = step_size_bound(surrogate.m, surrogate.lam)
    if cfg.gamma_rule == "fixed":
        gamma = cfg.gamma_value
    else:
        gamma = cfg.gamma_fraction * (bounds[0] if cfg.gamma_bound == "sampling" else bounds[1])
    bias = discretization_bias(gamma, p, surrogate.m, surrogate.lam)
    floor = precision_floor(n, delta_n, bias)
    if cfg.j_in_rule == "fixed":
        j_in = cfg.j_in_value
    else:
        j_in = burn_in_steps(cfg.epsilon, surrogate.m, gamma, eta,
                             prior.lambda_pi, p, c_w=cfg.c_w, floor=floor)
    resolved = {
        "gamma": gamma, "j_in": j_in, "j": cfg.j, "kappa_const": kappa,
        "eta": eta, "m": surrogate.m, "lambda": surrogate.lam,
        "delta_n": delta_n, "m_pi": prior.m_pi, "lambda_pi": prior.lambda_pi,
        "step_bound_sampling": bounds[0], "step_bound_exit": bounds[1],
        "c_w": cfg.c_w, "epsilon": cfg.epsilon,
        "precision_floor": floor, "epsilon_below_floor": cfg.epsilon < floor,
        "probe_skipped": probe.skipped,
    }
    return surrogate, theta_star, resolved, init_info


def sample_cell(cfg: ExperimentConfig, surrogate, resolved, region_center, seed: int):
    """Run the cell's ULA chain on the drift `cfg.variant` names.

    The identity functional gives the posterior mean; the exit step is taken
    from the coincidence ball around `region_center`.  The vanilla drift, like
    posterior_grad in its inner region, calls ModelInstance._grad directly,
    under run_chain's floating-point error state.
    """
    if cfg.variant == "surrogate":
        drift = surrogate.posterior_grad
    else:
        grad, prior = surrogate.model._grad, surrogate.prior
        drift = lambda t: grad(t) + prior.grad_log_density(t)
    sconf = SamplerConfig(gamma=resolved["gamma"], j_in=resolved["j_in"], j=cfg.j,
                          seed=seed, guard=cfg.guard, guard_radius=cfg.guard_radius)
    return run_chain(drift, surrogate.theta_init, sconf,
                     functionals={"identity": lambda t: t},
                     region_center=region_center,
                     region_radius=surrogate.coincidence_radius,
                     storage_budget=cfg.thinning_budget)


def run_cell(cfg: ExperimentConfig, n: int, seed: int) -> CellResult:
    p = cfg.p_for(n)
    result = CellResult(n=n, p=p, seed=seed)
    try:
        model, theta0 = build_model(cfg, n, p, seed)
        surrogate, theta_star, resolved, _ = resolve_cell(cfg, model, theta0, seed)
        result.resolved = resolved
        trace = sample_cell(cfg, surrogate, resolved, theta_star, seed)
        result.trace = trace
        mean = trace.ergodic_average("identity")
        result.metrics["exit_step"] = trace.exit_step
        result.metrics["guard_trigger_count"] = trace.guard_trigger_count
        if cfg.variant == "surrogate":  # the vanilla drift bypasses SurrogateSpec.drift_calls
            for region, calls in surrogate.drift_calls.items():
                result.metrics[f"drift_calls_{region}"] = calls
        result.metrics["mean_error"] = float(np.linalg.norm(mean - theta_star))
        if "contraction" in cfg.diagnostics:
            beta = ((cfg.alpha + 1.0) / (cfg.alpha - 1.0)
                    if cfg.model_preset == "darcy-1d" else 1.0)
            result.metrics["contraction_fraction"] = contraction_metric(
                trace.post_burn_in_states(), theta_star, beta, 10.0,
                resolved["delta_n"])
        if "condition-numbers" in cfg.diagnostics:
            cs, cp = condition_numbers(surrogate)
            result.metrics["cond_surrogate"] = cs
            result.metrics["cond_prior"] = cp
        if "grid-posterior" in cfg.diagnostics and p == 1:
            half = max(6.0 / np.sqrt(surrogate.m), 4 * surrogate.eta)
            bounds = ((theta_star[0] - half, theta_star[0] + half),)
            g_sur = grid_posterior(surrogate.posterior_log_density, bounds, (1024,))
            g_true = grid_posterior(
                lambda t: model.log_lik(t) + surrogate.prior.log_density(t),
                bounds, (1024,))
            result.metrics["grid_tv"] = grid_tv_distance(g_sur, g_true)
    except Exception as exc:  # cell failures must not abort the experiment
        result.status = "diverged" if isinstance(exc, ChainDivergedError) else "failed"
        result.message = f"{type(exc).__name__}: {exc}"
    return result


def _run_cell_star(args):
    return run_cell(*args)


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed_offset: int = 0,
                   jobs: int = 1):
    """Execute all (n, seed) cells; returns (results, manifest path).

    Every cell writes into the report CSV; failures are recorded per cell and
    never abort the run.  A manifest echoes the configuration and each cell's
    resolved parameters.  `jobs` worker processes run the cells; 1 runs them
    in this process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(cfg, n, seed + seed_offset) for n in cfg.n_grid for seed in cfg.seeds]
    if jobs > 1:
        # imported here, so that a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell_star, cells))
    else:
        results = [run_cell(*c) for c in cells]

    report_path = out / "report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in results:
            writer.writerow(r.row())

    if "recovery" in cfg.diagnostics:
        _write_recovery(out, cfg, results)

    manifest = {
        "config": vars(cfg),  # json writes the tuples as lists
        "seed_offset": seed_offset,
        "traces": {"cell_limit": TRACE_CELL_LIMIT,
                   "skipped": len(cells) > TRACE_CELL_LIMIT},
        "cells": [
            {"n": r.n, "p": r.p, "seed": r.seed, "status": r.status,
             "resolved": {k: json_scalar(v) for k, v in r.resolved.items()},
             "metrics": {k: json_scalar(v) for k, v in r.metrics.items()}}
            for r in results
        ],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    if len(cells) <= TRACE_CELL_LIMIT:
        for r in results:
            if r.trace is not None:
                _write_trace(out / f"trace_n{r.n}_p{r.p}_seed{r.seed}.csv", r)
    return results, report_path


def _write_recovery(out: Path, cfg: ExperimentConfig, results):
    """recovery.csv: the RecoveryReport of the ok cells' median mean error per n."""
    by_n = {}
    for r in results:
        if r.status == "ok":
            by_n.setdefault(r.n, []).append(r.metrics["mean_error"])
    ns = sorted(by_n)
    rep = RecoveryReport.from_errors(ns, [np.median(by_n[n]) for n in ns], cfg.alpha)
    with open(out / "recovery.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "median_mean_error", "fitted_slope", "target_rate"])
        for n, err in zip(rep.n_grid, rep.errors):
            writer.writerow([n, repr(err), repr(rep.slope), repr(rep.target_rate)])


def _write_trace(path: Path, result: CellResult):
    trace = result.trace
    steps = range(0, len(trace.states) * trace.stride, trace.stride)
    write_float_csv(path, ["step"] + [f"coord_{k + 1}" for k in range(result.p)],
                    trace.states, index=steps)
    meta = {"seed": trace.seed, "gamma": trace.gamma, "j_in": trace.j_in,
            "j": trace.j, "exit_step": trace.exit_step,
            "guard_trigger_count": trace.guard_trigger_count,
            "stride": trace.stride}
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2))
