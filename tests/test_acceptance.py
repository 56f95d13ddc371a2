"""End-to-end acceptance suite.

Each test covers one headline guarantee of the toolkit and prints a single
PASS/FAIL line with the measured quantities.  Tolerances are fixed here and
are not tuned per run; seeds are pinned for reproducibility.
"""

import math

import numpy as np

from _oracles import empirical_w2, sample_inverse_cdf, surrogate_grad
from surrogate_langevin.basis import BasisFamily
from surrogate_langevin.config import ExperimentConfig
from surrogate_langevin.diagnostics import (condition_numbers, grid_posterior,
                                            grid_tv_distance, loglog_slope)
from surrogate_langevin.expfam import ExpFamily, LinkFunction
from surrogate_langevin.experiment import run_experiment
from surrogate_langevin.forward import Darcy1D, LinearPhi, _solve_dirichlet
from surrogate_langevin.initializers import oracle_projection_init
from surrogate_langevin.likelihood import ModelInstance, generate_data
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.sampler import (SamplerConfig, burn_in_steps,
                                        run_chain, step_size_bound)
from surrogate_langevin.surrogate import SurrogateSpec, choose_K


def _verdict(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def build_glm(n, p, family="gaussian", link="canonical", seed=0, scale=0.5,
              eta=None, n_probes=100):
    """Data + likelihood + surrogate around the truth projection."""
    basis = BasisFamily("cosine-with-constant", p)
    theta0 = scale * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily(family), LinkFunction(link)
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk)
    model = ModelInstance(ds, basis, fam, lk, LinearPhi(basis))
    prior = SievePrior(1.0, n, p)
    theta_star = oracle_projection_init(theta0, p)
    eta = eta if eta is not None else p ** -0.5
    probe = model.curvature_probe(theta_star, eta, n_probes, seed)
    kappa = choose_K(probe, n, p, n ** (-1.0 / 3.0))
    spec = SurrogateSpec(model, prior, theta_star, eta, kappa, probe)
    return spec, theta_star


def epsilon_for_burn_in(spec, gamma, j_target, c_w=1.0):
    """Precision level whose certified burn-in equals j_target steps.

    The contraction bound gives J_in = log(eps^2/denom)/log(1 - m gamma/2);
    inverting it turns a step budget into the precision it certifies.
    """
    prior, p = spec.prior, spec.model.p
    denom = 32.0 * (c_w * max(spec.eta, prior.lambda_pi / spec.m) ** 2 + p / spec.m)
    return math.sqrt(denom) * (1.0 - spec.m * gamma / 2.0) ** (j_target / 2.0)


# -- 1. inside the coincidence ball the surrogate IS the likelihood -------------

def test_criterion_01_region_identity():
    worst_val, worst_grad = 0.0, 0.0
    rng = np.random.default_rng(101)
    for family in ("gaussian", "poisson", "bernoulli"):
        spec, theta_star = build_glm(300, 4, family=family, seed=1)
        radius = 3.0 * spec.eta / 8.0
        for _ in range(334):
            d = rng.standard_normal(4)
            d *= radius * rng.random() / np.linalg.norm(d)
            theta = theta_star + d
            worst_val = max(worst_val,
                            abs(spec.log_lik(theta) - spec.model.log_lik(theta)))
            worst_grad = max(worst_grad, np.max(np.abs(
                surrogate_grad(spec, theta) - spec.model.grad_log_lik(theta))))
    ok = worst_val <= 1e-12 and worst_grad <= 1e-12
    _verdict("criterion 1 (surrogate equals likelihood on the coincidence ball)",
             ok, f"max |value diff| {worst_val:.2e}, max |grad diff| {worst_grad:.2e}")


# -- 2. global strong concavity and gradient Lipschitz envelope ----------------

def test_criterion_02_concavity_and_lipschitz():
    rng = np.random.default_rng(102)
    worst_curv_margin = -np.inf  # max of (second difference + m/2); must stay <= 0
    worst_lip_ratio = 0.0        # max of ||grad diff|| / (7K ||a-b||); must stay <= 1.05
    for family in ("gaussian", "poisson"):
        spec, theta_star = build_glm(300, 4, family=family, seed=2)
        eta, m, lip = spec.eta, spec.m, 7.0 * spec.K
        eps = 1e-3 * eta

        def logpost(th):
            return spec.log_lik(th) + spec.prior.log_density(th)

        for _ in range(500):
            d = rng.standard_normal(4)
            theta = theta_star + 4.0 * eta * rng.random() * d / np.linalg.norm(d)
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            d2 = (logpost(theta + eps * v) - 2.0 * logpost(theta)
                  + logpost(theta - eps * v)) / eps ** 2
            worst_curv_margin = max(worst_curv_margin, d2 + m / 2.0)
            d2b = rng.standard_normal(4)
            other = theta_star + 4.0 * eta * rng.random() * d2b / np.linalg.norm(d2b)
            num = np.linalg.norm(surrogate_grad(spec, theta) - surrogate_grad(spec, other))
            worst_lip_ratio = max(worst_lip_ratio,
                                  num / (lip * np.linalg.norm(theta - other)))
    ok = worst_curv_margin <= 0.0 and worst_lip_ratio <= 1.05
    _verdict("criterion 2 (strong concavity -m/2 and Lipschitz envelope 7K)",
             ok, f"max second-diff margin {worst_curv_margin:.3e}, "
                 f"max Lipschitz ratio {worst_lip_ratio:.3f}")


# -- 3. every analytic derivative matches finite differences -------------------

def _density_model(n, p, seed):
    basis = BasisFamily("cosine-centered", p)
    theta0 = 0.4 * np.arange(1, p + 1, dtype=float) ** -2
    ds = generate_data(basis, theta0, n, seed, kind="density")
    return ModelInstance(ds, basis, None, None, None), theta0


def _darcy_model(n, p, seed, M=64):
    basis = BasisFamily("dirichlet-sine", p)
    theta0 = 0.4 * np.arange(1, p + 1, dtype=float) ** -2
    fam, lk = ExpFamily("gaussian"), LinkFunction("canonical")
    op = Darcy1D(basis, M=M)
    ds = generate_data(basis, theta0, n, seed, family=fam, link=lk, forward=op)
    return ModelInstance(ds, basis, fam, lk, op), theta0


def _glm_builder(family, link="canonical"):
    def build():
        basis = BasisFamily("cosine-with-constant", 3)
        theta0 = 0.5 * np.arange(1, 4, dtype=float) ** -2
        fam, lk = ExpFamily(family), LinkFunction(link)
        ds = generate_data(basis, theta0, 200, 3, family=fam, link=lk)
        return ModelInstance(ds, basis, fam, lk, LinearPhi(basis)), theta0
    return build


def test_criterion_03_derivative_oracles():
    from _oracles import darcy_values_longdouble

    builders = [
        ("glm-gaussian", _glm_builder("gaussian")),
        ("glm-poisson", _glm_builder("poisson")),
        ("glm-bernoulli", _glm_builder("bernoulli")),
        ("glm-gaussian-cube", _glm_builder("gaussian", "cube")),
        ("density", lambda: _density_model(400, 4, 3)),
        ("darcy", lambda: _darcy_model(80, 3, 3)),
    ]
    rng = np.random.default_rng(103)
    worst_grad, worst_hess = 0.0, 0.0
    for _, builder in builders:
        model, theta0 = builder()
        p = theta0.size
        for _ in range(20):
            theta = theta0 + 0.05 * rng.standard_normal(p)
            g = model.grad_log_lik(theta)
            eps = 1e-6
            fd = np.empty(p)
            for k in range(p):
                e = np.zeros(p)
                e[k] = eps
                fd[k] = (model.log_lik(theta + e) - model.log_lik(theta - e)) / (2 * eps)
            worst_grad = max(worst_grad,
                             np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1.0))
            v = rng.standard_normal(p)
            v /= np.linalg.norm(v)
            h_eps = 1e-4
            fd2 = (model.log_lik(theta + h_eps * v) - 2 * model.log_lik(theta)
                   + model.log_lik(theta - h_eps * v)) / h_eps ** 2
            worst_hess = max(worst_hess,
                             abs(model.hess_dir(theta, v) - fd2) / max(abs(fd2), 1.0))
    # solution-space second derivatives need extended-precision differences:
    # float64 solver roundoff dominates the quotient at this epsilon
    op = Darcy1D(BasisFamily("dirichlet-sine", 4), M=64)
    for _ in range(20):
        theta = 0.4 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        h_eps = 1e-4
        fd = (darcy_values_longdouble(op, theta + h_eps * v)
              - 2 * darcy_values_longdouble(op, theta)
              + darcy_values_longdouble(op, theta - h_eps * v))[1:-1] / h_eps ** 2
        fd = fd.astype(float)
        an = op.dir_hess(theta, v, op._grid[1:-1])
        worst_hess = max(worst_hess,
                         np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1.0))
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-4
    _verdict("criterion 3 (analytic derivatives vs central differences)",
             ok, f"max grad rel err {worst_grad:.2e}, max hess-dir rel err {worst_hess:.2e}")


# -- 4. elliptic solver converges at second order ------------------------------

def test_criterion_04_pde_solver_order():
    def manufactured_error(M):
        x = np.linspace(0.0, 1.0, M + 2)
        f = 1.0 + x
        xi = x[1:-1]
        g1 = -np.pi ** 2 * (1 + xi) * np.sin(np.pi * xi) + np.pi * np.cos(np.pi * xi)
        u = _solve_dirichlet(f, g1, (0.0, 0.0))[0]
        return np.max(np.abs(u - np.sin(np.pi * x)))

    e = [manufactured_error(M) for M in (128, 256, 512)]
    r1, r2 = e[0] / e[1], e[1] / e[2]
    u = _solve_dirichlet(np.ones(66), np.full(64, 2.0), (0.0, 0.0))[0]
    x = np.linspace(0.0, 1.0, 66)
    quad_err = float(np.max(np.abs(u - (x ** 2 - x))))
    ok = 3.6 <= r1 <= 4.4 and 3.6 <= r2 <= 4.4 and quad_err <= 1e-10
    _verdict("criterion 4 (second-order elliptic solver)",
             ok, f"refinement ratios {r1:.2f}, {r2:.2f}; quadratic error {quad_err:.1e}")


# -- 5. chain mean agrees with the grid-posterior mean at p = 1 ----------------

def _chain_vs_grid(family, seed):
    spec, theta_star = build_glm(500, 1, family=family, seed=0, eta=1.0,
                                 n_probes=200)
    gamma = step_size_bound(spec.m, spec.lam)[0]
    epsilon = epsilon_for_burn_in(spec, gamma, 40_000)
    j_in = burn_in_steps(epsilon, spec.m, gamma, spec.eta,
                         spec.prior.lambda_pi, 1)
    half = max(6.0 / math.sqrt(spec.m), 4.0 * spec.eta)
    bounds = ((theta_star[0] - half, theta_star[0] + half),)
    grid = grid_posterior(
        lambda t: spec.model.log_lik(t) + spec.prior.log_density(t), bounds, 1024)
    j = 200_000
    trace = run_chain(spec.posterior_grad, theta_star,
                      SamplerConfig(gamma=gamma, j_in=j_in, j=j, seed=seed),
                      functionals={"id": lambda S: S[:, 0]},
                      region_center=theta_star, region_radius=3 * spec.eta / 8)
    sigma = math.sqrt(grid.cov[0, 0])
    # MC standard error with the autocorrelation time of the contraction rate
    tau = 2.0 / (spec.m * gamma)
    mcse = sigma * math.sqrt(tau / j)
    diff = abs(trace.ergodic_average("id") - grid.mean[0])
    return diff, mcse, j_in


def test_criterion_05_chain_matches_grid_posterior():
    details = []
    ok = True
    for family in ("gaussian", "poisson"):
        diff, mcse, j_in = _chain_vs_grid(family, seed=1)
        ok = ok and diff <= 3.0 * mcse
        details.append(f"{family}: |mean diff| {diff:.4f} vs 3*MCSE {3 * mcse:.4f} "
                       f"(burn-in {j_in})")
    _verdict("criterion 5 (ergodic mean within 3 MCSE of grid mean)",
             ok, "; ".join(details))


# -- 6. surrogate posterior is indistinguishable from the true posterior -------

def test_criterion_06_surrogate_vs_true_posterior():
    spec, theta_star = build_glm(500, 1, family="gaussian", seed=0, eta=1.0,
                                 n_probes=200)
    half = max(6.0 / math.sqrt(spec.m), 4.0 * spec.eta)
    bounds = ((theta_star[0] - half, theta_star[0] + half),)
    g_true = grid_posterior(
        lambda t: spec.model.log_lik(t) + spec.prior.log_density(t), bounds, 1024)
    g_sur = grid_posterior(spec.posterior_log_density, bounds, 1024)
    tv = grid_tv_distance(g_sur, g_true)
    sigma = math.sqrt(g_true.cov[0, 0])
    w2 = empirical_w2(sample_inverse_cdf(g_sur, 1024), sample_inverse_cdf(g_true, 1024))
    ok = tv <= 1e-3 and w2 <= 0.05 * sigma
    _verdict("criterion 6 (surrogate vs true posterior: TV and W2)",
             ok, f"grid TV {tv:.2e} (<= 1e-3), W2 {w2:.2e} (<= {0.05 * sigma:.2e})")


# -- 7. posterior-mean error shrinks at the nonparametric rate -----------------

def test_criterion_07_recovery_rate_scaling():
    n_grid = (200, 800, 3200)
    medians = []
    for n in n_grid:
        p = round(n ** (1.0 / 3.0))
        errs = []
        for seed in range(10):
            spec, theta_star = build_glm(n, p, family="gaussian", seed=seed,
                                         scale=1.0, n_probes=50)
            gamma = step_size_bound(spec.m, spec.lam)[0]
            trace = run_chain(spec.posterior_grad, theta_star,
                              SamplerConfig(gamma=gamma, j_in=2000, j=50_000,
                                            seed=seed),
                              functionals={"id": lambda S: S})
            errs.append(np.linalg.norm(trace.ergodic_average("id") - theta_star))
        medians.append(float(np.median(errs)))
    slope = loglog_slope(n_grid, medians)
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and -0.55 <= slope <= -0.15
    _verdict("criterion 7 (recovery-rate scaling, target slope -1/3)",
             ok, f"median errors {[f'{m:.4f}' for m in medians]}, slope {slope:.3f}")


# -- 8. exit-time behavior: preset step size never exits, tiny region does -----

def test_criterion_08_exit_time_regimes():
    n, p = 100, 4
    eta0 = p ** -0.5
    preset_exits = 0
    for seed in range(50):
        spec, theta_star = build_glm(n, p, seed=seed, eta=eta0)
        gamma = step_size_bound(spec.m, spec.lam)[1]  # exit-time-safe bound
        trace = run_chain(spec.posterior_grad, theta_star,
                          SamplerConfig(gamma=gamma, j=10_000, seed=seed),
                          region_center=theta_star, region_radius=3 * eta0 / 8)
        preset_exits += trace.exit_step is not None
    # adversarial: locality radius shrunk 100x while the step size stays at the
    # sampling bound, so per-step noise exceeds the region scale
    eta1 = eta0 / 100.0
    fast_exits = 0
    for seed in range(50):
        spec, theta_star = build_glm(n, p, seed=seed, eta=eta1)
        gamma = step_size_bound(spec.m, spec.lam)[0]
        trace = run_chain(spec.posterior_grad, theta_star,
                          SamplerConfig(gamma=gamma, j=1000, seed=seed),
                          region_center=theta_star, region_radius=3 * eta1 / 8)
        if trace.exit_step is not None and trace.exit_step <= 100:
            fast_exits += 1
    ok = preset_exits == 0 and fast_exits >= 48  # >= 95% of 50
    _verdict("criterion 8 (exit-time regimes)",
             ok, f"preset exits {preset_exits}/50 (need 0), "
                 f"adversarial exits within 100 steps {fast_exits}/50 (need >= 48)")


# -- 9. surrogate and vanilla chains coincide until the exit -------------------

def test_criterion_09_surrogate_vanilla_coincidence():
    n, p = 100, 4
    eta = p ** -0.5 / 100.0  # small region so exits actually happen
    worst = 0.0
    n_exited = 0
    for seed in range(20):
        spec, theta_star = build_glm(n, p, seed=seed, eta=eta)
        gamma = step_size_bound(spec.m, spec.lam)[0]
        conf = SamplerConfig(gamma=gamma, j=400, seed=seed)
        sur = run_chain(spec.posterior_grad, theta_star, conf,
                        region_center=theta_star, region_radius=3 * eta / 8)

        def vanilla_drift(t):
            return spec.model.grad_log_lik(t) + spec.prior.grad_log_density(t)

        van = run_chain(vanilla_drift, theta_star, conf,
                        region_center=theta_star, region_radius=3 * eta / 8)
        assert sur.exit_step == van.exit_step
        if sur.exit_step is not None:
            n_exited += 1
            upto = sur.exit_step  # states 0..exit_step are all driven from inside
            worst = max(worst, float(np.max(np.abs(
                sur.states[: upto + 1] - van.states[: upto + 1]))))
    ok = worst <= 1e-12 and n_exited == 20
    _verdict("criterion 9 (surrogate/vanilla chains coincide until exit)",
             ok, f"max coordinate diff {worst:.2e} over {n_exited}/20 exited chains")


# -- 10. conditioning grows like sqrt(p); prior ratio is exactly p^2 -----------

def test_criterion_10_condition_number_trend():
    ps = (4, 16, 64)
    ratios = []
    prior_exact = True
    for p in ps:
        n = p ** 3  # keeps per-direction curvature scale comparable across p
        spec, _ = build_glm(n, p, seed=0, scale=1.0, n_probes=20)
        cs, cp = condition_numbers(spec)
        ratios.append(cs)
        prior_exact = prior_exact and cp == float(p) ** 2
    slope = loglog_slope(ps, ratios)
    ok = 0.3 <= slope <= 0.7 and prior_exact
    _verdict("criterion 10 (condition-number trend, target slope 1/2)",
             ok, f"Lambda/m slope {slope:.3f}, prior ratio equals p^2: {prior_exact}")


# -- 11. identical configs reproduce byte-identical reports --------------------

def test_criterion_11_determinism(tmp_path):
    cfg = ExperimentConfig(model_preset="glm-gaussian", theta0_mode="explicit",
                           theta0_values=[1.0], j_in_rule="fixed", j_in_value=50,
                           j=500, seeds=[0, 1], n_grid=[200], p_rule="fixed",
                           p_value=1).validate()
    reports = []
    for run in ("a", "b"):
        run_experiment(cfg, out_dir=tmp_path / run)
        reports.append((tmp_path / run / "report.csv").read_bytes())
    ok = reports[0] == reports[1] and len(reports[0]) > 0
    _verdict("criterion 11 (byte-identical report reruns)",
             ok, f"report size {len(reports[0])} bytes, identical: {reports[0] == reports[1]}")
