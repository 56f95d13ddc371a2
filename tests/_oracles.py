"""Independent numerical oracles, and the helpers built on them, used only by the
test suite."""

import csv
import io
import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from surrogate_langevin.diagnostics import BoundaryMassError
from surrogate_langevin.expfam import natural_param_derivs
from surrogate_langevin.forward import _apply_operator
from surrogate_langevin.likelihood import _density_quadrature, _log_partition
from surrogate_langevin.surrogate import _MOLLIFIER_W, _MOLLIFIER_Z


def darcy_solve_longdouble(f, g1, g2):
    """Thomas-algorithm solve of the conservative scheme in extended precision.

    Independent of the package's banded-Cholesky implementation; used as the
    ground truth for finite-difference derivative checks, where float64
    solver roundoff would otherwise dominate the difference quotient.
    """
    f = np.asarray(f, dtype=np.longdouble)
    g1 = np.asarray(g1, dtype=np.longdouble)
    M = g1.size
    h = np.longdouble(1.0) / (M + 1)
    faces = (f[:-1] + f[1:]) / 2
    diag = (faces[:-1] + faces[1:]) / h ** 2
    off = -faces[1:-1] / h ** 2
    b = -g1.copy()
    b[0] += faces[0] * np.longdouble(g2[0]) / h ** 2
    b[-1] += faces[-1] * np.longdouble(g2[1]) / h ** 2
    # forward elimination
    c = off.copy()
    d = diag.copy()
    r = b.copy()
    for i in range(1, M):
        w = c[i - 1] / d[i - 1]
        d[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    u = np.empty(M, dtype=np.longdouble)
    u[-1] = r[-1] / d[-1]
    for i in range(M - 2, -1, -1):
        u[i] = (r[i] - c[i] * u[i + 1]) / d[i]
    return np.concatenate(([np.longdouble(g2[0])], u, [np.longdouble(g2[1])]))


def darcy_values_longdouble(op, theta):
    """Extended-precision forward evaluation matching a Darcy1D instance."""
    phi = op._E_grid.astype(np.longdouble) @ np.asarray(theta, dtype=np.longdouble)
    f = np.longdouble(op.f_min) + np.exp(phi)
    g1 = np.full(op.M, np.longdouble(op.g1))
    return darcy_solve_longdouble(f, g1, op.g2)


def apply_operator_per_node(c, w):
    """L_c w at the interior nodes as first written: the flux through each
    interior face formed twice, once for either node it bounds (the
    reference for forward._apply_operator)."""
    M = w.shape[0] - 2
    h = 1.0 / (M + 1)
    faces = 0.5 * (c[:-1] + c[1:])
    return (faces[1:] * (w[2:] - w[1:-1]) - faces[:-1] * (w[1:-1] - w[:-2])) / h ** 2


def darcy_residual_inf_norm(op, theta) -> float:
    """max |L_f u - g1| over the interior nodes, with u the state a Darcy1D
    op solves at theta and f = f_min + exp(Phi(theta)) its conductivity."""
    f = op.f_min + np.exp(op._E_grid @ np.asarray(theta, dtype=float))
    return float(np.max(np.abs(_apply_operator(f, op.solution(theta)) - op.g1)))


def darcy_solve_assembled(f, g1, g2):
    """(u, cb): the Dirichlet solve as first assembled, through scipy's banded
    Cholesky wrappers: the faces formed for the factor and again for the
    boundary fold, and u concatenated from the boundary values and the
    interior solution (the reference for darcy_solve and Darcy1D)."""
    M = f.size - 2
    h = 1.0 / (M + 1)
    faces = 0.5 * (f[:-1] + f[1:])
    ab = np.zeros((2, M))
    ab[0, 1:] = -faces[1:-1] / h ** 2
    ab[1, :] = (faces[:-1] + faces[1:]) / h ** 2
    cb = cholesky_banded(ab, lower=False)
    faces = 0.5 * (f[:-1] + f[1:])
    b = (-g1).copy()
    b[0] += faces[0] * g2[0] / h ** 2
    b[-1] += faces[-1] * g2[1] / h ** 2
    return np.concatenate(([g2[0]], cho_solve_banded((cb, False), b), [g2[1]])), cb


def darcy_reference(op, theta, V, x):
    """(u, V' grad G at x, V' hess G V at x) for a Darcy1D op, computed afresh
    from the first assembly: each solve made anew with darcy_solve_assembled's
    factor and apply_operator_per_node, and each column interpolated with
    np.interp."""
    exp_phi = np.exp(op._E_grid @ np.asarray(theta, dtype=float))
    u, cb = darcy_solve_assembled(op.f_min + exp_phi, np.full(op.M, float(op.g1)), op.g2)
    phiv = op._E_grid @ V
    fv, fv2 = exp_phi[:, None] * phiv, exp_phi[:, None] * phiv ** 2

    def solve(rhs):
        w = np.zeros((rhs.shape[0] + 2, rhs.shape[1]))
        w[1:-1] = cho_solve_banded((cb, False), rhs)
        return w

    w = solve(apply_operator_per_node(fv, u[:, None]))
    w1 = -solve(apply_operator_per_node(fv, u[:, None]))
    w2 = -solve(apply_operator_per_node(fv, w1))
    w3 = -solve(apply_operator_per_node(fv2, u[:, None]))

    def interp(nodes):
        return np.stack([np.interp(x, op._grid, c) for c in nodes.T], axis=1)

    return u, interp(w), interp(2.0 * w2 - w3)


def hess_dir_many_composed(model, theta, V):
    """ModelInstance.hess_dir_many as first composed: per direction v, the
    density model's variance of Phi(v) under p_theta, or the weights
    r b'' - A''(b) b'^2 against (v' grad G)^2 plus r b' against the forward
    operator's dir_hess, one interpolated second-derivative field per
    direction (in place of the Hessian matrix hess_dir_many forms)."""
    theta, V = np.asarray(theta, dtype=float), np.asarray(V, dtype=float)
    if model.n == 0:
        return np.zeros(V.shape[1])
    if model.dataset.kind == "density":
        phi_quad = model._E_quad @ theta
        wp = model._qw * np.exp(phi_quad - _log_partition(model._qw, phi_quad))
        PV = model._E_quad @ V
        vals = -model.n * (wp @ (PV - wp @ PV) ** 2)
    else:
        fam, x, y = model.family, model.dataset.x, model.dataset.y
        u = model.forward.values(theta, x)
        try:
            b, q1, q2 = natural_param_derivs(fam, model.link, u)
        except ValueError as exc:  # outside the link's range
            raise FloatingPointError(str(exc)) from None
        GU = model.forward.dir_grad(theta, V, x)
        HU = model.forward.dir_hess(theta, V, x)
        with np.errstate(over="ignore", invalid="ignore"):
            r = y - fam.A1(b)
            w_hess = r * q2 - fam.A2(b) * q1 ** 2
            vals = w_hess @ GU ** 2 + (r * q1) @ HU
    if not np.isfinite(vals).all():
        raise FloatingPointError("non-finite directional Hessian")
    return vals


def curvature_probe_per_point(model, center, eta, n_probes, seed):
    """ModelInstance.curvature_probe as first written: one hess_dir_many per
    kept point, here the first composition hess_dir_many_composed, over the
    point's 2p random unit directions and the p coordinate directions.  Each
    candidate draws its point and then its directions, kept or not.
    Returns (lambda_min, lambda_max, skipped)."""
    center = np.asarray(center, dtype=float)
    p = model.p
    rng = np.random.default_rng(seed)
    if model.n == 0:
        return 0.0, 0.0, 0
    lam_min, lam_max = np.inf, -np.inf
    skipped = 0
    for _ in range(n_probes):
        direction = rng.standard_normal(p)
        direction /= math.sqrt(direction.dot(direction))  # == np.linalg.norm
        radius = eta * rng.random() ** (1.0 / p)
        theta = center + radius * direction
        V = rng.standard_normal((p, 2 * p))  # drawn whether or not theta is kept
        if not math.isfinite(model.log_lik(theta)):
            skipped += 1
            continue
        V /= np.linalg.norm(V, axis=0)
        V = np.concatenate([V, np.eye(p)], axis=1)
        vals = -hess_dir_many_composed(model, theta, V)
        lam_min = min(lam_min, float(np.min(vals)))
        lam_max = max(lam_max, float(np.max(vals)))
    if not math.isfinite(lam_min):
        lam_min = lam_max = 0.0
    return lam_min, lam_max, skipped


def recovery_csv_bytes(results, alpha):
    """recovery.csv as the experiment harness first wrote it, from its own
    median, log-log slope and target rate: the reference for the harness's
    use of RecoveryReport."""
    by_n = {}
    for r in results:
        if r.status == "ok":
            by_n.setdefault(r.n, []).append(r.metrics["mean_error"])
    rows = [(n, float(np.median(errs))) for n, errs in sorted(by_n.items())]
    if len(rows) >= 2:
        lx = np.log(np.asarray([r[0] for r in rows], dtype=float))
        ly = np.log(np.asarray([r[1] for r in rows], dtype=float))
        slope = float(np.polyfit(lx, ly, 1)[0])
    else:
        slope = float("nan")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["n", "median_mean_error", "fitted_slope", "target_rate"])
    for n, err in rows:
        writer.writerow([n, repr(err), repr(slope), repr(-alpha / (2 * alpha + 1))])
    return buf.getvalue().encode()


def report_row_hand_written(result):
    """A report.csv row as the harness first wrote it, one expression per
    column, with the four chain counts, then the precision floor, its flag
    and the skipped probe points later appended after `message`: the
    reference for CellResult.row."""
    r, m = result.resolved, result.metrics

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool):
            return repr(float(v))
        return str(v)

    return [
        result.n, result.p, result.seed, result.status,
        fmt(r.get("gamma")), r.get("j_in", ""), r.get("j", ""),
        fmt(r.get("kappa_const")), fmt(r.get("eta")), fmt(r.get("m")),
        fmt(r.get("lambda")), fmt(r.get("delta_n")),
        "" if m.get("exit_step") is None else m.get("exit_step"),
        fmt(m.get("mean_error")), fmt(m.get("contraction_fraction")),
        fmt(m.get("cond_surrogate")), fmt(m.get("cond_prior")),
        fmt(m.get("grid_tv")), result.message,
        *("" if m.get(k) is None else m.get(k)
          for k in ("guard_trigger_count", "drift_calls_inner", "drift_calls_annulus",
                    "drift_calls_far")),
        fmt(r.get("precision_floor")),
        *("" if r.get(k) is None else r.get(k) for k in ("epsilon_below_floor", "probe_skipped")),
    ]


def csv_writer_bytes(header, rows):
    """What csv.writer writes for `header` and `rows`, with each float of a row
    formatted as repr(float(v)) and any other value left to the writer."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                         for v in row])
    return buf.getvalue().encode()


AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -2.0, 1.0,
                  1e16, 0.1, np.nan, np.inf, -np.inf)


def awkward_floats(rows, cols, seed, rows_at=()):
    """(rows, cols) floats spread over many magnitudes; the rows `rows_at` hold
    the values of AWKWARD_FLOATS in turn."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 299, (rows, cols))
    out[list(rows_at)] = np.resize(np.array(AWKWARD_FLOATS), (len(rows_at), cols))
    return out


def w2_sorted_1d(samples_a, samples_b) -> float:
    """Independent 1-D oracle: W2 equals the L2 distance of sorted samples."""
    a = np.sort(np.ravel(samples_a))
    b = np.sort(np.ravel(samples_b))
    if a.shape != b.shape:
        raise ValueError("sample counts differ")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def empirical_w2(samples_a, samples_b) -> float:
    """Exact empirical Wasserstein-2 via optimal assignment: W2^2 between two
    empirical measures with equal counts is the minimum over matchings of the
    mean squared pair distance."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape != b.shape:
        raise ValueError(f"sample shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] > 2048:
        raise ValueError("assignment W2 limited to N <= 2048 samples")
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def sample_inverse_cdf(grid, n_samples) -> np.ndarray:
    """Deterministic quantile-grid samples of a one-dimensional GridPosterior:
    the quantiles (i + 0.5)/n_samples of its piecewise-constant CDF, so two
    posteriors give comparable sample sets with no Monte Carlo noise."""
    (lo, hi), = grid.bounds  # one axis
    cdf = np.cumsum(grid.weights)
    cdf /= cdf[-1]
    q = (np.arange(n_samples) + 0.5) / n_samples
    return np.interp(q, cdf, np.linspace(lo, hi, grid.weights.size))[:, None]


# -- the natural-parameter map and the cutoff as first written ------------------
#
# One function per derivative, each redoing g^{-1} and (A')^{-1}, with the cube
# link's derivatives written out, and the cutoff's smoothstep evaluated at
# every t before the plateaus are masked in.  The package must give the same
# bits.

def natural_param(fam, link, u):
    """b = (A')^{-1} o g^{-1} at u."""
    if link.kind == "canonical":
        return np.asarray(u, dtype=float) + 0.0
    try:
        mean = link.g_inv(u)
    except ValueError as exc:
        raise ValueError(f"value outside the range of link {link.kind!r}: {exc}") from exc
    return fam.A1_inv(mean)


def _g_inv_d1(u):
    """(u^{1/3})' of the cube link."""
    return np.cbrt(u) / (3.0 * u)


def _g_inv_d2(u):
    """(u^{1/3})'' of the cube link."""
    return -2.0 * np.cbrt(u) / (9.0 * u * u)


def natural_param_d1(fam, link, u):
    """First derivative of u -> (A')^{-1}(g^{-1}(u))."""
    u = np.asarray(u, dtype=float)
    if link.kind == "canonical":
        return np.ones_like(u)[()]
    h = fam.A1_inv(link.g_inv(u))
    return _g_inv_d1(u) / fam.A2(h)


def natural_param_d2(fam, link, u):
    """Second derivative of u -> (A')^{-1}(g^{-1}(u))."""
    u = np.asarray(u, dtype=float)
    if link.kind == "canonical":
        return np.zeros_like(u)[()]
    h = fam.A1_inv(link.g_inv(u))
    a2 = fam.A2(h)
    d1 = _g_inv_d1(u)
    d2 = _g_inv_d2(u)
    # (A1_inv o g_inv)'' = g_inv'' / A2 - g_inv'^2 A3 / A2^3
    return d2 / a2 - d1 * d1 * fam.A3(h) / a2 ** 3


def _smoothstep(s):
    """psi(s) = f(s)/(f(s)+f(1-s)) with f(x) = exp(-1/x) for x > 0."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        fs = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        f1 = np.where(1 - s > 0, np.exp(-1.0 / np.maximum(1 - s, 1e-300)), 0.0)
    return fs / (fs + f1)


def _smoothstep_deriv(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0) & (s < 1)
    si = s[inside]
    fs = np.exp(-1.0 / si)
    f1 = np.exp(-1.0 / (1 - si))
    d_fs = fs / si ** 2
    d_f1 = f1 / (1 - si) ** 2
    out[inside] = (d_fs * f1 + fs * d_f1) / (fs + f1) ** 2
    return out


def cutoff_masked(t):
    """The cutoff v: the smoothstep at every t, masked to 1 below 3/4 and to 0
    from 7/8 on (t = NaN warns and gives NaN)."""
    t = np.asarray(t, dtype=float)
    s = (7.0 / 8.0 - t) * 8.0
    return np.where(t <= 0.75, 1.0, np.where(t >= 0.875, 0.0, _smoothstep(np.clip(s, 0.0, 1.0))))[()]


def cutoff_deriv_masked(t):
    """The cutoff's derivative v', zero outside 3/4 < t < 7/8."""
    t = np.asarray(t, dtype=float)
    s = (7.0 / 8.0 - t) * 8.0
    inner = (t > 0.75) & (t < 0.875)
    out = np.zeros_like(t)
    out[inner] = -8.0 * _smoothstep_deriv(s[inner])
    return out[()]


# -- the drift and the chain as first composed ----------------------------------
#
# These compose the Langevin drift and the ULA chain from the public pieces,
# one call and one decision at a time, as the package did before its step,
# surrogate and likelihood settled their dispatch once per cell.  The package
# must give the same bits.

def log_lik_composed(model, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    ds = model.dataset
    if ds.n == 0:
        return 0.0
    if ds.kind == "density":
        qx, qw = _density_quadrature()
        phi_quad = model.basis.design_matrix(qx) @ theta
        mx = phi_quad.max()
        log_partition = mx + np.log((qw * np.exp(phi_quad - mx)).sum())
        return float((model.basis.design_matrix(ds.x) @ theta).sum() - ds.n * log_partition)
    try:
        u = model.forward.values(theta, ds.x)
        b = natural_param(model.family, model.link, u)
    except ValueError:  # a failed Darcy solve (SolveError) or u outside the link's range
        return -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        terms = ds.y * b - model.family.A(b)
    total = terms.sum()
    return float(total) if np.isfinite(total) else -np.inf


def grad_log_lik_composed(model, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    ds = model.dataset
    if ds.n == 0:
        return np.zeros(model.p)
    if ds.kind == "density":
        qx, qw = _density_quadrature()
        E_quad = model.basis.design_matrix(qx)
        phi_quad = E_quad @ theta
        mx = phi_quad.max()
        p_quad = np.exp(phi_quad - (mx + np.log((qw * np.exp(phi_quad - mx)).sum())))
        return (model.basis.design_matrix(ds.x).sum(axis=0)
                - ds.n * (E_quad.T @ (qw * p_quad)))
    u = model.forward.values(theta, ds.x)
    b = natural_param(model.family, model.link, u)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = ds.y - model.family.A1(b)
        if model.link.kind != "canonical":
            resid = resid * natural_param_d1(model.family, model.link, u)
    if not np.all(np.isfinite(resid)):
        raise FloatingPointError("non-finite likelihood gradient")
    return model.forward.grad_rows(theta, ds.x).T @ resid


def penalty_quadrature(eta, t):
    """The mollified hinge phi_{eta/8} * (t - 5 eta/8)_+^2 at t by the 64-node
    quadrature, at every t (the reference for the penalty's exact tail)."""
    d = (np.asarray(t, dtype=float)[..., None] - (eta / 8.0) * _MOLLIFIER_Z) - 5.0 * eta / 8.0
    return np.sum(_MOLLIFIER_W * np.where(d > 0, d * d, 0.0), axis=-1)[()]


def penalty_quadrature_deriv(eta, t):
    """The mollified hinge's derivative at t by the 64-node quadrature."""
    d = (np.asarray(t, dtype=float)[..., None] - (eta / 8.0) * _MOLLIFIER_Z) - 5.0 * eta / 8.0
    return np.sum(_MOLLIFIER_W * np.where(d > 0, 2.0 * d, 0.0), axis=-1)[()]


def _penalty_deriv(eta, t):
    """The penalty's derivative at a scalar t by the package's rule: the exact
    2 (t - 5 eta/8) from 3 eta/4 on, the quadrature below."""
    if t >= 0.75 * eta:
        return 2.0 * (t - 5.0 * eta / 8.0)
    return penalty_quadrature_deriv(eta, t)


def drift_region(spec, theta) -> str:
    """The region of theta: inner (t <= eta/2), far (t/eta >= 7/8) or annulus."""
    t = float(np.linalg.norm(np.asarray(theta, dtype=float) - spec.theta_init))
    if t <= 0.5 * spec.eta:
        return "inner"
    return "far" if t / spec.eta >= 0.875 else "annulus"


def surrogate_grad(spec, theta) -> np.ndarray:
    """grad lt(theta) from the package's one gradient body SurrogateSpec._grad,
    at a checked theta and under the error state a chain's drift runs in."""
    theta = spec.model._check(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        return spec._grad(theta)[1]


def grad_composed(spec, theta) -> np.ndarray:
    """grad lt(theta), region by region."""
    theta = np.asarray(theta, dtype=float)
    model, eta, K = spec.model, spec.eta, spec.K
    diff = theta - spec.theta_init
    t = float(np.linalg.norm(diff))
    region = drift_region(spec, theta)
    if region == "inner":
        return grad_log_lik_composed(model, theta)
    radial = diff / t
    s = t / eta
    if region == "far":
        return -K * float(_penalty_deriv(eta, t)) * radial
    vt = float(cutoff_masked(s))
    dv = float(cutoff_deriv_masked(s)) / eta
    out = -K * float(_penalty_deriv(eta, t)) * radial
    if vt != 0.0 or dv != 0.0:
        ll = log_lik_composed(model, theta)
        if not np.isfinite(ll):
            raise FloatingPointError("non-finite base likelihood inside the cutoff support")
        out = out + dv * (ll - log_lik_composed(model, spec.theta_init)) * radial
        if vt != 0.0:
            out = out + vt * grad_log_lik_composed(model, theta)
    return out


def posterior_grad_composed(spec, theta) -> np.ndarray:
    """grad lt(theta) + grad log prior(theta)."""
    prior = spec.prior
    return grad_composed(spec, theta) + (-prior.scale * prior.sigma_alpha_diag) * theta


def ula_step_composed(drift, state, gamma, noise):
    d = np.asarray(drift(state), dtype=float)
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("non-finite drift")
    return state + gamma * d + math.sqrt(2.0 * gamma) * np.asarray(noise, dtype=float)


def run_chain_per_step(drift, theta_init, config, functionals, region_center,
                       region_radius, storage_budget):
    """run_chain with one noise draw and one ula_step_composed per step; the
    block functionals are applied to a block of one state at each step.

    Returns (states, stride, exit_step, accumulators, guard_triggers, final
    state), or ("diverged", step, last_state).
    """
    theta = np.asarray(theta_init, dtype=float)
    p = theta.size
    total = config.j_in + config.j
    stride = 1
    while (total // stride + 1) * p > storage_budget:
        stride *= 2
    rng = np.random.default_rng(config.seed)
    acc = {name: None for name in functionals}
    stored = [theta.copy()]
    exit_step, guards, R = None, 0, config.guard_radius
    for k in range(1, total + 1):
        noise = rng.standard_normal(p)
        try:
            new = ula_step_composed(drift, theta, config.gamma, noise)
        except FloatingPointError:
            if config.guard != "reflect":
                return ("diverged", k, theta)
            r = float(np.linalg.norm(theta))
            if not math.isfinite(r):
                r = math.hypot(*theta)
            if r > R:
                theta = theta * (R / r)
            guards += 1
            try:
                new = ula_step_composed(drift, theta, config.gamma, noise)
            except FloatingPointError:
                return ("diverged", k, theta)
        theta = new
        if config.guard == "reflect":
            r = float(np.linalg.norm(theta))
            overflow = not math.isfinite(r)
            if overflow:
                r = math.hypot(*theta)
            if r > R:
                s = 2.0 * R - r
                if s < -R:
                    s = (s + R) % (4.0 * R) - R
                    if s > R:
                        s = 2.0 * R - s
                theta = theta / r * s if overflow else theta * s / r
                guards += 1
        if not np.all(np.isfinite(theta)):
            return ("diverged", k, stored[-1])
        if (region_center is not None and exit_step is None
                and np.linalg.norm(theta - region_center) > region_radius):
            exit_step = k
        if k % stride == 0:
            stored.append(theta.copy())
        if k > config.j_in:
            for name, f in functionals.items():
                val = np.asarray(f(theta[None])[0], dtype=float)
                acc[name] = val if acc[name] is None else acc[name] + val
    return np.asarray(stored), stride, exit_step, acc, guards, theta


def pilot_ascent_per_iteration(model, prior, steps=500, rate=None, start=None):
    """pilot_ascent_init as first composed, with the objective at every
    candidate and the gradient at the top of every iteration and once more
    for the report; start (default zeros) is where the ascent begins.

    Returns (theta, info, moves, last_move): moves counts the accepted steps
    that changed the bytes of theta, the last of them at step last_move.
    """
    p = model.basis.p
    theta = np.zeros(p) if start is None else np.array(start, dtype=float)

    def objective(t):
        return model.log_lik(t) + prior.log_density(t)

    def gradient(t):
        return model.grad_log_lik(t) + prior.grad_log_density(t)

    obj = objective(theta)
    if not np.isfinite(obj):
        raise ValueError("log posterior is non-finite at the zero start")
    step = rate if rate is not None else 1.0 / max(model.dataset.n, 1)
    failures = moves = last_move = 0
    for k in range(1, steps + 1):
        g = gradient(theta)
        if np.linalg.norm(g) < 1e-12:
            break
        candidate = theta + step * g
        cobj = objective(candidate)
        if np.isfinite(cobj) and cobj >= obj:
            if candidate.tobytes() != theta.tobytes():
                moves, last_move = moves + 1, k
            theta, obj = candidate, cobj
            step *= 1.5
            failures = 0
        else:
            step *= 0.5
            failures += 1
            if failures >= 50:
                raise RuntimeError("pilot ascent failed 50 consecutive backtracking steps")
    info = {"objective": float(obj), "grad_norm": float(np.linalg.norm(gradient(theta)))}
    return theta, info, moves, last_move


def grid_posterior_branchy(log_density, bounds, resolution):
    """grid_posterior as first written, with separate p = 1 and p = 2 paths.

    Returns (weights, mean, cov); raises BoundaryMassError as the package does.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if isinstance(resolution, int):
        resolution = (resolution,) * len(bounds)
    p = len(bounds)
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
    if p == 1:
        pts = axes[0][:, None]
        shape = (resolution[0],)
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        pts = np.column_stack([g0.ravel(), g1.ravel()])
        shape = (resolution[0], resolution[1])
    logv = np.array([log_density(t) for t in pts]).reshape(shape)
    w = np.exp(logv - logsumexp(logv))
    w /= w.sum()
    edge = np.zeros(shape, dtype=bool)
    if p == 1:
        edge[[0, -1]] = True
    else:
        edge[0, :] = edge[-1, :] = True
        edge[:, 0] = edge[:, -1] = True
    ratio = float(w[edge].sum())
    if ratio > 1e-8:
        widened = tuple((lo - (hi - lo), hi + (hi - lo)) for lo, hi in bounds)
        raise BoundaryMassError(ratio, widened)
    if p == 1:
        x = axes[0]
        mean = np.array([np.sum(w * x)])
        cov = np.array([[np.sum(w * (x - mean[0]) ** 2)]])
    else:
        flat = w.ravel()
        mean = flat @ pts
        centered = pts - mean
        cov = (centered * flat[:, None]).T @ centered
    return w, mean, cov


def basis_eval_per_kind(basis, k, x):
    """BasisFamily.eval as first written: e_k(x) by the formula of each kind."""
    x = np.asarray(x, dtype=float)
    if basis.kind == "cosine-with-constant":
        if k == 1:
            return np.ones_like(x)[()]
        return np.sqrt(2.0) * np.cos(np.pi * (k - 1) * x)
    if basis.kind == "cosine-centered":
        return np.sqrt(2.0) * np.cos(np.pi * k * x)
    return np.sqrt(2.0) * np.sin(np.pi * k * x)
