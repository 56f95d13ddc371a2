"""Independent numerical oracles used only by the test suite."""

import csv
import io
import math

import numpy as np
from scipy.special import logsumexp

from surrogate_langevin.diagnostics import BoundaryMassError
from surrogate_langevin.expfam import natural_param, natural_param_d1
from surrogate_langevin.likelihood import _density_quadrature
from surrogate_langevin.surrogate import _MOLLIFIER_W, _MOLLIFIER_Z, cutoff, cutoff_deriv


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
    column, with the four chain counts later appended after `message`: the
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
    u = model.forward.values(theta, ds.x)
    try:
        b = natural_param(model.family, model.link, u)
    except ValueError:
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
    vt = float(cutoff(s))
    dv = float(cutoff_deriv(s)) / eta
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


def pilot_ascent_per_iteration(model, prior, steps=500, rate=None, theta_star=None,
                               eta=None):
    """pilot_ascent_init as first composed, with the gradient computed at the
    top of every iteration and once more for the report.

    Returns (theta, info, accepted steps).
    """
    p = model.basis.p
    theta = np.zeros(p)

    def objective(t):
        return model.log_lik(t) + prior.log_density(t)

    def gradient(t):
        return model.grad_log_lik(t) + prior.grad_log_density(t)

    obj = objective(theta)
    step = rate if rate is not None else 1.0 / max(model.dataset.n, 1)
    failures = accepted = 0
    for _ in range(steps):
        g = gradient(theta)
        if np.linalg.norm(g) < 1e-12:
            break
        candidate = theta + step * g
        cobj = objective(candidate)
        if np.isfinite(cobj) and cobj >= obj:
            theta, obj = candidate, cobj
            step *= 1.5
            failures = 0
            accepted += 1
        else:
            step *= 0.5
            failures += 1
            if failures >= 50:
                raise RuntimeError("pilot ascent failed 50 consecutive backtracking steps")
    info = {"objective": float(obj), "grad_norm": float(np.linalg.norm(gradient(theta)))}
    if theta_star is not None and eta is not None:
        info["distance_over_eta"] = float(
            np.linalg.norm(theta - np.asarray(theta_star)) / eta)
    return theta, info, accepted


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
