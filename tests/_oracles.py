"""Independent numerical oracles used only by the test suite."""

import csv
import io

import numpy as np


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
