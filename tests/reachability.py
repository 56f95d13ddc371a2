"""Reachability audit: the functions of the package that no pipeline path calls.

A pipeline path is a command of the command-line front end or the
estimator's fit and predict.  The audit runs tiny configurations through
them under a profile hook that records every function called, then lists
each function defined in src/surrogate_langevin (methods and nested
functions included) that none of them reached.  The configurations cover
every model preset, init mode, drift variant, guard and step bound, fixed
gamma, eta and K, p_rule = rate, the p = 1 grid posterior, every diagnostic,
every command, --jobs, a failing and a diverging cell, and configs and
arguments that are rejected.  --jobs cells run on threads in place of worker
processes, which the hook does not follow; they call the same functions.

ALLOWED names the functions kept although no pipeline path reaches them.
The exit status is 1 when another function is unreached.  pytest does not
collect this file; run it from the root of a checkout:

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import ast
import concurrent.futures
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "surrogate_langevin"

# module.qualname -> why it stays unreached
ALLOWED = {
    **dict.fromkeys([
        "likelihood.ModelInstance.hess_dir",
        "likelihood.ModelInstance.hess_dir_many",
        "forward.LinearPhi.grad_rows",
        "forward.LinearPhi.dir_grad",
        "forward.LinearPhi.dir_hess",
        "forward.Darcy1D.dir_hess",
        "forward.Darcy1D.solution",
    ], "perfbench/spans.py patches it or perfbench/microbench.py calls it"),
    "likelihood.Dataset.load": "reads back the CSVs the generate command writes",
    "likelihood._no_data_grad": "the gradient of a model with no data, which validate "
                                "keeps out of every cell and fit",
    "expfam.ExpFamily.A3": "the cube link's b'' for a non-gaussian family, a model no "
                           "preset builds",
}

BASE = {"model": {"preset": "glm-poisson", "darcy_mesh": 16},
        "surrogate": {"n_probes": 16},
        "sampler": {"j_in_rule": "fixed", "j_in_value": 20, "j": 100},
        "experiment": {"n_grid": 100, "p_value": 2}}

# (command, extra argv, config changes): every change is merged into BASE
RUNS = [
    ("generate", [], {}),
    ("generate", [], {"model": {"preset": "density"}}),
    ("sample", [], {"model": {"preset": "glm-gaussian"}}),
    ("sample", [], {"sampler": {"variant": "vanilla"}}),
    ("diagnose", ["--jobs", "2"], {"sampler": {"seeds": "0 1"},
                                   "experiment": {"p_value": 1}}),
    ("experiment", [], {"model": {"preset": "glm-logistic"},
                        "surrogate": {"init_mode": "pilot-ascent"},
                        "experiment": {"diagnostics": "contraction condition-numbers"}}),
    ("experiment", [], {"model": {"preset": "glm-gaussian-cube", "theta0_mode": "explicit",
                                  "theta0_values": "2.0 0.3"},
                        "surrogate": {"init_mode": "oracle-perturbed", "init_rho": 0.01}}),
    # the default cube cell: the probe reads a negative curvature, so it fails
    ("experiment", [], {"model": {"preset": "glm-gaussian-cube"},
                        "surrogate": {"n_probes": 200},
                        "experiment": {"n_grid": 200, "p_value": 4}}),
    # the prior pulls a two-point posterior far from the truth, past the
    # grid's edge, so the grid posterior fails
    ("experiment", [], {"model": {"preset": "glm-gaussian", "theta0_scale": 5.0},
                        "experiment": {"n_grid": 2, "p_value": 1,
                                       "diagnostics": "grid-posterior"}}),
    ("experiment", [], {"model": {"preset": "density"},
                        "surrogate": {"init_mode": "pilot-ascent"},
                        "experiment": {"diagnostics": "grid-posterior", "p_value": 1}}),
    ("experiment", [], {"model": {"preset": "darcy-1d", "darcy_boundary": "1.0, 0.5"},
                        "surrogate": {"init_mode": "pilot-ascent"}}),
    ("experiment", ["--jobs", "2"], {
        "prior": {"alpha": 1.5},
        "sampler": {"j_in_rule": "auto", "epsilon": 1e6, "gamma_bound": "exit"},
        "experiment": {"n_grid": "50 200", "p_rule": "rate", "diagnostics": "recovery"}}),
    ("experiment", [], {"surrogate": {"eta_rule": "fixed", "eta_value": 0.3,
                                      "k_override": 1e5},
                        "sampler": {"gamma_rule": "fixed", "gamma_value": 1e-4}}),
    # a step far past the bound: with guard none the chain diverges, and the
    # reflect guard pulls the state back in and folds it
    ("experiment", [], {"sampler": {"gamma_rule": "fixed", "gamma_value": 50.0}}),
    ("experiment", [], {"sampler": {"gamma_rule": "fixed", "gamma_value": 50.0,
                                    "guard": "reflect", "guard_radius": 2.0}}),
    ("experiment", [], {"sampler": {"j": 0}}),  # rejected by validate
]


def _ini(changes) -> str:
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for name, keys in changes.items():
        sections.setdefault(name, {}).update(keys)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def defined_functions() -> dict:
    """(file, first line of its code object) -> module.qualname, for every
    function defined in the package.  A decorated function's code starts at
    its first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text()), f"{module}.")
    return out


def run_pipelines(out_dir: Path) -> None:
    """Every run in RUNS through cli.main, then the estimator."""
    from surrogate_langevin.cli import main
    from surrogate_langevin.estimator import LangevinGLMRegressor

    for k, (command, argv, changes) in enumerate(RUNS):
        cfg = out_dir / f"run{k}.ini"
        cfg.write_text(_ini(changes))
        main([command, "--config", str(cfg), "--out", str(out_dir / f"run{k}"), *argv])
    main(["sample", "--config", str(out_dir / "missing.ini")])  # cannot read the config
    with contextlib.suppress(SystemExit):
        main(["experiment", "--config", str(cfg), "--jobs", "0"])  # rejected by argparse

    rng = np.random.default_rng(0)
    x = rng.random(100)
    y = rng.poisson(np.exp(0.5 + 0.3 * np.cos(np.pi * x))).astype(float)
    est = LangevinGLMRegressor(p=2, family="poisson", epsilon=1e6, j=100, n_probes=16)
    est.set_params(seed=1).fit(x, y).predict(np.linspace(0.0, 1.0, 5))


def main() -> int:
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    defined = defined_functions()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor",
                              concurrent.futures.ThreadPoolExecutor), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            run_pipelines(Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    seen = {(str(Path(file).resolve()), line) for file, line in seen}
    unreached = sorted(name for key, name in defined.items() if key not in seen)
    stale = sorted(set(ALLOWED) - set(unreached))
    bad = [name for name in unreached if name not in ALLOWED]
    print(f"{len(defined)} functions in src/surrogate_langevin, "
          f"{len(defined) - len(unreached)} reached by {len(RUNS) + 2} command runs "
          "and the estimator")
    for name in unreached:
        print(f"  unreached, {ALLOWED[name]}: {name}" if name in ALLOWED
              else f"  UNREACHED: {name}")
    for name in stale:
        print(f"  allowed but reached (or gone): {name}")
    print(f"{len(bad)} unreached outside the allowlist")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
