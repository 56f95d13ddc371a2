import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import surrogate_langevin
from surrogate_langevin import grid_posterior

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in surrogate_langevin.__all__:
        assert hasattr(surrogate_langevin, name), name


def test_readme_imports_are_exported():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    imported = [alias.name
                for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "surrogate_langevin"
                for alias in node.names]
    assert "choose_K" in imported and "SurrogateSpec" in imported  # the quick start
    assert set(imported) <= set(surrogate_langevin.__all__)


# The scipy modules a run loads, in a fresh interpreter (this one has them all).
# GLM and density cells load none; a Darcy cell loads scipy.linalg for its
# banded solves; grid_posterior imports scipy.special on first call.
# No cell loads multiprocessing, which only a --jobs pool needs.
IMPORT_SET_SCRIPT = """
import json, sys
import surrogate_langevin
from surrogate_langevin.config import ExperimentConfig
from surrogate_langevin.experiment import run_cell

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

tiny = dict(j_in_rule="fixed", j_in_value=10, j=40, n_probes=3, p_value=2)
out = {"import": loaded()}
cells = [run_cell(ExperimentConfig(model_preset="glm-poisson", **tiny).validate(), 100, 0),
         run_cell(ExperimentConfig(model_preset="density", init_mode="pilot-ascent",
                                   diagnostics=["contraction", "condition-numbers"],
                                   **tiny).validate(), 100, 0)]
out["glm_density"] = loaded()
cells.append(run_cell(ExperimentConfig(model_preset="darcy-1d", init_mode="pilot-ascent",
                                       darcy_mesh=16, **tiny).validate(), 100, 0))
out["darcy"] = loaded()
out["multiprocessing"] = "multiprocessing" in sys.modules
out["status"] = [c.status + " " + c.message for c in cells]
g = surrogate_langevin.grid_posterior(lambda t: -0.5 * float(t[0] - 0.3) ** 2 * 40.0,
                                      ((-2.0, 2.0),), 101)
out["grid"] = [float(g.mean[0]).hex(), float(g.cov[0, 0]).hex(), g.weights.tobytes().hex()]
print(json.dumps(out))
"""


def test_a_run_imports_scipy_only_where_it_calls_it():
    src = Path(surrogate_langevin.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", IMPORT_SET_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["import"] == [] and out["glm_density"] == []
    assert "scipy.linalg" in out["darcy"]
    assert not [m for m in out["darcy"]
                if m.startswith(("scipy.optimize", "scipy.special"))]
    assert out["status"] == ["ok "] * 3
    # jobs = 1 cells start no process pool, so they import none of its modules
    assert out["multiprocessing"] is False
    # the first-use import gives what in-process calls give
    g = grid_posterior(lambda t: -0.5 * float(t[0] - 0.3) ** 2 * 40.0, ((-2.0, 2.0),), 101)
    assert out["grid"] == [float(g.mean[0]).hex(), float(g.cov[0, 0]).hex(),
                           g.weights.tobytes().hex()]
