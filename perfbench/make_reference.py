"""Record the reference outputs the benchmark checks cells against.

    python3 perfbench/make_reference.py

For every workload and every benchmark seed below REFERENCE_SEEDS, runs each
cell of the full-size config and stores its posterior mean, final state and
exit step in reference.json.  Record only from a commit whose chains are
known to be right: later commits are held to these outputs within RTOL and
ATOL.  Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in run.py

from checks import REFERENCE, REFERENCE_SEEDS, cell_key, cell_outputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Chains are contracting, so a change in floating-point summation order moves
# the outputs by far less than this; a change in the algorithm does not.
RTOL, ATOL = 1e-9, 1e-12
ROOT = Path(__file__).resolve().parent.parent


def record(workload, seed: int) -> dict:
    from surrogate_langevin.config import load_config
    from surrogate_langevin.experiment import run_cell

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = Path(tmp) / "workload.ini"
        path.write_text(workload.config_ini(seed))
        cfg = load_config(path)
    cells = {}
    for n in cfg.n_grid:
        for cell_seed in cfg.seeds:
            cell = run_cell(cfg, n, cell_seed)
            if cell.status != "ok":
                raise RuntimeError(f"{workload.name} n={n} seed={cell_seed}: {cell.message}")
            cells[cell_key(cell)] = cell_outputs(cell)
    return cells


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    doc = {"rtol": RTOL, "atol": ATOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        doc["workloads"][name] = {str(seed): record(workload, seed)
                                  for seed in range(REFERENCE_SEEDS)}
        print(f"recorded {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
