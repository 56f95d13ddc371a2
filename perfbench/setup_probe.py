"""Set-up of one benchmark process, also runnable on its own in a fresh one.

    python3 perfbench/setup_probe.py <src dir> <workload.ini> <warmup.ini> <out dir>

imports the package from <src dir>, loads and validates the workload config,
and runs the one-cell warm-up experiment, which pays the first-call costs
(lazy imports, first numpy/scipy calls) that would otherwise land in the
first timed cell.  run.py times this script end to end for `setup_s`.
"""

from __future__ import annotations

import sys


def set_up(config_path, warmup_path, out_dir):
    """The validated workload config, after one warm-up experiment."""
    from surrogate_langevin import experiment
    from surrogate_langevin.config import load_config

    cfg = load_config(config_path)
    results, _ = experiment.run_experiment(load_config(warmup_path), out_dir=out_dir)
    bad = [f"n={r.n} seed={r.seed}: {r.status} {r.message}" for r in results if r.status != "ok"]
    if bad:
        raise RuntimeError("warm-up cell failed: " + "; ".join(bad))
    return cfg


if __name__ == "__main__":
    src, config_path, warmup_path, out_dir = sys.argv[1:5]
    sys.path.insert(0, src)
    set_up(config_path, warmup_path, out_dir)
