"""Self-tests of the benchmark: contract of BENCHMARK.json, every metric printed
with its unit at tiny size, seed handling, the output checks, and one pinned
defect of the program.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import REFERENCE_SEEDS, cell_key, cell_outputs, cell_problem, load_reference  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def tiny_result():
    """Result of a tiny-size run, each (workload, seed, trace) run once."""
    runs = {}

    def result(workload, seed, trace):
        if (workload, seed, trace) not in runs:
            proc = bench(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr
            runs[workload, seed, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        return runs[workload, seed, trace]

    return result


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in WORKLOADS.values()]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in BENCH[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for kind in ("end_to_end", "per_layer") for m in BENCH[kind])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(tiny_result, workload, trace):
    result = tiny_result(workload, 0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_seed_changes_inputs_not_metric_set(tiny_result):
    for w in WORKLOADS.values():
        assert w.config_ini(0) != w.config_ini(1)
        assert w.config_ini(1) == w.config_ini(1)
    workload = "glm-poisson-chain"
    assert set(tiny_result(workload, 0, 0)["metrics"]) == set(tiny_result(workload, 1, 0)["metrics"])


def test_glm_chain_stays_inner_and_darcy_chain_runs_far_field(tiny_result):
    glm = tiny_result("glm-poisson-chain", 0, 1)["metrics"]
    assert glm["surrogate.steps.annulus"]["value"] == glm["surrogate.steps.far"]["value"] == 0
    darcy = tiny_result("darcy-1d-pilot", 0, 1)["metrics"]
    cells = WORKLOADS["darcy-1d-pilot"].sized("tiny").cells_per_n
    assert darcy["surrogate.steps.inner"]["value"] == cells  # step 1 of each chain only
    assert darcy["surrogate.steps.annulus"]["value"] == 0
    for result in (glm, darcy):
        assert 0 < result["trace.accounted_frac"]["value"] < 1


def test_every_seed_maps_to_a_recorded_reference():
    for name in WORKLOADS:
        for seed in (0, REFERENCE_SEEDS - 1, REFERENCE_SEEDS, 2**31 - 1):
            cells, _, _ = load_reference(name, seed % REFERENCE_SEEDS)
            assert len(cells) == len(WORKLOADS[name].n_grid) * WORKLOADS[name].cells_per_n


def test_scaled_time_leaves_out_the_reference_loops_run_inside():
    assert scaled(3.0, [REFERENCE_S]) == 3.0
    assert scaled(3.0, [REFERENCE_S, 3 * REFERENCE_S]) == 1.5

    def busy():
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass

    host = HostSpeed()
    with host.sampling():
        _, seconds, _ = host.time(busy)
    assert len(host.loops) >= 4  # one before, then one every 0.1 s
    assert seconds == pytest.approx(0.5 - sum(host.loops[1:]), abs=0.01)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("glm-poisson-chain", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tiny_cell(preset="glm-poisson", **overrides):
    from surrogate_langevin.config import ExperimentConfig
    from surrogate_langevin.experiment import run_cell

    fields = dict(model_preset=preset, n_grid=[100], n_probes=3, j_in_rule="fixed",
                  j_in_value=10, j=90)
    fields.update(overrides)
    cfg = ExperimentConfig(**fields).validate()
    return run_cell(cfg, 100, 0)


def test_output_check_flags_a_mismatch():
    cell = _tiny_cell()
    outputs = cell_outputs(cell)
    reference = ({cell_key(cell): outputs}, 1e-9, 1e-12)
    assert cell_problem(cell, outputs, reference) == ""
    moved = dict(outputs, mean=[v * (1 + 1e-6) for v in outputs["mean"]])
    assert "reference" in cell_problem(cell, None, ({cell_key(cell): moved}, 1e-9, 1e-12))
    assert "first pass" in cell_problem(cell, moved, None)
    assert "no reference" in cell_problem(cell, None, ({}, 0.0, 0.0))
    stepped = dict(outputs, exit_step=(outputs["exit_step"] or 0) + 1)
    assert "exit_step" in cell_problem(cell, None, ({cell_key(cell): stepped}, 1e-9, 1e-12))


@pytest.mark.xfail(strict=True, reason="darcy-1d contraction divides by alpha - 1, "
                   "which is 0 at the default alpha = 1, and validation accepts it")
def test_darcy_contraction_at_default_alpha_is_rejected_or_runs():
    from surrogate_langevin.config import ConfigValidationError

    try:
        cell = _tiny_cell("darcy-1d", init_mode="pilot-ascent", darcy_mesh=32,
                          diagnostics=["contraction"])
    except ConfigValidationError:
        return
    assert cell.status == "ok", cell.message
