import csv
import gc
import io
import json
import logging
import math
import re
import sys
import tempfile
import warnings
import weakref
from dataclasses import fields
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import AWKWARD_FLOATS, report_row_hand_written
from surrogate_langevin import experiment, forward
from surrogate_langevin.cli import main
from surrogate_langevin.config import (MODEL_PRESETS, ConfigValidationError,
                                       ExperimentConfig, load_config)
from surrogate_langevin.experiment import build_model, resolve_cell, run_cell, run_experiment
from surrogate_langevin.initializers import pilot_ascent_init
from surrogate_langevin.likelihood import (CSV_BLOCK_ROWS, PROBE_BLOCK, CurvatureReport,
                                          ModelInstance)
from surrogate_langevin.prior import SievePrior
from surrogate_langevin.sampler import ChainTrace, discretization_bias, precision_floor
from surrogate_langevin.surrogate import ConfigurationError

MINIMAL = """\
[model]
preset = glm-gaussian
theta0_values = 1.0

[prior]
alpha = 1.0

[sampler]
j_in_rule = fixed
j_in_value = 50
j = 500
seeds = 0

[experiment]
n_grid = 200
p_rule = fixed
p_value = 1
"""


def write_cfg(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- config parsing and validation ---------------------------------------------

def test_load_minimal_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.model_preset == "glm-gaussian"
    assert cfg.theta0_values == [1.0]
    assert cfg.n_grid == [200]
    assert cfg.j == 500
    assert cfg.seeds == [0]


def test_inline_comments_and_lists(tmp_path):
    cfg = load_config(write_cfg(tmp_path, """\
[model]
preset = glm-poisson  # strictly positive responses

[sampler]
seeds = 0, 1, 2

[experiment]
n_grid = 100 200
"""))
    assert cfg.model_preset == "glm-poisson"
    assert cfg.seeds == [0, 1, 2]
    assert cfg.n_grid == [100, 200]


def test_rules_resolve_to_numbers():
    cfg = ExperimentConfig(alpha=1.0, p_rule="rate")
    assert cfg.p_for(200) == round(200 ** (1.0 / 3.0))
    assert cfg.p_for(3200) == round(3200 ** (1.0 / 3.0))
    assert cfg.eta_for(4) == pytest.approx(0.5)
    cfg_darcy = ExperimentConfig(model_preset="darcy-1d")
    assert cfg_darcy.eta_for(2) == pytest.approx(2.0 ** -8)
    assert cfg.delta_n(1000) == pytest.approx(1000.0 ** (-1.0 / 3.0))
    theta0 = ExperimentConfig(theta0_scale=0.5, theta0_power=2.0).theta0_for(3)
    assert list(theta0) == [0.5, 0.125, 0.5 / 9.0]


@settings(max_examples=25)
@given(eta=st.none() | st.floats(0.01, 2.0), gamma=st.none() | st.floats(1e-8, 1e-2),
       theta0=st.just([]) | st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       fraction=st.floats(0.01, 1.0), bound=st.sampled_from(["sampling", "exit"]))
def test_a_given_value_is_used_and_a_missing_one_gives_the_rule(eta, gamma, theta0,
                                                                fraction, bound):
    # eta_value, gamma_value and theta0_values were ignored unless a selector
    # (eta_rule, gamma_rule, theta0_mode) was switched as well
    cfg = ExperimentConfig(model_preset="glm-poisson", theta0_values=theta0, eta_value=eta,
                           gamma_value=gamma, gamma_fraction=fraction, gamma_bound=bound,
                           n_grid=[50], p_value=2, n_probes=5, j_in_rule="fixed",
                           j=10).validate()
    assert list(cfg.theta0_for(2)) == (theta0 or [0.5, 0.125])
    model, theta_true = build_model(cfg, 50, 2, 0)
    _, _, resolved, _ = resolve_cell(cfg, model, theta_true, 0)
    assert resolved["eta"] == (2.0 ** -0.5 if eta is None else eta)
    assert resolved["gamma"] == (fraction * resolved["step_bound_" + bound]
                                 if gamma is None else gamma)


def test_validation_lists_every_violation():
    cfg = ExperimentConfig(model_preset="nope", alpha=0.2,
                           gamma_fraction=2.0, j=0)
    with pytest.raises(ConfigValidationError) as exc:
        cfg.validate()
    text = str(exc.value)
    assert "model.preset" in text
    assert "prior.alpha" in text
    assert "sampler.gamma" in text and "step-size bound" in text
    assert "sampler.j" in text
    assert len(exc.value.problems) == 4


def test_gamma_fraction_bound_violation_named():
    cfg = ExperimentConfig(gamma_fraction=1.5)
    with pytest.raises(ConfigValidationError) as exc:
        cfg.validate()
    assert any("sampler.gamma" in p and "step-size bound" in p
               for p in exc.value.problems)


def _real_options():
    """(section, key, raw value) of every option whose value holds reals, the
    raw value ending in the one real that the tests replace."""
    for f in fields(ExperimentConfig):
        for raw in ("0.5", "0.5 0.5"):  # one real, or a pair
            try:
                value = f.metadata["parse"](raw)
            except (ValueError, IndexError):
                continue
            if any(isinstance(v, float) for v in (
                    value if isinstance(value, (list, tuple)) else [value])):
                yield f.metadata["section"], f.metadata["key"] or f.name, raw
            break


REAL_OPTIONS = list(_real_options())


@settings(max_examples=100)
@given(option=st.sampled_from(REAL_OPTIONS), bad=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_real_option_rejected(option, bad):
    # NaN passed every `x <= 0` test: a NaN k_override was ignored, a NaN
    # guard_radius never fired and a NaN epsilon failed the cell late
    section, key, raw = option
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), f"[{section}]\n{key} = {raw[:-3]}{bad}\n")
        with pytest.raises(ConfigValidationError) as exc:
            load_config(path)
    assert f"{section}.{key}: must be finite, got {bad}" in exc.value.problems


def test_real_options_are_every_float_field():
    assert len(REAL_OPTIONS) == 15
    assert {("surrogate", "k_override"), ("model", "theta0_values"),
            ("model", "darcy_boundary"), ("sampler", "guard_radius")} <= {
        (section, key) for section, key, _ in REAL_OPTIONS}


@pytest.mark.parametrize("radius", [0.0, -5.0])
def test_guard_radius_must_be_positive(radius):
    # a negative radius fired the reflect guard on every step of an ok cell
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(guard="reflect", guard_radius=radius).validate()
    assert exc.value.problems == ["sampler.guard_radius: must be positive"]


@pytest.mark.parametrize("eta", [1e160, 1e300,
                                 math.nextafter(math.sqrt(sys.float_info.max), math.inf)])
def test_a_fixed_eta_must_have_a_finite_square(eta):
    # such an eta failed every cell with OverflowError in the penalty
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(eta_value=eta).validate()
    assert exc.value.problems == [
        f"surrogate.eta_value: its square must be a finite float, got {eta:g}"]
    top = math.sqrt(sys.float_info.max)
    assert ExperimentConfig(eta_value=top).validate().eta_value == top
    # a non-finite one is named once
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(eta_value=math.inf).validate()
    assert exc.value.problems == ["surrogate.eta_value: must be finite, got inf"]


def test_a_large_eta_fails_its_cell_with_a_named_error():
    # with the automatic burn-in, eta = 1e154 failed with "math domain error"
    cfg = ExperimentConfig(model_preset="glm-poisson", n_grid=[100], p_value=2, n_probes=5,
                           j=10, eta_value=1e154).validate()
    cell = run_cell(cfg, 100, 0)
    assert cell.status == "failed"
    assert cell.message.startswith("ValueError: the burn-in denominator")


@pytest.mark.parametrize("p_rule, n_grid, bad", [
    ("fixed", [50], [(50, 2)]), ("rate", [1, 2, 50, 3, 500], [(50, 4), (500, 8)])])
def test_grid_posterior_needs_p_one_at_every_n(p_rule, n_grid, bad):
    # run_cell skipped the grid posterior silently at p != 1
    cfg = ExperimentConfig(diagnostics=["grid-posterior"], p_rule=p_rule, p_value=2,
                           n_grid=n_grid)
    with pytest.raises(ConfigValidationError) as exc:
        cfg.validate()
    assert exc.value.problems == [
        f"experiment.diagnostics: grid-posterior needs p = 1, got p = {p} at n = {n}"
        for n, p in bad]
    ExperimentConfig(diagnostics=["grid-posterior"], p_rule=p_rule, p_value=1,
                     n_grid=[1, 2, 3]).validate()


def test_diagnose_runs_its_grid_posterior_at_p_one_only(tmp_path):
    # diagnose forces the grid posterior, which a p = 2 cell leaves out
    path = write_cfg(tmp_path, MINIMAL.replace("p_value = 1", "p_value = 2"))
    assert main(["diagnose", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["p"], row["grid_tv"]) == ("2", "")
    assert row["cond_surrogate"] != ""


@pytest.mark.parametrize("f_min", [-1.0, 0.0, -0.0, -1e-300])
def test_darcy_f_min_must_be_positive(f_min):
    # such an f_min failed every darcy cell late, in the operator's constructor
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(model_preset="darcy-1d", darcy_f_min=f_min).validate()
    assert exc.value.problems == [f"model.darcy_f_min: must be positive, got {f_min}"]
    assert ExperimentConfig(darcy_f_min=1e-300).validate().darcy_f_min == 1e-300
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(darcy_f_min=math.nan).validate()
    assert exc.value.problems == ["model.darcy_f_min: must be finite, got nan"]


@pytest.mark.parametrize("c_w", [-1.0, -1e-300])
def test_c_w_must_be_nonnegative(c_w):
    # a negative c_w failed every auto burn-in cell with "math domain error"
    with pytest.raises(ConfigValidationError) as exc:
        ExperimentConfig(c_w=c_w).validate()
    assert exc.value.problems == ["sampler.c_w: must be nonnegative"]
    assert ExperimentConfig(c_w=0.0).validate().c_w == 0.0


def test_unknown_diagnostic_rejected():
    # w2 and exit-times were once accepted without computing anything
    for name in ("telepathy", "w2", "exit-times"):
        cfg = ExperimentConfig(diagnostics=["grid-posterior", name])
        with pytest.raises(ConfigValidationError) as exc:
            cfg.validate()
        assert any(name in p for p in exc.value.problems)


def test_unknown_sections_and_keys_rejected(tmp_path):
    # eta, gamma and theta0 have no selector: eta_value, gamma_value and
    # theta0_values fix their quantity when given
    text = MINIMAL.replace("seeds = 0\n", "seeds = 0\ngama = 0.1\nrun_vanilla = true\n"
                           "gamma_rule = fixed\n")
    text = text.replace("[model]\n", "[model]\ntheta0_mode = explicit\n")
    text += "\n[surrogate]\neta_rule = fixed\n"
    text += "\n[output]\ndir = out\nthinning = 5\n\n[plots]\nstyle = dark\n"
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, text))
    assert sorted(exc.value.problems) == [
        "[plots]: unknown section", "model.theta0_mode: unknown key",
        "output.thinning: unknown key", "sampler.gama: unknown key",
        "sampler.gamma_rule: unknown key", "sampler.run_vanilla: unknown key",
        "surrogate.eta_rule: unknown key"]


def test_unparseable_value_rejected(tmp_path):
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, MINIMAL.replace("j = 500", "j = 5O0")))
    assert exc.value.problems == ["sampler.j: cannot parse '5O0'"]
    for text in ("preset = glm-gaussian\n", MINIMAL + "\n[prior]\nalpha = 2\n"):
        with pytest.raises(ConfigValidationError):
            load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("raw", ["1 2 3", "1"])
def test_darcy_boundary_takes_exactly_two_numbers(tmp_path, raw):
    # a third number was dropped without a word
    text = MINIMAL.replace("[model]\n", f"[model]\ndarcy_boundary = {raw}\n")
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, text))
    assert exc.value.problems == [f"model.darcy_boundary: cannot parse {raw!r}"]


def test_default_config_is_valid():
    ExperimentConfig().validate()


EVERY_KEY = """\
[model]
preset = glm-poisson
theta0_scale = 0.25
theta0_power = 3
theta0_values = 1.0, 2.0
darcy_mesh = 64
darcy_f_min = 0.5
darcy_source = 2
darcy_boundary = 0.5 2
[prior]
alpha = 1.5
[surrogate]
eta_value = 0.25
k_override = 7
init_mode = oracle-perturbed
init_rho = 0.01
n_probes = 9
[sampler]
variant = vanilla
gamma_fraction = 0.5
gamma_bound = exit
gamma_value = 0.001
j_in_rule = fixed
j_in_value = 3
epsilon = 2
c_w = 1.5
j = 11
seeds = 4 5
guard = reflect
guard_radius = 9
[experiment]
n_grid = 30 60
p_rule = rate
p_value = 2
diagnostics = contraction recovery
[output]
dir = elsewhere
thinning_budget = 5000
"""


def test_every_key_sets_its_field(tmp_path):
    cfg = load_config(write_cfg(tmp_path, EVERY_KEY))
    expected = dict(
        model_preset="glm-poisson", theta0_scale=0.25, theta0_power=3.0,
        theta0_values=[1.0, 2.0], darcy_mesh=64, darcy_f_min=0.5, darcy_source=2.0,
        darcy_boundary=(0.5, 2.0), alpha=1.5, eta_value=0.25, k_override=7.0,
        init_mode="oracle-perturbed", init_rho=0.01, n_probes=9, variant="vanilla",
        gamma_fraction=0.5, gamma_bound="exit", gamma_value=0.001, j_in_rule="fixed",
        j_in_value=3, epsilon=2.0, c_w=1.5, j=11, seeds=[4, 5], guard="reflect",
        guard_radius=9.0, n_grid=[30, 60], p_rule="rate", p_value=2,
        diagnostics=["contraction", "recovery"], out_dir="elsewhere", thinning_budget=5000)
    assert vars(cfg) == expected
    assert {k: type(v) for k, v in vars(cfg).items()} == {k: type(v) for k, v in expected.items()}


def test_readme_example_config_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = load_config(write_cfg(tmp_path, blocks[0]))
    assert cfg.model_preset == "glm-gaussian" and cfg.p_rule == "rate"
    assert cfg.seeds == [0, 1, 2] and cfg.n_grid == [200, 800, 3200]
    assert cfg.diagnostics == ["recovery", "condition-numbers"] and cfg.out_dir == "out"


ENUMERATIONS = {
    "model.preset": ("glm-gaussian", "glm-poisson", "glm-logistic", "glm-gaussian-cube",
                     "density", "darcy-1d"),
    "surrogate.init_mode": ("oracle-projection", "oracle-perturbed", "pilot-ascent"),
    "sampler.variant": ("surrogate", "vanilla"),
    "sampler.gamma_bound": ("sampling", "exit"),
    "sampler.j_in_rule": ("auto", "fixed"),
    "sampler.guard": ("none", "reflect"),
    "experiment.p_rule": ("fixed", "rate"),
    "experiment.diagnostics": ("grid-posterior", "contraction", "condition-numbers",
                               "recovery"),
}


# the selectors of eta, gamma and theta0 are deleted: any value of theirs,
# known once or not, is rejected with the key
DELETED_SELECTORS = ("model.theta0_mode", "sampler.gamma_rule", "surrogate.eta_rule")


@pytest.mark.parametrize("name", sorted(ENUMERATIONS) + list(DELETED_SELECTORS))
def test_enumerated_option_rejects_an_unknown_value(tmp_path, name):
    section, key = name.split(".")
    value = "contraction bogus" if key == "diagnostics" else "bogus"
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n"))
    if name in DELETED_SELECTORS:
        assert exc.value.problems == [f"{name}: unknown key"]
        return
    allowed = ", ".join(ENUMERATIONS[name])
    assert exc.value.problems == [f"{name}: must be one of {allowed}, got 'bogus'"]


def test_every_enumerated_option_is_listed():
    declared = {f"{f.metadata['section']}.{f.metadata['key'] or f.name}": f.metadata["choices"]
                for f in fields(ExperimentConfig) if f.metadata["choices"]}
    assert {k: tuple(v) for k, v in declared.items()} == ENUMERATIONS


# -- CLI -----------------------------------------------------------------------

def test_cli_invalid_config_exit_code(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "\n[surrogate]\ninit_mode = psychic\n")
    assert main(["experiment", "--config", str(path)]) == 2


def test_cli_missing_config_exit_code(tmp_path):
    assert main(["experiment", "--config", str(tmp_path / "absent.ini")]) == 2


@pytest.mark.parametrize("command", ["generate", "sample"])
def test_jobs_rejected_by_single_cell_commands(tmp_path, capsys, command):
    path = write_cfg(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "experiment"])
def test_jobs_run_matches_one_process(tmp_path, command):
    path = write_cfg(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0 1"))
    for jobs in ("1", "2"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "report.csv" in names and "manifest.json" in names
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        if name != "manifest.json":
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    # the same manifest but for the cells' phase times, which are wall times
    manifests = [json.loads((tmp_path / jobs / "manifest.json").read_text())
                 for jobs in ("1", "2")]
    for manifest in manifests:
        for cell in manifest["cells"]:
            times = [k for k in cell["metrics"] if k.startswith("seconds_")]
            assert len(times) == 7
            for key in times:
                del cell["metrics"][key]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("command", ["diagnose", "experiment"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, command, jobs):
    path = write_cfg(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_experiment_rejects_jobs_below_one(tmp_path):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(ExperimentConfig(), out_dir=tmp_path / "out", jobs=0)
    assert not (tmp_path / "out").exists()


def test_cli_generate(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    files = list(out.glob("data_*.csv"))
    assert len(files) == 1


def test_cli_experiment_smoke(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    assert "1/1 cells succeeded" in capsys.readouterr().out
    report = out / "report.csv"
    assert report.exists()
    with report.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    # manifest echoes every resolved numeric parameter
    manifest = json.loads((out / "manifest.json").read_text())
    cell = manifest["cells"][0]["resolved"]
    for key in ("gamma", "j_in", "kappa_const", "eta", "m", "lambda", "delta_n"):
        assert key in row and row[key] != ""
        assert key in cell
    assert list(out.glob("trace_*.csv"))
    assert manifest["traces"] == {"cell_limit": 64, "skipped": False}


def test_cli_experiment_records_skipped_traces(tmp_path):
    path = write_cfg(tmp_path, """\
[surrogate]
n_probes = 1

[sampler]
j_in_rule = fixed
j_in_value = 0
j = 10
seeds = %s

[experiment]
n_grid = 20
p_value = 1
""" % " ".join(str(s) for s in range(65)))
    out = tmp_path / "many"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["cells"]) == 65
    assert manifest["traces"] == {"cell_limit": 64, "skipped": True}
    assert not list(out.glob("trace_*.csv"))


def test_cli_diagnose_runs_every_cell(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL.replace("seeds = 0", "seeds = 0 1"))
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["cell n=200 p=1 seed=0: ok", "cell n=200 p=1 seed=1: ok",
                     f"report: {out / 'report.csv'}"]
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["seed"] for row in rows] == ["0", "1"]
    for row in rows:
        for key in ("cond_surrogate", "grid_tv", "contraction_fraction"):
            assert row[key] != ""
    assert not (out / "recovery.csv").exists()


def test_cli_sample_writes_summary(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "smp"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["n"] == 200 and summary["p"] == 1
    assert len(summary["posterior_mean"]) == 1
    assert summary["resolved"]["probe_skipped"] == 0


@pytest.mark.parametrize("variant", ["surrogate", "vanilla"])
def test_sample_and_experiment_agree(tmp_path, variant):
    # eta small enough that the chain leaves the coincidence ball, where the
    # two drifts differ
    text = MINIMAL.replace("seeds = 0\n", f"seeds = 0\nvariant = {variant}\n")
    path = write_cfg(tmp_path, text + "\n[surrogate]\neta_value = 0.001\n")
    out = tmp_path / "smp"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "sample_summary.json").read_text())
    cell = run_cell(load_config(path), 200, 0)
    assert cell.status == "ok"
    assert summary["exit_step"] is not None
    assert summary["exit_step"] == cell.metrics["exit_step"]
    np.testing.assert_array_equal(summary["posterior_mean"],
                                  cell.trace.ergodic_average("identity"))
    # the surrogate drift's calls per region, one per step; none for vanilla
    keys = [f"drift_calls_{region}" for region in ("inner", "annulus", "far")]
    calls = {k: v for k, v in summary.items() if k.startswith("drift_calls_")}
    assert calls == {k: v for k, v in cell.metrics.items() if k.startswith("drift_calls_")}
    if variant == "vanilla":
        assert calls == {}
    else:
        assert sorted(calls) == sorted(keys)
        assert all(type(v) is int for v in calls.values())
        assert sum(calls.values()) == 550 and calls["drift_calls_far"] > 0


def test_sample_is_the_first_experiment_cell_without_diagnostics(tmp_path):
    text = MINIMAL.replace("seeds = 0", "seeds = 3 4").replace("n_grid = 200", "n_grid = 200 300")
    path = write_cfg(tmp_path, text.replace(
        "p_value = 1", "p_value = 1\ndiagnostics = grid-posterior contraction condition-numbers"))
    diagnostics = ("grid_posterior", "contraction_metric", "condition_numbers")
    with mock.patch.multiple(experiment, **{name: mock.DEFAULT for name in diagnostics}) as mocks:
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "smp"),
                     "--seed-offset", "2"]) == 0
    assert not any(m.called for m in mocks.values())
    summary = json.loads((tmp_path / "smp" / "sample_summary.json").read_text())
    assert (summary["n"], summary["p"], summary["seed"]) == (200, 1, 5)
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp"),
                 "--seed-offset", "2"]) == 0
    cell = json.loads((tmp_path / "exp" / "manifest.json").read_text())["cells"][0]
    assert (cell["n"], cell["seed"]) == (200, 5)
    assert summary["resolved"] == cell["resolved"]
    assert summary["exit_step"] == cell["metrics"]["exit_step"]
    assert {k: v for k, v in summary.items() if k.startswith("drift_calls_")} == {
        k: v for k, v in cell["metrics"].items() if k.startswith("drift_calls_")}
    trace = run_cell(load_config(path), 200, 5).trace
    np.testing.assert_array_equal(summary["posterior_mean"], trace.ergodic_average("identity"))
    with open(tmp_path / "exp" / "trace_n200_p1_seed5.csv") as fh:
        states = np.array([row[1:] for row in list(csv.reader(fh))[1:]], dtype=float)
    np.testing.assert_array_equal(states, trace.states)


def test_diverged_cell_message_names_the_exception(tmp_path):
    text = MINIMAL.replace("seeds = 0\n", "seeds = 0\ngamma_value = 0.001\n")
    path = write_cfg(tmp_path, text + "\n[surrogate]\neta_value = 0.05\n")
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")]) == 1
    with open(tmp_path / "exp" / "report.csv") as fh:
        row, = csv.DictReader(fh)
    assert row["status"] == "diverged"
    assert re.fullmatch(r"ChainDivergedError: chain diverged at step \d+", row["message"])


@pytest.mark.parametrize("guard, status, message", [
    ("none", "diverged", "ChainDivergedError: chain diverged at step 38"),
    ("reflect", "ok", "")])
def test_diverging_chain_warns_nothing(guard, status, message):
    # the overflow in the finiteness tests and the far-field drift is caught
    # and handled; numpy printed four RuntimeWarnings for it
    cfg = ExperimentConfig(p_value=1, eta_value=0.05, gamma_value=1e-3, j_in_rule="fixed",
                           j_in_value=0, j=200, guard=guard).validate()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cell = run_cell(cfg, 200, 0)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (cell.status, cell.message) == (status, message)


# report.csv's columns before the chain counts were appended after `message`
FIRST_REPORT_COLUMNS = [
    "n", "p", "seed", "status", "gamma", "j_in", "j", "kappa_const", "eta",
    "m", "lambda", "delta_n", "exit_step", "mean_error", "contraction_fraction",
    "cond_surrogate", "cond_prior", "grid_tv", "message",
]


@pytest.mark.parametrize("variant, counts", [("surrogate", ["197", "2", "1", "197"]),
                                             ("vanilla", ["0", "", "", ""])])
def test_report_shows_how_often_the_reflect_guard_acted(tmp_path, variant, counts):
    # gamma K is about 1.5e4, so every far-field step of the surrogate chain
    # overshoots and the guard folds it back: the cell is still `ok`, and its
    # row says so in the appended columns; the vanilla drift has no regions
    cfg = ExperimentConfig(p_value=1, eta_value=0.05, gamma_value=1e-3, j_in_rule="fixed",
                           j_in_value=0, j=200, guard="reflect", variant=variant,
                           n_grid=[200]).validate()
    results, report = run_experiment(cfg, tmp_path)
    with open(report, newline="") as fh:
        header, row = csv.reader(fh)
    assert header == FIRST_REPORT_COLUMNS + [
        "guard_trigger_count", "drift_calls_inner", "drift_calls_annulus", "drift_calls_far",
        "precision_floor", "epsilon_below_floor", "probe_skipped"]
    assert row[3] == "ok"
    assert _csv_line(row[:19]) == _csv_line(report_row_hand_written(results[0])[:19])
    assert row[19:23] == counts
    assert _csv_line(row[23:]) == _csv_line(report_row_hand_written(results[0])[23:])


def test_cli_seed_offset_changes_data(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    outs = []
    for off in (0, 1):
        out = tmp_path / f"off{off}"
        assert main(["generate", "--config", str(path), "--out", str(out),
                     "--seed-offset", str(off)]) == 0
        outs.append(sorted(out.glob("*.csv"))[0].read_text())
    assert outs[0] != outs[1]


def test_cli_experiment_determinism(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_cli_recovery_study(tmp_path):
    path = write_cfg(tmp_path, """\
[model]
preset = glm-gaussian
theta0_scale = 0.5

[sampler]
j_in_rule = fixed
j_in_value = 200
j = 2000
seeds = 0 1 2

[experiment]
n_grid = 100 200 400
p_rule = rate
diagnostics = recovery
""")
    out = tmp_path / "rec"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
    with (out / "recovery.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [100, 200, 400]
    slopes = {r["fitted_slope"] for r in rows}
    assert len(slopes) == 1
    float(slopes.pop())  # slope field present and numeric


@settings(max_examples=30, deadline=None)
@given(cells=st.lists(st.tuples(st.sampled_from([50, 100, 400, 1600]),
                                st.floats(1e-6, 10.0),
                                st.sampled_from(["ok", "ok", "failed", "diverged"])),
                      max_size=12),
       alpha=st.sampled_from([1.0, 1.5, 3]))
def test_recovery_csv_matches_the_first_computation(cells, alpha):
    # one size, no ok cell and failed cells included: the slope is then NaN
    from _oracles import recovery_csv_bytes

    results = [experiment.CellResult(n=n, p=1, seed=i, status=status,
                                     metrics={"mean_error": err} if status == "ok" else {})
               for i, (n, err, status) in enumerate(cells)]
    cfg = ExperimentConfig(alpha=alpha)
    with tempfile.TemporaryDirectory() as out:
        experiment._write_recovery(Path(out), cfg, results)
        written = (Path(out) / "recovery.csv").read_bytes()
    assert written == recovery_csv_bytes(results, alpha)


REAL_METRICS = ("mean_error", "contraction_fraction", "cond_surrogate", "cond_prior", "grid_tv")
COUNT_METRICS = ("exit_step", "guard_trigger_count", "drift_calls_inner",
                 "drift_calls_annulus", "drift_calls_far")
METRIC_COLUMNS = REAL_METRICS + COUNT_METRICS
REAL_COLUMNS = ("gamma", "kappa_const", "eta", "m", "lambda", "delta_n",
                "precision_floor") + REAL_METRICS
COUNT_COLUMNS = ("j_in", "j", "probe_skipped") + COUNT_METRICS
ABSENT = object()
_real = st.floats() | st.sampled_from(AWKWARD_FLOATS)
_count = st.integers(0, 10 ** 9)


def _csv_line(row):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(row)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(values=st.fixed_dictionaries(
           {**{k: st.none() | st.just(ABSENT) | _real | _real.map(np.float64)
               | st.floats(width=32).map(np.float32) for k in REAL_COLUMNS},
            **{k: st.none() | st.just(ABSENT) | _count | _count.map(np.int64)
               for k in COUNT_COLUMNS},
            "epsilon_below_floor": st.none() | st.just(ABSENT) | st.booleans()
            | st.booleans().map(np.bool_)}),
       extra=st.dictionaries(st.sampled_from(["m_pi", "lambda_pi", "epsilon", "c_w"]),
                             st.integers(0, 9) | st.floats() | st.booleans()),
       status=st.sampled_from(["ok", "failed", "diverged"]),
       message=st.text(max_size=20))
def test_report_row_matches_the_hand_written_row(values, extra, status, message):
    # the columns come from REPORT_COLUMNS alone, with the bytes the
    # per-column row wrote: Python or numpy scalars, None or absent values
    # (csv.writer alone would write a float32 in its own shortest form);
    # resolved and metric keys that are not columns are not written
    values = {k: v for k, v in values.items() if v is not ABSENT}
    result = experiment.CellResult(
        n=200, p=3, seed=7, status=status, message=message,
        resolved={**extra, **{k: v for k, v in values.items() if k not in METRIC_COLUMNS}},
        metrics={k: v for k, v in values.items() if k in METRIC_COLUMNS})
    assert _csv_line(result.row()) == _csv_line(report_row_hand_written(result))


def test_counts_are_json_ints_in_summary_and_manifest(tmp_path):
    path = write_cfg(tmp_path, MINIMAL.replace(
        "seeds = 0", "seeds = 0\nguard = reflect\nguard_radius = 0.5"))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "smp")]) == 0
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")]) == 0
    summary = json.loads((tmp_path / "smp" / "sample_summary.json").read_text())
    cell = json.loads((tmp_path / "exp" / "manifest.json").read_text())["cells"][0]
    counts = ("j", "j_in", "probe_skipped")
    reals = ("gamma", "eta", "kappa_const", "m", "lambda", "delta_n", "precision_floor")
    for resolved in (summary["resolved"], cell["resolved"]):
        assert all(type(resolved[k]) is int for k in counts)
        assert all(type(resolved[k]) is float for k in reals)
        assert type(resolved["epsilon_below_floor"]) is bool
    assert summary["resolved"] == cell["resolved"]
    metrics = cell["metrics"]
    assert type(metrics["guard_trigger_count"]) is int and metrics["guard_trigger_count"] > 0
    assert type(metrics["exit_step"]) is int
    assert type(summary["exit_step"]) is int
    assert type(metrics["mean_error"]) is float


def test_cli_sample_reports_divergence(tmp_path, capsys):
    text = MINIMAL + """
[surrogate]
eta_value = 0.05
"""
    text = text.replace("seeds = 0\n", "seeds = 0\ngamma_value = 0.001\n")
    out = tmp_path / "smp"
    assert main(["sample", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sample failed")
    assert "ChainDivergedError" in err[0]
    assert not (out / "sample_summary.json").exists()


def test_cube_link_cell_skips_probe_points_outside_the_link_range():
    cfg = ExperimentConfig(model_preset="glm-gaussian-cube", j_in_rule="fixed",
                           j_in_value=0, j=200)
    model, theta0 = build_model(cfg, 300, cfg.p_for(300), 0)
    surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
    assert surrogate.probe.skipped > 0
    assert resolved["probe_skipped"] == surrogate.probe.skipped > 0
    cell = run_cell(cfg, 300, 0)
    assert cell.status == "ok", cell.message


@pytest.mark.parametrize("preset, init_mode", [
    ("glm-poisson", "oracle-projection"), ("glm-gaussian", "oracle-perturbed"),
    ("density", "pilot-ascent"), ("darcy-1d", "pilot-ascent")])
def test_a_finished_cell_is_freed_by_reference_counting(preset, init_mode):
    # no reference cycle holds a cell's model or surrogate (and the arrays they
    # bind): with the cyclic collector off, both are gone when run_cell returns
    refs = []
    resolve = experiment.resolve_cell

    def recording(cfg, model, theta0, seed, clock):
        out = resolve(cfg, model, theta0, seed, clock)
        refs.extend([weakref.ref(model), weakref.ref(out[0])])
        return out

    cfg = ExperimentConfig(model_preset=preset, init_mode=init_mode, j_in_rule="fixed",
                           j_in_value=10, j=200, n_probes=20, darcy_mesh=32,
                           diagnostics=["condition-numbers"]).validate()
    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(experiment, "resolve_cell", recording):
            cell = run_cell(cfg, 100, 0)
        assert cell.status == "ok", cell.message
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
def test_pilot_ascent_rejected_for_the_cube_link_only(preset):
    # pilot ascent starts at theta = 0, where u = 0 is outside the cube
    # link's range u > 0: every such cell would fail
    cfg = ExperimentConfig(model_preset=preset, init_mode="pilot-ascent")
    if MODEL_PRESETS[preset].link != "cube":
        cfg.validate()
        return
    with pytest.raises(ConfigValidationError) as info:
        cfg.validate()
    assert len(info.value.problems) == 1
    assert info.value.problems[0].startswith("surrogate.init_mode: pilot-ascent starts at "
                                             "theta = 0")
    assert "cube link" in info.value.problems[0]
    ExperimentConfig(model_preset=preset, init_mode="oracle-perturbed").validate()


@pytest.mark.parametrize("p_rule", ["fixed", "rate"])
def test_oracle_perturbed_radius_is_checked_against_eta_over_8_at_each_n(p_rule):
    # oracle_perturbed_init draws within eta/8 of the truth projection and
    # eta depends on p, so validate checks init_rho at each n of the grid and
    # no cell fails late; init_rho = eta/8 itself is accepted
    n_grid = [100, 10_000]  # p = 4 and 4 when fixed, 5 and 22 by the rate
    base = dict(init_mode="oracle-perturbed", p_rule=p_rule, n_grid=n_grid)
    cfg = ExperimentConfig(**base)
    bounds = {n: cfg.eta_for(cfg.p_for(n)) / 8.0 for n in n_grid}
    for edge in sorted(set(bounds.values())):
        for rho in (edge, math.nextafter(edge, math.inf)):
            cfg = ExperimentConfig(init_rho=rho, **base)
            want = [f"surrogate.init_rho: {rho} exceeds eta/8 = {bounds[n]} "
                    f"at n = {n}, p = {cfg.p_for(n)}" for n in n_grid if rho > bounds[n]]
            if not want:
                cfg.validate()
                continue
            with pytest.raises(ConfigValidationError) as info:
                cfg.validate()
            assert info.value.problems == want
    # a radius of exactly eta/8 runs
    tiny = dict(n_grid=[50], n_probes=5, j_in_rule="fixed", j=10, p_rule=p_rule)
    cfg = ExperimentConfig(init_mode="oracle-perturbed", **tiny)
    cfg.init_rho = cfg.eta_for(cfg.p_for(50)) / 8.0
    cell = run_cell(cfg.validate(), 50, 0)
    assert cell.status == "ok", cell.message


PHASES = ("data", "init", "probe", "setup", "chain", "diagnostics")


def test_a_cell_records_its_phase_times_in_the_manifest_only(tmp_path):
    # wall seconds per phase: non-negative floats that sum to at most the
    # cell's own wall time, written to the manifest and not to report.csv
    cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=2, n_probes=5, j_in_rule="fixed",
                           j=10, init_mode="pilot-ascent",
                           diagnostics=["condition-numbers", "contraction"])
    t0 = perf_counter()
    cell = run_cell(cfg, 50, 0)
    wall = perf_counter() - t0
    assert cell.status == "ok", cell.message
    times = {k: v for k, v in cell.metrics.items() if k.startswith("seconds_")}
    assert list(times) == ["seconds_" + phase for phase in PHASES]
    assert all(type(v) is float and v >= 0.0 for v in times.values())
    assert sum(times.values()) <= wall
    assert not [c for c in experiment.REPORT_COLUMNS if c.startswith("seconds_")]
    _, report = run_experiment(cfg, out_dir=tmp_path)
    metrics = json.loads((tmp_path / "manifest.json").read_text())["cells"][0]["metrics"]
    assert all(type(metrics["seconds_" + phase]) is float for phase in PHASES)
    assert next(csv.reader(io.StringIO(report.read_text()))) == experiment.REPORT_COLUMNS


def test_the_trace_write_time_is_in_the_manifest_only(tmp_path):
    # each cell's trace CSV and .meta.json are written before the manifest,
    # which records their wall time as seconds_write; a failed cell writes
    # no trace and has no such key, nor has a run past the trace limit
    cfg = ExperimentConfig(n_grid=[50], seeds=[0, 1], p_value=2, n_probes=5,
                           j_in_rule="fixed", j=10)
    written = []

    def write(path, result, _write=experiment._write_trace):
        assert not (tmp_path / "manifest.json").exists()
        _write(path, result)
        written.append(result.seed)

    fail_seed_1 = (lambda cfg, n, seed: run_cell(cfg, n, seed) if seed == 0 else
                   experiment.CellResult(n, 2, seed, "failed", "RuntimeError: injected"))
    with mock.patch.object(experiment, "_write_trace", write), \
            mock.patch.object(experiment, "run_cell", fail_seed_1):
        run_experiment(cfg, out_dir=tmp_path)
    assert written == [0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "report.csv", "trace_n50_p2_seed0.csv", "trace_n50_p2_seed0.meta.json"]
    cells = json.loads((tmp_path / "manifest.json").read_text())["cells"]
    assert type(cells[0]["metrics"]["seconds_write"]) is float
    assert cells[0]["metrics"]["seconds_write"] >= 0.0
    assert "seconds_write" not in cells[1]["metrics"]
    assert "seconds_write" not in experiment.REPORT_COLUMNS
    with mock.patch.object(experiment, "TRACE_CELL_LIMIT", 1):
        run_experiment(cfg, out_dir=tmp_path / "many")
    cells = json.loads((tmp_path / "many" / "manifest.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["ok", "ok"]
    assert not [c for c in cells if "seconds_write" in c["metrics"]]
    # report.csv has the same bytes whether the traces were written or not
    run_experiment(cfg, out_dir=tmp_path / "traced")
    assert (tmp_path / "traced" / "report.csv").read_bytes() == (
        tmp_path / "many" / "report.csv").read_bytes()


@pytest.mark.parametrize("target, finished", [
    ("curvature_probe", PHASES[:2]), ("sample_cell", PHASES[:4])])
def test_a_failed_cell_keeps_the_phases_it_finished(target, finished):
    cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=2, n_probes=5, j_in_rule="fixed",
                           j=10)
    owner = ModelInstance if target == "curvature_probe" else experiment
    with mock.patch.object(owner, target, side_effect=RuntimeError("injected")):
        cell = run_cell(cfg, 50, 0)
    assert (cell.status, cell.message) == ("failed", "RuntimeError: injected")
    assert [k for k in cell.metrics if k.startswith("seconds_")] == [
        "seconds_" + phase for phase in finished]
    assert all(cell.metrics["seconds_" + phase] >= 0.0 for phase in finished)


@pytest.mark.parametrize("guard", ["none", "reflect"])
def test_nonconcave_probe_named_by_a_fixed_gamma_cell(guard):
    # around theta0 = [0.3, 0.2] the cube link's likelihood is not concave:
    # a 50-point probe reads a minimum curvature of -316.347, where each
    # candidate draws its directions whether or not it is kept (-118.57 when
    # a skipped candidate drew none)
    cfg = ExperimentConfig(model_preset="glm-gaussian-cube", theta0_values=[0.3, 0.2],
                           eta_value=0.5, gamma_value=1e-3, k_override=30.0,
                           n_probes=50, p_value=2, j_in_rule="fixed", j_in_value=0,
                           j=100, guard=guard)
    model, theta0 = build_model(cfg, 200, 2, 0)
    with pytest.raises(ConfigurationError, match=r"negative minimum curvature -316\.347 "):
        resolve_cell(cfg, model, theta0, 0)
    cell = run_cell(cfg, 200, 0)
    assert cell.status == "failed"
    assert cell.message.startswith("ConfigurationError:") and "not concave" in cell.message


def test_write_trace_bytes_match_csv_writer(tmp_path):
    from _oracles import awkward_floats, csv_writer_bytes

    rows, p, stride = 2 * CSV_BLOCK_ROWS + 5, 3, 4
    edges = (0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, rows - 1)
    states = awkward_floats(rows, p, 0, rows_at=edges)
    trace = ChainTrace(states, stride, None, {}, 0, rows * stride, 0, 0.1)
    path = tmp_path / "trace.csv"
    experiment._write_trace(path, experiment.CellResult(n=1, p=p, seed=0, trace=trace))
    expected = csv_writer_bytes(["step", "coord_1", "coord_2", "coord_3"],
                                [[i * stride, *row] for i, row in enumerate(states)])
    assert path.read_bytes() == expected


def test_jobs_run_records_floor_and_guard_triggers(tmp_path):
    # the posterior sits near theta0 = 1, outside the guard radius, so the
    # reflect guard triggers on most steps
    path = write_cfg(tmp_path, MINIMAL.replace(
        "seeds = 0", "seeds = 0 1\nguard = reflect\nguard_radius = 0.5"))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "two"),
                 "--jobs", "2"]) == 0
    results, _ = run_experiment(load_config(path), out_dir=tmp_path / "one")
    for name in ("report.csv", "trace_n200_p1_seed0.csv", "trace_n200_p1_seed1.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    manifest = json.loads((tmp_path / "two" / "manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    for cell, result in zip(manifest["cells"], results):
        r = cell["resolved"]
        assert r["precision_floor"] == result.resolved["precision_floor"] > 0.0
        assert r["epsilon_below_floor"] is (r["epsilon"] < r["precision_floor"])
        assert r["probe_skipped"] == result.resolved["probe_skipped"] == 0
        count = cell["metrics"]["guard_trigger_count"]
        assert count == result.trace.guard_trigger_count > 0


def test_precision_floor_recorded_under_both_burn_in_rules(caplog):
    # the notice is one log record from the experiment module, not a warning
    for rule in ("fixed", "auto"):
        cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=1, n_probes=5,
                               j_in_rule=rule, j=10)
        model, theta0 = build_model(cfg, 50, 1, 0)
        caplog.clear()
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level(logging.WARNING, logger=experiment.__name__):
            warnings.simplefilter("always")
            surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
        bias = discretization_bias(resolved["gamma"], 1, surrogate.m, surrogate.lam)
        assert resolved["precision_floor"] == precision_floor(50, resolved["delta_n"], bias)
        assert resolved["epsilon_below_floor"] is (cfg.epsilon < resolved["precision_floor"])
        floor_logged = [r for r in caplog.records if "certified floor" in r.getMessage()]
        assert len(floor_logged) == (rule == "auto" and resolved["epsilon_below_floor"])
        assert all(r.name == experiment.__name__ and r.levelno == logging.WARNING
                   for r in floor_logged)
        assert not any("certified floor" in str(w.message) for w in caught)


def test_init_distance_over_eta_in_the_manifest_only(tmp_path):
    # ||theta_init - theta*|| / eta for each init mode, and pilot ascent's
    # counts for its cells; the report keeps its columns and bytes
    counts = ("objective_evals", "gradient_evals", "last_move")
    assert "init_distance_over_eta" not in experiment.REPORT_COLUMNS
    assert not {"pilot_" + key for key in counts} & set(experiment.REPORT_COLUMNS)
    base = dict(n_grid=[50], seeds=[0], p_value=2, n_probes=5, j_in_rule="fixed", j=10)
    for mode in ("oracle-projection", "oracle-perturbed", "pilot-ascent"):
        cfg = ExperimentConfig(init_mode=mode, init_rho=0.1, eta_value=1.0, **base)
        model, theta0 = build_model(cfg, 50, 2, 0)
        surrogate, theta_star, _, info = resolve_cell(cfg, model, theta0, 0)
        distance = np.linalg.norm(surrogate.theta_init - theta_star) / surrogate.eta
        assert info["distance_over_eta"] == pytest.approx(distance, rel=1e-15)
        if mode == "oracle-projection":
            assert info["distance_over_eta"] == 0.0
        elif mode == "oracle-perturbed":
            assert 0.0 < info["distance_over_eta"] <= 0.1
        else:  # the distance of the point pilot ascent returns, for its 1/8 contract
            theta, pilot = pilot_ascent_init(model, SievePrior(cfg.alpha, 50, 2))
            d = theta - theta_star
            assert info["distance_over_eta"] == math.sqrt(d.dot(d)) / surrogate.eta
        _, report = run_experiment(cfg, out_dir=tmp_path / mode)
        manifest = json.loads((tmp_path / mode / "manifest.json").read_text())
        metrics = manifest["cells"][0]["metrics"]
        assert metrics["init_distance_over_eta"] == info["distance_over_eta"]
        if mode == "pilot-ascent":
            assert {key: metrics["pilot_" + key] for key in counts} == {
                key: pilot[key] for key in counts}
            # one distinct point per move, and one move at most per step
            assert pilot["gradient_evals"] - 1 <= pilot["last_move"] <= 500
            assert pilot["gradient_evals"] <= pilot["objective_evals"] <= 501
        else:
            assert not any(key.startswith("pilot_") for key in metrics)
        header = next(csv.reader(io.StringIO(report.read_text())))
        assert header == experiment.REPORT_COLUMNS
    # no truth: no distance
    cfg = ExperimentConfig(init_mode="pilot-ascent", **base)
    model, _ = build_model(cfg, 50, 2, 0)
    assert "distance_over_eta" not in resolve_cell(cfg, model, None, 0)[3]


EVALUATION_COUNTS = ("log_lik_calls", "log_lik_rows", "grad_log_lik_calls", "hessian_points")


def test_evaluation_counts_in_the_manifest_only(tmp_path):
    # a pilot-ascent cell calls log_lik once per distinct ascent point, once
    # per probe block, once at theta_init for the surrogate and once per
    # annulus drift call, and grad_log_lik once per ascent move and at the
    # probe's centre; the chain's gradient body is not counted
    assert not set(EVALUATION_COUNTS) & set(experiment.REPORT_COLUMNS)
    n_probes = 40
    # a step of 1e-6 takes the chain into the annulus of eta = 0.05
    cfg = ExperimentConfig(model_preset="glm-poisson", n_grid=[100], seeds=[0], p_value=2,
                           n_probes=n_probes, j_in_rule="fixed", j=200,
                           init_mode="pilot-ascent", eta_value=0.05, gamma_value=1e-6)
    _, report = run_experiment(cfg, out_dir=tmp_path)
    cell = json.loads((tmp_path / "manifest.json").read_text())["cells"][0]
    m, skipped = cell["metrics"], cell["resolved"]["probe_skipped"]
    assert all(type(m[key]) is int for key in EVALUATION_COUNTS)
    ascent, annulus = m["pilot_objective_evals"], m["drift_calls_annulus"]
    assert annulus > 0
    assert m["log_lik_calls"] == ascent + math.ceil(n_probes / PROBE_BLOCK) + 1 + annulus
    assert m["log_lik_rows"] == ascent + n_probes + 1 + annulus
    assert m["grad_log_lik_calls"] == m["pilot_gradient_evals"] + 1
    assert m["hessian_points"] == n_probes - skipped
    assert next(csv.reader(io.StringIO(report.read_text()))) == experiment.REPORT_COLUMNS
    # a cell that fails in its chain keeps the counts of what it evaluated
    with mock.patch.object(experiment, "sample_cell", side_effect=RuntimeError("injected")):
        failed = run_cell(cfg, 100, 0)
    assert failed.status == "failed"
    assert failed.metrics["log_lik_calls"] == ascent + math.ceil(n_probes / PROBE_BLOCK) + 1
    assert failed.metrics["hessian_points"] == n_probes - skipped


def test_forward_states_solved_in_the_darcy_manifest_only(tmp_path):
    # a Darcy cell's manifest counts the states its operator solved, the
    # data's included: one per column of each factorized operator; other
    # cells have no such key, and the report no such column
    assert "forward_states_solved" not in experiment.REPORT_COLUMNS
    base = dict(n_grid=[50], seeds=[0], p_value=2, n_probes=20, j_in_rule="fixed", j=10,
                darcy_mesh=32, init_mode="pilot-ascent")
    states = []

    def counted(f, _factorize=forward._factorized_operator):
        states.append(1 if f.ndim == 1 else f.shape[1])
        return _factorize(f)

    for preset in ("darcy-1d", "glm-gaussian"):
        cfg = ExperimentConfig(model_preset=preset, **base)
        with mock.patch.object(forward, "_factorized_operator", counted):
            _, report = run_experiment(cfg, out_dir=tmp_path / preset)
        cell = json.loads((tmp_path / preset / "manifest.json").read_text())["cells"][0]
        assert cell["status"] == "ok"
        if preset == "darcy-1d":
            assert cell["metrics"]["forward_states_solved"] == sum(states) > cfg.n_probes
        else:
            assert "forward_states_solved" not in cell["metrics"]
        assert next(csv.reader(io.StringIO(report.read_text()))) == experiment.REPORT_COLUMNS


def test_relaxation_steps_and_relaxations_in_the_manifest_only(tmp_path):
    # the chain's length against its relaxation time 2/(m gamma), under both
    # burn-in rules; the report keeps its columns
    assert not {"relaxation_steps", "relaxations"} & set(experiment.REPORT_COLUMNS)
    for rule in ("auto", "fixed"):
        cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=2, n_probes=5,
                               j_in_rule=rule, j_in_value=30, j=10)
        model, theta0 = build_model(cfg, 50, 2, 0)
        surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
        steps = 2.0 / (surrogate.m * resolved["gamma"])
        assert resolved["relaxation_steps"] == steps > 0.0
        assert resolved["relaxations"] == (resolved["j_in"] + 10) / steps
        assert resolved["relaxations"] == pytest.approx(
            (resolved["j_in"] + 10) * surrogate.m * resolved["gamma"] / 2.0, rel=1e-15)
    results, report = run_experiment(cfg, out_dir=tmp_path)
    cell = json.loads((tmp_path / "manifest.json").read_text())["cells"][0]["resolved"]
    for key in ("relaxation_steps", "relaxations"):
        assert cell[key] == results[0].resolved[key]
    assert cell["relaxations"] == 40 / cell["relaxation_steps"]
    assert next(csv.reader(io.StringIO(report.read_text()))) == experiment.REPORT_COLUMNS


def test_precision_floor_terms_in_the_manifest_only(tmp_path):
    # the floor's two terms and Lambda over the probe's largest curvature
    keys = ("floor_tail_term", "floor_bias_term", "lambda_over_probe_max")
    assert not set(keys) & set(experiment.REPORT_COLUMNS)
    cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=2, n_probes=5,
                           j_in_rule="fixed", j_in_value=30, j=10)
    model, theta0 = build_model(cfg, 50, 2, 0)
    surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
    tail, bias = resolved["floor_tail_term"], resolved["floor_bias_term"]
    assert resolved["precision_floor"] == math.sqrt(tail + bias)
    assert tail == 16.0 * math.exp(-50 * resolved["delta_n"] ** 2)
    assert bias == 8.0 * discretization_bias(resolved["gamma"], 2, surrogate.m, surrogate.lam)
    assert surrogate.probe.lambda_max_est > 0.0
    assert resolved["lambda_over_probe_max"] == surrogate.lam / surrogate.probe.lambda_max_est
    results, report = run_experiment(cfg, out_dir=tmp_path)
    cell = json.loads((tmp_path / "manifest.json").read_text())["cells"][0]["resolved"]
    for key in keys:
        assert cell[key] == results[0].resolved[key]
    assert next(csv.reader(io.StringIO(report.read_text()))) == experiment.REPORT_COLUMNS


def test_lambda_over_probe_max_is_null_where_the_probe_reads_no_curvature(tmp_path):
    flat = CurvatureReport(lambda_min_est=1.0, lambda_max_est=0.0, grad_norm_at_center=1.0)
    cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=2, n_probes=5,
                           j_in_rule="fixed", j_in_value=30, j=10, k_override=1.0)
    model, theta0 = build_model(cfg, 50, 2, 0)
    with mock.patch.object(ModelInstance, "curvature_probe", lambda *args: flat):
        surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
    assert surrogate.lam > 0.0 and resolved["lambda_over_probe_max"] is None


FAILING_CELLS_GRID = [(n, seed) for n in (20, 30) for seed in (0, 1, 2)]


@settings(max_examples=15)
@given(failing=st.sets(st.sampled_from(FAILING_CELLS_GRID)))
def test_failed_cells_never_abort_a_run(failing):
    cfg = ExperimentConfig(n_grid=[20, 30], seeds=[0, 1, 2], p_value=1, n_probes=1,
                           j_in_rule="fixed", j=10)
    build = experiment.build_model

    def flaky_build(cfg, n, p, seed):
        if (n, seed) in failing:
            raise RuntimeError(f"injected failure at n={n} seed={seed}")
        return build(cfg, n, p, seed)

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(experiment, "build_model", flaky_build):
        results, report = run_experiment(cfg, out_dir=out)
        with open(report) as fh:
            rows = list(csv.DictReader(fh))
    assert sorted((r.n, r.seed) for r in results) == FAILING_CELLS_GRID
    assert sorted((int(r["n"]), int(r["seed"])) for r in rows) == FAILING_CELLS_GRID
    for row in rows:
        if (int(row["n"]), int(row["seed"])) in failing:
            assert row["status"] == "failed" and row["message"]
        else:
            assert row["status"] == "ok"
