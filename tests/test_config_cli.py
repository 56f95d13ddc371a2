import csv
import io
import json
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import AWKWARD_FLOATS, report_row_hand_written
from surrogate_langevin import experiment
from surrogate_langevin.cli import main
from surrogate_langevin.config import (ConfigValidationError, ExperimentConfig,
                                       load_config)
from surrogate_langevin.experiment import build_model, resolve_cell, run_cell, run_experiment
from surrogate_langevin.likelihood import CSV_BLOCK_ROWS
from surrogate_langevin.sampler import ChainTrace, discretization_bias, precision_floor
from surrogate_langevin.surrogate import ConfigurationError

MINIMAL = """\
[model]
preset = glm-gaussian
theta0_mode = explicit
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


def test_unknown_diagnostic_rejected():
    # w2 and exit-times were once accepted without computing anything
    for name in ("telepathy", "w2", "exit-times"):
        cfg = ExperimentConfig(diagnostics=["grid-posterior", name])
        with pytest.raises(ConfigValidationError) as exc:
            cfg.validate()
        assert any(name in p for p in exc.value.problems)


def test_unknown_sections_and_keys_rejected(tmp_path):
    text = MINIMAL.replace("seeds = 0\n", "seeds = 0\ngama = 0.1\nrun_vanilla = true\n")
    text += "\n[output]\ndir = out\nthinning = 5\n\n[plots]\nstyle = dark\n"
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, text))
    assert sorted(exc.value.problems) == [
        "[plots]: unknown section", "output.thinning: unknown key",
        "sampler.gama: unknown key", "sampler.run_vanilla: unknown key"]


def test_unparseable_value_rejected(tmp_path):
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, MINIMAL.replace("j = 500", "j = 5O0")))
    assert exc.value.problems == ["sampler.j: cannot parse '5O0'"]
    for text in ("preset = glm-gaussian\n", MINIMAL + "\n[prior]\nalpha = 2\n"):
        with pytest.raises(ConfigValidationError):
            load_config(write_cfg(tmp_path, text))


def test_default_config_is_valid():
    ExperimentConfig().validate()


EVERY_KEY = """\
[model]
preset = glm-poisson
theta0_mode = explicit
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
eta_rule = fixed
eta_value = 0.25
k_override = 7
init_mode = oracle-perturbed
init_rho = 0.01
n_probes = 9
[sampler]
variant = vanilla
gamma_rule = fixed
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
        model_preset="glm-poisson", theta0_mode="explicit", theta0_scale=0.25,
        theta0_power=3.0, theta0_values=[1.0, 2.0], darcy_mesh=64, darcy_f_min=0.5,
        darcy_source=2.0, darcy_boundary=(0.5, 2.0), alpha=1.5, eta_rule="fixed",
        eta_value=0.25, k_override=7.0, init_mode="oracle-perturbed", init_rho=0.01,
        n_probes=9, variant="vanilla", gamma_rule="fixed", gamma_fraction=0.5,
        gamma_bound="exit", gamma_value=0.001, j_in_rule="fixed", j_in_value=3,
        epsilon=2.0, c_w=1.5, j=11, seeds=[4, 5], guard="reflect", guard_radius=9.0,
        n_grid=[30, 60], p_rule="rate", p_value=2, diagnostics=["contraction", "recovery"],
        out_dir="elsewhere", thinning_budget=5000)
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
    "model.theta0_mode": ("decay", "explicit"),
    "surrogate.eta_rule": ("preset", "fixed"),
    "surrogate.init_mode": ("oracle-projection", "oracle-perturbed", "pilot-ascent"),
    "sampler.variant": ("surrogate", "vanilla"),
    "sampler.gamma_rule": ("fraction", "fixed"),
    "sampler.gamma_bound": ("sampling", "exit"),
    "sampler.j_in_rule": ("auto", "fixed"),
    "sampler.guard": ("none", "reflect"),
    "experiment.p_rule": ("fixed", "rate"),
    "experiment.diagnostics": ("grid-posterior", "contraction", "condition-numbers",
                               "recovery"),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumerated_option_rejects_an_unknown_value(tmp_path, name):
    section, key = name.split(".")
    value = "contraction bogus" if key == "diagnostics" else "bogus"
    with pytest.raises(ConfigValidationError) as exc:
        load_config(write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n"))
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
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


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
    path = write_cfg(tmp_path, text + "\n[surrogate]\neta_rule = fixed\neta_value = 0.001\n")
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
    text = MINIMAL.replace("seeds = 0\n", "seeds = 0\ngamma_rule = fixed\ngamma_value = 0.001\n")
    path = write_cfg(tmp_path, text + "\n[surrogate]\neta_rule = fixed\neta_value = 0.05\n")
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
    cfg = ExperimentConfig(p_value=1, eta_rule="fixed", eta_value=0.05, gamma_rule="fixed",
                           gamma_value=1e-3, j_in_rule="fixed", j_in_value=0, j=200,
                           guard=guard).validate()
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
    cfg = ExperimentConfig(p_value=1, eta_rule="fixed", eta_value=0.05, gamma_rule="fixed",
                           gamma_value=1e-3, j_in_rule="fixed", j_in_value=0, j=200,
                           guard="reflect", variant=variant, n_grid=[200]).validate()
    results, report = run_experiment(cfg, tmp_path)
    with open(report, newline="") as fh:
        header, row = csv.reader(fh)
    assert header == FIRST_REPORT_COLUMNS + ["guard_trigger_count", "drift_calls_inner",
                                             "drift_calls_annulus", "drift_calls_far"]
    assert row[3] == "ok"
    assert _csv_line(row[:19]) == _csv_line(report_row_hand_written(results[0])[:19])
    assert row[19:] == counts


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
REAL_COLUMNS = ("gamma", "kappa_const", "eta", "m", "lambda", "delta_n") + REAL_METRICS
COUNT_COLUMNS = ("j_in", "j") + COUNT_METRICS
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
               for k in COUNT_COLUMNS}}),
       extra=st.dictionaries(st.sampled_from(["precision_floor", "probe_skipped",
                                              "m_pi", "epsilon_below_floor"]),
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
eta_rule = fixed
eta_value = 0.05
"""
    text = text.replace("seeds = 0\n", "seeds = 0\ngamma_rule = fixed\ngamma_value = 0.001\n")
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


@pytest.mark.parametrize("guard", ["none", "reflect"])
def test_nonconcave_probe_named_by_a_fixed_gamma_cell(guard):
    # around theta0 = [0.3, 0.2] the cube link's likelihood is not concave:
    # a 50-point probe reads a minimum curvature of about -119
    cfg = ExperimentConfig(model_preset="glm-gaussian-cube", theta0_mode="explicit",
                           theta0_values=[0.3, 0.2], eta_rule="fixed", eta_value=0.5,
                           gamma_rule="fixed", gamma_value=1e-3, k_override=30.0,
                           n_probes=50, p_value=2, j_in_rule="fixed", j_in_value=0,
                           j=100, guard=guard)
    model, theta0 = build_model(cfg, 200, 2, 0)
    with pytest.raises(ConfigurationError, match="negative minimum curvature -1"):
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


def test_precision_floor_recorded_under_both_burn_in_rules():
    for rule in ("fixed", "auto"):
        cfg = ExperimentConfig(n_grid=[50], seeds=[0], p_value=1, n_probes=5,
                               j_in_rule=rule, j=10)
        model, theta0 = build_model(cfg, 50, 1, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            surrogate, _, resolved, _ = resolve_cell(cfg, model, theta0, 0)
        bias = discretization_bias(resolved["gamma"], 1, surrogate.m, surrogate.lam)
        assert resolved["precision_floor"] == precision_floor(50, resolved["delta_n"], bias)
        assert resolved["epsilon_below_floor"] is (cfg.epsilon < resolved["precision_floor"])
        floor_warned = any("certified floor" in str(w.message) for w in caught)
        assert floor_warned is (rule == "auto" and resolved["epsilon_below_floor"])


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
