"""Experiment configuration: INI-style files with block headers and key=value
lines, validated up front so every rule resolves to numbers before any chain
starts."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .initializers import oracle_projection_init
from .sampler import GUARDS


class ModelPreset(NamedTuple):
    kind: str                      # data kind: "regression" | "density"
    family: str | None
    link: str | None
    basis: str
    exponents: tuple = (0.0, 0.5)  # (kappa1, kappa2) of choose_K
    eta_power: float = -0.5        # eta = p ** eta_power under eta_rule = preset


MODEL_PRESETS = {
    "glm-gaussian": ModelPreset("regression", "gaussian", "canonical", "cosine-with-constant"),
    "glm-poisson": ModelPreset("regression", "poisson", "canonical", "cosine-with-constant"),
    "glm-logistic": ModelPreset("regression", "bernoulli", "canonical", "cosine-with-constant"),
    "glm-gaussian-cube": ModelPreset("regression", "gaussian", "cube", "cosine-with-constant"),
    "density": ModelPreset("density", None, None, "cosine-centered"),
    "darcy-1d": ModelPreset("regression", "gaussian", "canonical", "dirichlet-sine",
                            exponents=(0.0, 2.0), eta_power=-8.0),
}


class ConfigValidationError(ValueError):
    """Carries the full list of violated fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _list_of(conv):
    return lambda raw: [conv(tok) for tok in raw.replace(",", " ").split()]


def _pair(raw):
    vals = _list_of(float)(raw)
    if len(vals) != 2:
        raise ValueError(f"expected two numbers, got {len(vals)}")
    return tuple(vals)


def _opt(section, default, parse=None, *, key=None, choices=None):
    """A config option: the `[section]` and key (default: the field name) it is
    read from, the parser of its raw string (default: the type of the default)
    and, for an enumeration, its allowed values (every entry of a list)."""
    meta = dict(section=section, key=key, parse=parse or type(default), choices=choices)
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    model_preset: str = _opt("model", "glm-gaussian", key="preset", choices=tuple(MODEL_PRESETS))
    theta0_mode: str = _opt("model", "decay", choices=("decay", "explicit"))
    theta0_scale: float = _opt("model", 0.5)
    theta0_power: float = _opt("model", 2.0)        # theta0_k = scale * k^{-power}
    theta0_values: list = _opt("model", [], _list_of(float))
    darcy_mesh: int = _opt("model", 256)
    darcy_f_min: float = _opt("model", 1.0)
    darcy_source: float = _opt("model", 4.0)
    darcy_boundary: tuple = _opt("model", (1.0, 1.0), _pair)
    alpha: float = _opt("prior", 1.0)
    eta_rule: str = _opt("surrogate", "preset", choices=("preset", "fixed"))
    eta_value: float = _opt("surrogate", 0.0)
    k_override: float | None = _opt("surrogate", None, float)
    init_mode: str = _opt("surrogate", "oracle-projection", choices=(
        "oracle-projection", "oracle-perturbed", "pilot-ascent"))
    init_rho: float = _opt("surrogate", 0.0)        # oracle-perturbed radius (<= eta/8)
    n_probes: int = _opt("surrogate", 200)
    variant: str = _opt("sampler", "surrogate", choices=("surrogate", "vanilla"))
    # gamma: gamma_fraction times the gamma_bound step bound, or gamma_value when fixed
    gamma_rule: str = _opt("sampler", "fraction", choices=("fraction", "fixed"))
    gamma_fraction: float = _opt("sampler", 1.0)
    # sampling: 2/(m+L); exit: m/(sqrt54 L^2)
    gamma_bound: str = _opt("sampler", "sampling", choices=("sampling", "exit"))
    gamma_value: float = _opt("sampler", 0.0)
    j_in_rule: str = _opt("sampler", "auto", choices=("auto", "fixed"))  # auto: burn-in formula
    j_in_value: int = _opt("sampler", 0)
    epsilon: float = _opt("sampler", 0.5)
    c_w: float = _opt("sampler", 1.0)
    j: int = _opt("sampler", 10_000)
    seeds: list = _opt("sampler", [0], _list_of(int))
    guard: str = _opt("sampler", "none", choices=GUARDS)
    guard_radius: float = _opt("sampler", 1e3)
    n_grid: list = _opt("experiment", [500], _list_of(int))
    p_rule: str = _opt("experiment", "fixed", choices=("fixed", "rate"))  # rate: round n^{1/(2a+1)}
    p_value: int = _opt("experiment", 4)
    diagnostics: list = _opt("experiment", [], _list_of(str), choices=(
        "grid-posterior", "contraction", "condition-numbers", "recovery"))
    out_dir: str = _opt("output", "out", key="dir")
    thinning_budget: int = _opt("output", 10_000_000)

    def p_for(self, n: int) -> int:
        if self.p_rule == "fixed":
            return self.p_value
        return max(1, round(n ** (1.0 / (2.0 * self.alpha + 1.0))))

    def eta_for(self, p: int) -> float:
        if self.eta_rule == "fixed":
            return self.eta_value
        return float(p) ** MODEL_PRESETS[self.model_preset].eta_power

    def delta_n(self, n: int) -> float:
        return float(n) ** (-self.alpha / (2.0 * self.alpha + 1.0))

    def theta0_for(self, p: int):
        import numpy as np
        if self.theta0_mode == "explicit":
            return oracle_projection_init(self.theta0_values, p)
        k = np.arange(1, p + 1, dtype=float)
        return self.theta0_scale * k ** -self.theta0_power

    def validate(self):
        problems = []
        for f in fields(self):
            name = f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
            choices = f.metadata["choices"]
            value = getattr(self, f.name)
            for v in value if isinstance(value, (list, tuple)) else [value]:
                if choices is not None and v not in choices:
                    problems.append(f"{name}: must be one of {', '.join(choices)}, got {v!r}")
                elif isinstance(v, float) and not math.isfinite(v):
                    problems.append(f"{name}: must be finite, got {v}")
        if self.theta0_mode == "explicit" and not self.theta0_values:
            problems.append("model.theta0_values: required when theta0_mode = explicit")
        if self.darcy_mesh < 8:
            problems.append("model.darcy_mesh: must be >= 8")
        if self.alpha <= 0.5:
            problems.append("prior.alpha: smoothness must exceed 1/2")
        if self.eta_rule == "fixed" and self.eta_value <= 0:
            problems.append("surrogate.eta_value: must be positive when eta_rule = fixed")
        if self.k_override is not None and self.k_override <= 0:
            problems.append("surrogate.k_override: must be positive when given")
        preset = MODEL_PRESETS.get(self.model_preset)
        if self.init_mode == "pilot-ascent" and preset is not None and preset.link == "cube":
            problems.append(
                "surrogate.init_mode: pilot-ascent starts at theta = 0, where the forward "
                "value u = 0 is outside the range u > 0 of the cube link of preset "
                f"{self.model_preset}; use an oracle init")
        if self.init_mode == "oracle-perturbed" and self.init_rho < 0:
            problems.append("surrogate.init_rho: must be nonnegative")
        elif (self.init_mode == "oracle-perturbed" and preset is not None
              and self.alpha > 0.5 and (self.p_rule != "fixed" or self.p_value >= 1)):
            # oracle_perturbed_init draws within eta/8, and eta depends on p
            for n in (n for n in self.n_grid if n >= 1):
                p = self.p_for(n)
                bound = self.eta_for(p) / 8.0
                if self.init_rho > bound:
                    problems.append(f"surrogate.init_rho: {self.init_rho} exceeds "
                                    f"eta/8 = {bound} at n = {n}, p = {p}")
        if self.n_probes < 1:
            problems.append("surrogate.n_probes: must be >= 1")
        if self.gamma_rule == "fraction" and not 0.0 < self.gamma_fraction <= 1.0:
            problems.append(
                f"sampler.gamma: fraction-of-bound must lie in (0, 1], got {self.gamma_fraction}"
                " (violates the step-size bound)")
        if self.gamma_rule == "fixed" and self.gamma_value <= 0:
            problems.append("sampler.gamma_value: must be positive when gamma_rule = fixed")
        if self.j_in_rule == "fixed" and self.j_in_value < 0:
            problems.append("sampler.j_in_value: must be >= 0")
        if self.epsilon <= 0:
            problems.append("sampler.epsilon: must be positive")
        if self.c_w < 0:
            problems.append("sampler.c_w: must be nonnegative")
        if self.j < 1:
            problems.append("sampler.j: must be >= 1")
        if self.guard_radius <= 0:
            problems.append("sampler.guard_radius: must be positive")
        if not self.seeds:
            problems.append("sampler.seeds: need at least one seed")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            problems.append("experiment.n_grid: need positive sample sizes")
        if self.p_rule == "fixed" and self.p_value < 1:
            problems.append("experiment.p_value: must be >= 1")
        if self.thinning_budget < 1000:
            problems.append("output.thinning_budget: must be >= 1000")
        if problems:
            raise ConfigValidationError(problems)
        return self


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Malformed files, unknown sections and keys and unparseable values are
    rejected, so a misspelt option cannot silently fall back to its default.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(Path(path).read_text())
    except configparser.Error as exc:
        raise ConfigValidationError([str(exc)]) from None
    options = {}  # section -> key -> field, from the field declarations
    for f in fields(ExperimentConfig):
        options.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    cfg = ExperimentConfig()
    problems = ["[DEFAULT]: unknown section"] if parser.defaults() else []
    for name in parser.sections():
        keys = options.get(name)
        if keys is None:
            problems.append(f"[{name}]: unknown section")
            continue
        for key, raw in parser[name].items():
            if key not in keys:
                problems.append(f"{name}.{key}: unknown key")
                continue
            try:
                setattr(cfg, keys[key].name, keys[key].metadata["parse"](raw))
            except ValueError:
                problems.append(f"{name}.{key}: cannot parse {raw!r}")
    if problems:
        raise ConfigValidationError(problems)
    return cfg.validate()
