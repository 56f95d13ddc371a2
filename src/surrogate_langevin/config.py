"""Experiment configuration: INI-style files with block headers and key=value
lines, validated up front so every rule resolves to numbers before any chain
starts."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple


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

INIT_MODES = ("oracle-projection", "oracle-perturbed", "pilot-ascent")
DIAGNOSTIC_NAMES = ("grid-posterior", "contraction", "condition-numbers", "recovery")


class ConfigValidationError(ValueError):
    """Carries the full list of violated fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentConfig:
    # model block
    model_preset: str = "glm-gaussian"
    theta0_mode: str = "decay"       # "decay" | "explicit"
    theta0_scale: float = 0.5
    theta0_power: float = 2.0        # theta0_k = scale * k^{-power}
    theta0_values: list = field(default_factory=list)
    darcy_mesh: int = 256
    darcy_f_min: float = 1.0
    darcy_source: float = 4.0
    darcy_boundary: tuple = (1.0, 1.0)
    # prior block
    alpha: float = 1.0
    # surrogate block
    eta_rule: str = "preset"         # "preset" | "fixed"
    eta_value: float = 0.0
    k_override: float | None = None
    init_mode: str = "oracle-projection"
    init_rho: float = 0.0            # oracle-perturbed radius (<= eta/8)
    n_probes: int = 200
    # sampler block
    variant: str = "surrogate"
    gamma_rule: str = "fraction"     # fraction of the chosen step bound
    gamma_fraction: float = 1.0
    gamma_bound: str = "sampling"    # "sampling" (2/(m+L)) | "exit" (m/(sqrt54 L^2))
    gamma_value: float = 0.0         # used when gamma_rule == "fixed"
    j_in_rule: str = "auto"          # "auto" (burn-in formula) | "fixed"
    j_in_value: int = 0
    epsilon: float = 0.5
    c_w: float = 1.0
    j: int = 10_000
    seeds: list = field(default_factory=lambda: [0])
    guard: str = "none"
    guard_radius: float = 1e3
    # experiment block
    n_grid: list = field(default_factory=lambda: [500])
    p_rule: str = "fixed"            # "fixed" | "rate" (round n^{1/(2 alpha + 1)})
    p_value: int = 4
    diagnostics: list = field(default_factory=list)  # subset of DIAGNOSTIC_NAMES
    # output block
    out_dir: str = "out"
    thinning_budget: int = 10_000_000

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
            out = np.zeros(p)
            m = min(p, len(self.theta0_values))
            out[:m] = self.theta0_values[:m]
            return out
        k = np.arange(1, p + 1, dtype=float)
        return self.theta0_scale * k ** -self.theta0_power

    def validate(self):
        problems = []
        if self.model_preset not in MODEL_PRESETS:
            problems.append(f"model.preset: unknown preset {self.model_preset!r}")
        if self.theta0_mode not in ("decay", "explicit"):
            problems.append(f"model.theta0_mode: must be decay or explicit, got {self.theta0_mode!r}")
        if self.theta0_mode == "explicit" and not self.theta0_values:
            problems.append("model.theta0_values: required when theta0_mode = explicit")
        if self.darcy_mesh < 8:
            problems.append("model.darcy_mesh: must be >= 8")
        if self.alpha <= 0.5:
            problems.append("prior.alpha: smoothness must exceed 1/2")
        if self.eta_rule not in ("preset", "fixed"):
            problems.append(f"surrogate.eta_rule: must be preset or fixed, got {self.eta_rule!r}")
        if self.eta_rule == "fixed" and self.eta_value <= 0:
            problems.append("surrogate.eta_value: must be positive when eta_rule = fixed")
        if self.k_override is not None and self.k_override <= 0:
            problems.append("surrogate.k_override: must be positive when given")
        if self.init_mode not in INIT_MODES:
            problems.append(f"surrogate.init_mode: must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.init_mode == "oracle-perturbed" and self.init_rho < 0:
            problems.append("surrogate.init_rho: must be nonnegative")
        if self.n_probes < 1:
            problems.append("surrogate.n_probes: must be >= 1")
        if self.variant not in ("surrogate", "vanilla"):
            problems.append(f"sampler.variant: must be surrogate or vanilla, got {self.variant!r}")
        if self.gamma_rule not in ("fraction", "fixed"):
            problems.append(f"sampler.gamma_rule: must be fraction or fixed, got {self.gamma_rule!r}")
        if self.gamma_rule == "fraction" and not 0.0 < self.gamma_fraction <= 1.0:
            problems.append(
                f"sampler.gamma: fraction-of-bound must lie in (0, 1], got {self.gamma_fraction}"
                " (violates the step-size bound)")
        if self.gamma_rule == "fixed" and self.gamma_value <= 0:
            problems.append("sampler.gamma_value: must be positive when gamma_rule = fixed")
        if self.gamma_bound not in ("sampling", "exit"):
            problems.append(f"sampler.gamma_bound: must be sampling or exit, got {self.gamma_bound!r}")
        if self.j_in_rule not in ("auto", "fixed"):
            problems.append(f"sampler.j_in_rule: must be auto or fixed, got {self.j_in_rule!r}")
        if self.j_in_rule == "fixed" and self.j_in_value < 0:
            problems.append("sampler.j_in_value: must be >= 0")
        if self.epsilon <= 0:
            problems.append("sampler.epsilon: must be positive")
        if self.j < 1:
            problems.append("sampler.j: must be >= 1")
        if not self.seeds:
            problems.append("sampler.seeds: need at least one seed")
        if self.guard not in ("none", "reflect"):
            problems.append(f"sampler.guard: must be none or reflect, got {self.guard!r}")
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            problems.append("experiment.n_grid: need positive sample sizes")
        if self.p_rule not in ("fixed", "rate"):
            problems.append(f"experiment.p_rule: must be fixed or rate, got {self.p_rule!r}")
        if self.p_rule == "fixed" and self.p_value < 1:
            problems.append("experiment.p_value: must be >= 1")
        if self.thinning_budget < 1000:
            problems.append("output.thinning_budget: must be >= 1000")
        for d in self.diagnostics:
            if d not in DIAGNOSTIC_NAMES:
                problems.append(f"experiment.diagnostics: unknown diagnostic {d!r}")
        if problems:
            raise ConfigValidationError(problems)
        return self


def _list_of(conv):
    return lambda raw: [conv(tok) for tok in raw.replace(",", " ").split()]


def _pair(raw):
    vals = _list_of(float)(raw)
    return (vals[0], vals[1])


# section -> key -> parser of the raw string; each key sets the
# ExperimentConfig field of the same name unless _FIELDS renames it
_KEYS = {
    "model": {"preset": str, "theta0_mode": str, "theta0_scale": float,
              "theta0_power": float, "theta0_values": _list_of(float),
              "darcy_mesh": int, "darcy_f_min": float, "darcy_source": float,
              "darcy_boundary": _pair},
    "prior": {"alpha": float},
    "surrogate": {"eta_rule": str, "eta_value": float, "k_override": float,
                  "init_mode": str, "init_rho": float, "n_probes": int},
    "sampler": {"variant": str, "gamma_rule": str, "gamma_fraction": float,
                "gamma_bound": str, "gamma_value": float, "j_in_rule": str,
                "j_in_value": int, "epsilon": float, "c_w": float, "j": int,
                "seeds": _list_of(int), "guard": str, "guard_radius": float},
    "experiment": {"n_grid": _list_of(int), "p_rule": str, "p_value": int,
                   "diagnostics": _list_of(str)},
    "output": {"dir": str, "thinning_budget": int},
}
_FIELDS = {"preset": "model_preset", "dir": "out_dir"}


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
    cfg = ExperimentConfig()
    problems = ["[DEFAULT]: unknown section"] if parser.defaults() else []
    for name in parser.sections():
        keys = _KEYS.get(name)
        if keys is None:
            problems.append(f"[{name}]: unknown section")
            continue
        for key, raw in parser[name].items():
            if key not in keys:
                problems.append(f"{name}.{key}: unknown key")
                continue
            try:
                setattr(cfg, _FIELDS.get(key, key), keys[key](raw))
            except (ValueError, IndexError):
                problems.append(f"{name}.{key}: cannot parse {raw!r}")
    if problems:
        raise ConfigValidationError(problems)
    return cfg.validate()
