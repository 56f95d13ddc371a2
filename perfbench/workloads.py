"""Workload definitions: each turns a seed into an experiment config (INI text).

The program under test only ever sees the generated config; the seed picks the
data-generating seeds of the cells, so a different seed gives different data
and different chains while the work per cell stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Cell seeds are `seed * SEED_STRIDE + i`, so two benchmark seeds never share a cell.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    init_mode: str
    n_grid: tuple
    cells_per_n: int
    j_in: int
    j: int
    diagnostics: tuple
    n_probes: int = 200
    darcy_mesh: int = 256
    tiny: dict = field(default_factory=dict)

    def seeds(self, seed: int) -> list:
        return [seed * SEED_STRIDE + i for i in range(self.cells_per_n)]

    def sized(self, size: str) -> "Workload":
        """The full workload, or the reduced one the self-tests run."""
        if size == "full":
            return self
        if size == "tiny":
            return replace(self, **self.tiny)
        raise ValueError(f"unknown size {size!r}")

    def config_ini(self, seed: int) -> str:
        """The experiment config the program receives for this seed."""
        return _ini(self, self.seeds(seed), self.n_grid, self.j_in, self.j, self.n_probes)

    def warmup_ini(self, seed: int) -> str:
        """A one-cell version of the same pipeline for first-call costs.

        Density keeps two sample sizes so the recovery slope is computed too.
        """
        n_grid = self.n_grid[:2] if "recovery" in self.diagnostics else self.n_grid[:1]
        cell_seed = self.seeds(seed)[-1] + 1
        return _ini(self, [cell_seed], tuple(max(n // 5, 20) for n in n_grid), 0, 200, 4)


def _ini(w: Workload, seeds, n_grid, j_in, j, n_probes) -> str:
    join = " ".join
    return "\n".join([
        "[model]",
        f"preset = {w.preset}",
        f"darcy_mesh = {w.darcy_mesh}",
        "[surrogate]",
        f"init_mode = {w.init_mode}",
        f"n_probes = {n_probes}",
        "[sampler]",
        "j_in_rule = fixed",
        f"j_in_value = {j_in}",
        f"j = {j}",
        f"seeds = {join(str(s) for s in seeds)}",
        "[experiment]",
        f"n_grid = {join(str(n) for n in n_grid)}",
        "p_rule = fixed",
        "p_value = 4",
        f"diagnostics = {join(w.diagnostics)}",
        "",
    ])


# j_in is fixed in every workload: the automatic burn-in rule at the default
# epsilon = 0.5 asks for millions of steps here (the traced run reports it as
# sampler.j_in_auto), far more than a benchmark run can afford.
#
# darcy-1d-pilot omits the `contraction` diagnostic: at the default alpha = 1
# the Darcy contraction exponent (alpha + 1) / (alpha - 1) divides by zero and
# every cell fails (pinned by test_perfbench.py).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="glm-poisson-chain",
        why="long ULA chains that stay in the exact-likelihood ball: sampler "
            "overhead, LinearPhi gradient and the trace-CSV write dominate",
        preset="glm-poisson", init_mode="oracle-projection",
        n_grid=(500,), cells_per_n=3, j_in=2000, j=18000,
        diagnostics=("condition-numbers",),
        tiny=dict(n_grid=(100,), cells_per_n=2, j_in=50, j=450, n_probes=5),
    ),
    Workload(
        name="darcy-1d-pilot",
        why="Darcy PDE forward solves in pilot ascent and the curvature probe, "
            "then a chain in the far-field penalty that skips the likelihood",
        preset="darcy-1d", init_mode="pilot-ascent",
        n_grid=(500,), cells_per_n=3, j_in=500, j=4500,
        diagnostics=("condition-numbers",),
        tiny=dict(n_grid=(100,), cells_per_n=2, j_in=20, j=180, n_probes=3,
                  darcy_mesh=64),
    ),
    Workload(
        name="density-matrix",
        why="20 short density cells over four sample sizes: per-cell fixed "
            "costs (data, pilot ascent, probe, surrogate set-up, diagnostics, writes)",
        preset="density", init_mode="pilot-ascent",
        n_grid=(250, 500, 1000, 2000), cells_per_n=5, j_in=200, j=1000,
        diagnostics=("contraction", "condition-numbers", "recovery"),
        tiny=dict(n_grid=(100, 200), cells_per_n=2, j_in=20, j=180, n_probes=5),
    ),
)}
